"""Layer tracing for the benchmark's traced runs (``--trace 1``).

The tracer wraps the public functions of each slq2 layer, in the module
that defines them and wherever another slq2 module imported them by name
(``corep`` imports ``rref``, ``solve``, ``kernel`` and ``inverse``;
``braid`` imports ``_coproduct_monomial``).  Each wrapped call records a
span (name, start, end, parent); a layer's self time is its spans'
durations minus the time their child spans and scalar arithmetic cover.

The hot scalar methods of ``CyclotomicScalar`` and the pairing memo
lookup ``Pairing.pair_monomials`` get a running count (and, for scalars,
time) instead of a span per call.  Memo sizes and hits are read from
``cache_info()`` and the pairing memos around each operation, without
wrapping.  Only calls made while an operation runs are recorded, so the
oracles that check results afterwards leave no trace.
"""

from __future__ import annotations

import functools
import os
import sys
import weakref
from collections import Counter
from time import perf_counter

from slq2 import algebra, braid, corep, cyclo, hopf, linalg, parsing

SPAN_FUNCTIONS = {
    linalg: ("rref", "rank", "kernel", "solve", "inverse", "is_invertible"),
    algebra: ("multiply", "from_word", "monomial_element", "project", "pbw_coordinates"),
    hopf: ("coproduct", "antipode", "counit", "check_hopf_axioms", "_coproduct_monomial"),
    corep: (
        "build_v",
        "build_w",
        "tensor",
        "hom_space",
        "irreducibility_certificate",
        "subcomodule_check",
        "restrict_corep",
        "quotient_corep",
        "decompose_l3",
    ),
    braid: ("braiding_matrix", "braiding_map"),
    parsing: ("parse_element",),
}
SPAN_METHODS = ((corep, corep.Corep, "weight_values"), (braid, braid.Pairing, "pair"))
SCALAR_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "addsub",
    "__radd__": "addsub",
    "__sub__": "addsub",
    "inverse": "inverse",
}
SUBQUOTIENT = ("subcomodule_check", "restrict_corep", "quotient_corep")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def _matrix_key(m) -> tuple:
    return (m.rows, m.cols, tuple(tuple(row) for row in m.data))


class Tracer:
    """Spans, counters and memo readings of one traced run."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[list] = []  # [child_seconds, span index]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.scalar_calls: Counter = Counter()
        self.scalar_s = 0.0
        self.rref_cells = 0
        self.solve_matrices: set = set()
        self.hom_unknowns = 0
        self._kernel_cols = None
        self.weight_fresh = 0
        self._weight_seen: dict[int, weakref.ref] = {}
        self.memo = Counter()
        self._memo_before = None
        self._mono_mul = algebra._mono_mul
        self._coproduct_monomial = hopf._coproduct_monomial

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for module, names in SPAN_FUNCTIONS.items():
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._span(_layer(module), name, fn))
        # rebind every slq2 module global that refers to a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slq2" or mod_name.startswith("slq2.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for module, cls, name in SPAN_METHODS:
            setattr(cls, name, self._span(_layer(module), name, getattr(cls, name)))
        braid.Pairing.pair_monomials = self._counted("pair_monomials", braid.Pairing.pair_monomials)
        for method, kind in SCALAR_METHODS.items():
            setattr(cyclo.CyclotomicScalar, method, self._scalar(kind, getattr(cyclo.CyclotomicScalar, method)))

    def _span(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[name] += 1
            if before is not None:
                before(*args)
            frame = [0.0, len(spans)]
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                spans[frame[1]] = (name_id, start, end, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            if self.enabled:
                calls[name] += 1
            return fn(*args)

        return wrapper

    def _scalar(self, kind: str, fn):
        counts, stack = self.scalar_calls, self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            if not self.enabled:
                return fn(*args)
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            counts[kind] += 1
            self.scalar_s += elapsed
            if stack:
                stack[-1][0] += elapsed
            return result

        return wrapper

    # -- per-call hooks ----------------------------------------------------

    def _before_rref(self, matrix):
        self.rref_cells += matrix.rows * matrix.cols

    def _before_solve(self, matrix, rhs):
        self.solve_matrices.add(_matrix_key(matrix))

    def _before_kernel(self, matrix):
        self._kernel_cols = matrix.cols

    def _before_hom_space(self, a, b):
        self._kernel_cols = None

    def _after_hom_space(self, result):
        # the unknowns are the columns of the one kernel solve; without
        # equations every unknown is free and spans one basis element
        self.hom_unknowns += self._kernel_cols if self._kernel_cols is not None else len(result)

    def _before_weight_values(self, c):
        seen = self._weight_seen.get(id(c))
        if seen is None or seen() is not c:
            self.weight_fresh += 1
            self._weight_seen[id(c)] = weakref.ref(c)

    # -- operation boundaries ----------------------------------------------

    def _memo_state(self) -> tuple:
        mm = self._mono_mul.cache_info()
        cm = self._coproduct_monomial.cache_info()
        size = sum(len(p._memo) for p in braid._PAIRINGS.values())
        return (mm.hits, mm.misses, cm.hits, cm.misses, size)

    def begin_op(self) -> None:
        self._memo_before = self._memo_state()
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False
        after = self._memo_state()
        keys = ("mono_mul.hits", "mono_mul.misses", "coproduct_monomial.hits", "coproduct_monomial.misses", "pairing.size")
        for key, a, b in zip(keys, after, self._memo_before):
            self.memo[key] += a - b

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        c, memo = self.calls, self.memo
        mm_calls = memo["mono_mul.hits"] + memo["mono_mul.misses"]
        cm_calls = memo["coproduct_monomial.hits"] + memo["coproduct_monomial.misses"]
        pm_calls = c["pair_monomials"]
        out = {
            "cyclo.mul.calls": (self.scalar_calls["mul"], "count"),
            "cyclo.addsub.calls": (self.scalar_calls["addsub"], "count"),
            "cyclo.inverse.calls": (self.scalar_calls["inverse"], "count"),
            "cyclo.busy_s": (self.scalar_s, "s"),
            "linalg.rref.calls": (c["rref"], "count"),
            "linalg.rref.cells": (self.rref_cells, "count"),
            "linalg.solve.calls": (c["solve"], "count"),
            "linalg.solve.fresh_ratio": (_ratio(len(self.solve_matrices), c["solve"], 1.0), "ratio"),
            "linalg.kernel.calls": (c["kernel"], "count"),
            "linalg.self_s": (self.self_s["linalg"], "s"),
            "algebra.multiply.calls": (c["multiply"], "count"),
            "algebra.mono_mul.misses": (memo["mono_mul.misses"], "count"),
            "algebra.mono_mul.hit_ratio": (_ratio(memo["mono_mul.hits"], mm_calls, 0.0), "ratio"),
            "algebra.self_s": (self.self_s["algebra"], "s"),
            "hopf.coproduct.calls": (c["coproduct"], "count"),
            "hopf.coproduct_monomial.misses": (memo["coproduct_monomial.misses"], "count"),
            "hopf.coproduct_monomial.hit_ratio": (_ratio(memo["coproduct_monomial.hits"], cm_calls, 0.0), "ratio"),
            "hopf.self_s": (self.self_s["hopf"], "s"),
            "braid.pair.calls": (c["pair"], "count"),
            "braid.pair_monomials.calls": (pm_calls, "count"),
            "braid.memo.size": (memo["pairing.size"], "count"),
            "braid.memo.hit_ratio": (_ratio(pm_calls - memo["pairing.size"], pm_calls, 0.0), "ratio"),
            "braid.self_s": (self.self_s["braid"], "s"),
            "corep.hom_space.calls": (c["hom_space"], "count"),
            "corep.hom_space.unknowns": (self.hom_unknowns, "count"),
            "corep.weight_values.fresh_ratio": (_ratio(self.weight_fresh, c["weight_values"], 1.0), "ratio"),
            "corep.subquotient.calls": (sum(c[n] for n in SUBQUOTIENT), "count"),
            "corep.self_s": (self.self_s["corep"], "s"),
            "parsing.parse_element.calls": (c["parse_element"], "count"),
            "parsing.self_s": (self.self_s["parsing"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return out

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
