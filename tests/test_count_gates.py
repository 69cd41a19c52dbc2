"""Count gates: deterministic operation counts of the benchmark workloads
(``bench/workloads.py``, seed 1) stay at or under, or equal to, the values
recorded in the ``BENCH_<n>.json`` files at the repository root.

``GATES`` is the one table: each row names a workload, a counter, the file
that recorded its value and the relation the count must keep with it.  A
change that lowers a count records the new value in its own
``BENCH_<n>.json`` and adds a row that points there, beside the row of the
earlier record; no value is copied here.

Two kinds of counter:

* per-round counters (``ROUND_COUNTERS``) count the calls of one library
  function over one seed-1 round, in a fresh interpreter so that every memo
  starts empty.  One interpreter per workload counts all of them at once:
  ``python tests/test_count_gates.py decompose-l3`` prints them as one JSON
  line.  They are recorded under ``workloads.<workload>.<counter>.change``.
* kernel builds: ``kernel_builds`` lists the product and reduction
  kernels that ``cyclo`` compiles over one seed-1 hopf-rewrite round and
  one field above the kernel cap, in a fresh interpreter
  (``python tests/test_count_gates.py --kernel-builds``).  Each field
  compiles at most its two kernels, once, and a field above the cap none.
* traced counters are the per-layer metrics of
  ``bench/run.py --workload W --trace 1 --seed 1`` (its last line of
  output), recorded under ``workloads.<workload>.traced.change``.  They
  are read only from a run in which no operation failed.
"""

from __future__ import annotations

import json
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property, lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ROUND_COUNTERS = (
    "scalar_mul_calls",
    "half_power_calls",
    "mul_num_calls",
    "shift_calls",
    "corep_builds",
    "singular_unknowns",
    "index_terms",
    "product_calls",
    "grade_map_calls",
)

# Elimination sizes are gated equal: sparse rows and sparsest-first insertion
# change how an elimination runs, not which eliminations run or how many
# unknowns they have.  rank and the certificate's witness call neither rref
# nor kernel, so their work shows only in cyclo.inverse.calls, gated at most.
# The decomposition driver solves no Hom system: its hom_space unknowns are
# gated equal to 0, and the unknowns of its singular-vector systems at most.
GATES = [
    ("braid-tables", "scalar_mul_calls", "BENCH_28.json", "<="),
    ("braid-tables", "half_power_calls", "BENCH_29.json", "<="),
    ("decompose-l3", "scalar_mul_calls", "BENCH_31.json", "<="),
    ("decompose-l3", "scalar_mul_calls", "BENCH_43.json", "<="),
    ("certify-hi", "scalar_mul_calls", "BENCH_27.json", "<="),
    ("certify-hi", "scalar_mul_calls", "BENCH_43.json", "<="),
    ("hopf-rewrite", "scalar_mul_calls", "BENCH_27.json", "<="),
    ("decompose-l3", "mul_num_calls", "BENCH_31.json", "<="),
    ("certify-hi", "mul_num_calls", "BENCH_19.json", "<="),
    ("braid-tables", "mul_num_calls", "BENCH_25.json", "<="),
    ("hopf-rewrite", "mul_num_calls", "BENCH_16.json", "<="),
    ("decompose-l3", "shift_calls", "BENCH_31.json", "<="),
    ("certify-hi", "shift_calls", "BENCH_26.json", "<="),
    ("certify-hi", "shift_calls", "BENCH_43.json", "<="),
    ("braid-tables", "shift_calls", "BENCH_28.json", "<="),
    ("hopf-rewrite", "shift_calls", "BENCH_26.json", "<="),
    ("decompose-l3", "corep_builds", "BENCH_31.json", "<="),
    ("decompose-l3", "singular_unknowns", "BENCH_31.json", "<="),
    ("decompose-l3", "index_terms", "BENCH_37.json", "<="),
    ("decompose-l3", "index_terms", "BENCH_43.json", "<="),
    ("certify-hi", "index_terms", "BENCH_35.json", "<="),
    ("braid-tables", "index_terms", "BENCH_35.json", "<="),
    ("decompose-l3", "product_calls", "BENCH_43.json", "<="),
    ("decompose-l3", "scalar_mul_calls", "BENCH_49.json", "<="),
    ("decompose-l3", "grade_map_calls", "BENCH_49.json", "<="),
    ("certify-hi", "product_calls", "BENCH_43.json", "<="),
    ("certify-hi", "corep_builds", "BENCH_14.json", "<="),
    ("braid-tables", "corep_builds", "BENCH_14.json", "<="),
    ("hopf-rewrite", "corep_builds", "BENCH_14.json", "<="),
    ("decompose-l3", "linalg.rref.calls", "BENCH_31.json", "=="),
    ("decompose-l3", "linalg.rref.cells", "BENCH_31.json", "=="),
    ("decompose-l3", "linalg.kernel.calls", "BENCH_31.json", "=="),
    ("decompose-l3", "corep.hom_space.unknowns", "BENCH_31.json", "=="),
    ("decompose-l3", "cyclo.inverse.calls", "BENCH_31.json", "<="),
    ("certify-hi", "linalg.rref.calls", "BENCH_18.json", "=="),
    ("certify-hi", "linalg.rref.cells", "BENCH_18.json", "=="),
    ("certify-hi", "linalg.kernel.calls", "BENCH_18.json", "=="),
    ("certify-hi", "corep.hom_space.unknowns", "BENCH_18.json", "=="),
    ("certify-hi", "cyclo.inverse.calls", "BENCH_18.json", "<="),
    ("hopf-rewrite", "cyclo.mul.calls", "BENCH_27.json", "<="),
    ("hopf-rewrite", "algebra.mono_mul.misses", "BENCH_27.json", "<="),
    ("hopf-rewrite", "scalar_mul_calls", "BENCH_53.json", "<="),
    ("hopf-rewrite", "mul_num_calls", "BENCH_53.json", "<="),
    ("hopf-rewrite", "shift_calls", "BENCH_53.json", "<="),
]

RELATIONS = {"<=": operator.le, "==": operator.eq}

# what a generated kernel's source may hold: identifiers, int literals,
# + - * , = [ ] ( ) : and whitespace
KERNEL_SOURCE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-+*,=\[\]():]|\s)*")


def count_round(workload: str) -> dict[str, int]:
    """Run one seed-1 round of the workload and count the calls of
    ``CyclotomicScalar.__mul__``, of ``braid.times_half_power``, of
    ``cyclo._mul_num``, of ``cyclo._shift`` and of
    ``corep._corep_from_monomials`` (the memoised builders build each named
    corep once), the unknowns of ``corep._singular_vectors``, the size
    of the weight block each of its systems solves on, and the entries of
    every ``Corep.axis_terms`` index built (each is built once per corep,
    on its first read), and the calls of ``corep._product``, one per cell of
    every tensor product built (``tensor`` builds a pair of instances once,
    so a repeated product adds none), and the calls of ``corep._grade_map``,
    one per grade map that the singular vectors and the image rows apply.
    ``__mul__`` is counted per call, whatever work the call does: a product
    of two units +-q^k is a table read that reaches neither ``_mul_num`` nor ``_shift``;
    a unit times a non-unit is one ``_shift``; only two non-units reach the
    convolution ``_mul_num``.
    ``times_half_power`` is the same function as ``__mul__``, but ``braid``
    holds it under its module name, so patching the class does not reach
    the braiding's term-pair products: ``half_power_calls`` counts those,
    and ``scalar_mul_calls`` does not.
    It patches the library: call it in a fresh interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from slq2 import braid, corep, cyclo

    counts = dict.fromkeys(ROUND_COUNTERS, 0)
    cyclo.CyclotomicScalar.__mul__ = _counting(counts, "scalar_mul_calls", cyclo.CyclotomicScalar.__mul__)
    braid.times_half_power = _counting(counts, "half_power_calls", braid.times_half_power)
    cyclo._mul_num = _counting(counts, "mul_num_calls", cyclo._mul_num)
    cyclo._shift = _counting(counts, "shift_calls", cyclo._shift)
    corep._corep_from_monomials = _counting(counts, "corep_builds", corep._corep_from_monomials)
    corep._product = _counting(counts, "product_calls", corep._product)
    corep._grade_map = _counting(counts, "grade_map_calls", corep._grade_map)
    corep._singular_vectors = _counting(counts, "singular_unknowns", corep._singular_vectors, lambda out: len(out[0]))
    index = _counting(counts, "index_terms", corep.Corep.__dict__["axis_terms"].func, lambda out: sum(map(len, out.values())))
    corep.Corep.axis_terms = cached_property(index)
    corep.Corep.axis_terms.__set_name__(corep.Corep, "axis_terms")
    for op in workloads.make_ops(workload, 1):
        workloads.execute(op)
    return counts


def kernel_builds() -> dict:
    """Run one seed-1 hopf-rewrite round, then build the field of the
    first odd ell whose degree is above ``cyclo.KERNEL_MAX_DEG``, and list
    every kernel ``cyclo._compile`` compiled as [name, ell, source].  It
    patches the library: call it in a fresh interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from slq2 import cyclo

    builds = []
    compile_ = cyclo._compile

    def recorded(name, ell, source):
        builds.append([name, ell, source])
        return compile_(name, ell, source)

    cyclo._compile = recorded
    for op in workloads.make_ops("hopf-rewrite", 1):
        workloads.execute(op)
    above_cap = next(ell for ell in range(3, cyclo.MAX_ELL + 1, 2) if len(cyclo.cyclotomic_polynomial(ell)) - 1 > cyclo.KERNEL_MAX_DEG)
    cyclo._field(above_cap)
    return {"builds": builds, "above_cap": above_cap}


def _counting(counts: dict[str, int], counter: str, fn, size=lambda out: 1):
    """fn, adding size(result) to the counter on each call."""

    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[counter] += size(out)
        return out

    return counted


def _run(argv) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout.splitlines()[-1]


@lru_cache(maxsize=None)
def _round_counts(workload: str) -> dict[str, int]:
    return json.loads(_run([sys.executable, __file__, workload]))


@lru_cache(maxsize=None)
def _traced_counts(workload: str) -> dict[str, int]:
    result = json.loads(_run([sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", "--seed", "1"]))
    # the run exits 0 even when an oracle or a digest rejects a result: gate the counts of correct runs only
    assert result["failed"] == 0, f"{workload}: {result['failed']} of {result['attempted']} operations failed"
    return {key: metric["value"] for key, metric in result["metrics"].items()}


def _recorded(workload: str, counter: str, bench: str) -> int:
    recorded = json.loads((ROOT / bench).read_text())["workloads"][workload]
    return recorded[counter]["change"] if counter in ROUND_COUNTERS else recorded["traced"]["change"][counter]


@pytest.mark.parametrize(
    "workload, counter, bench, relation",
    GATES,
    ids=[f"{workload}-{counter}-{bench.removesuffix('.json')}" for workload, counter, bench, _ in GATES],
)
def test_count_gate(workload, counter, bench, relation):
    counts = _round_counts(workload) if counter in ROUND_COUNTERS else _traced_counts(workload)
    count, recorded = counts[counter], _recorded(workload, counter, bench)
    # a counter patches its function by name: work reached under another name reads 0
    assert count or not recorded, f"{workload}: {counter} is 0, {recorded} recorded in {bench}: its counted function is no longer reached"
    assert RELATIONS[relation](count, recorded), f"{workload}: {counter} is {count}, not {relation} {recorded} recorded in {bench}"


def test_each_field_compiles_its_kernels_once():
    run = json.loads(_run([sys.executable, __file__, "--kernel-builds"]))
    per_field = Counter(ell for _, ell, _ in run["builds"])
    assert per_field, "a hopf-rewrite round compiled no kernel"
    assert max(per_field.values()) <= 2, per_field
    assert per_field[run["above_cap"]] == 0, f"the field at ell {run['above_cap']} is above the cap and compiled kernels"
    for name, ell, source in run["builds"]:
        assert KERNEL_SOURCE.fullmatch(source), f"the {name} kernel of ell {ell} holds more than names, ints and operators"


if __name__ == "__main__":
    print(json.dumps(kernel_builds() if sys.argv[1] == "--kernel-builds" else count_round(sys.argv[1])))
