"""The four seeded workloads of the slq2 benchmark: inputs, operations and oracles.

A workload is a fixed list of slots.  A slot fixes the size of its input
(tensor factors, ell, operation, word letters); the seed only picks one
input among those of that size (factor order, left/right order, places of
b and c in a word) and shuffles the slots.  Two seeds therefore give
different inputs of the same stated sizes, which keeps operations per
second comparable across seeds.

Every result is checked outside the timed region, twice: by an oracle
that does not share the code path under test, and by the digest of its
exact value when ``expected.json`` holds one for that input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from itertools import permutations

# Operations call the library through its modules, so that the wrappers
# a traced run installs in the defining modules see every call.
from slq2 import braid, corep, hopf, parsing
from slq2.algebra import AlgebraElement, AlgebraMode, NormalMonomial, project
from slq2.corep import DirectSum, Extension, Leaf
from slq2.cyclo import CyclotomicScalar, q_half_power, q_power
from slq2.parsing import mode_from_name
from slq2.verify import reference_braiding_tables, reverse_fold_normal_form

DEFAULT_SEED = 1
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass(frozen=True)
class Op:
    """One benchmark operation on one generated input."""

    kind: str
    ell: int
    args: tuple
    size: str

    @property
    def key(self) -> str:
        return f"{self.kind}|ell={self.ell}|" + "|".join(str(a) for a in self.args)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _dim(name: str) -> int:
    return int(name[1:]) + 1


def _dims(names) -> int:
    out = 1
    for n in names:
        out *= _dim(n)
    return out


# Factor multisets at ell = 3, dimension 8 to 18: seventeen that take
# 0.15-0.35 s and three that take 1.7-2.1 s, whatever the order of their
# factors.  Equal costs sit together, so the median and the p75 tail each
# fall inside a group of near-equal costs (the factor orders of V1 V1 V2
# and V1 V2 W1 differ twofold in cost, so those are left out).  Repeated
# multisets get their factor order picked independently.
DECOMPOSE_SLOTS = (
    [("V1", "V1", "V1")] * 3
    + [("V1", "W1", "W1")] * 4
    + [("W1", "W1", "W1")] * 3
    + [("V2", "V2")] * 3
    + [("V1", "V1", "W1")] * 4
    + [("V1", "V1", "V1", "V1"), ("V1", "V2", "V2"), ("V1", "V1", "V1", "W1")]
)


def _decompose_ops(rng: random.Random) -> list[Op]:
    ops = []
    for slot in DECOMPOSE_SLOTS:
        word = rng.choice(sorted(set(permutations(slot))))
        ops.append(Op("decompose", 3, ("*".join(word),), f"dim {_dims(word)}"))
    return ops


# (kind, alternatives of equal dimension, smallest ell allowed).  "cert"
# on W_n (x) V_m must certify irreducibility; "cert" on V_m (x) V_m' and
# "end" (End(X), m + m' <= ell - 2) are checked against Clebsch-Gordan.
CERTIFY_SLOTS = [
    ("cert", (("W1", "V2"), ("W2", "V1")), 5),
    ("cert", (("W1", "V3"), ("W3", "V1")), 5),
    ("cert", (("W2", "V2"),), 5),
    ("cert", (("V1", "V3"), ("V3", "V1")), 5),
    ("end", (("V1", "V1"),), 5),
    ("end", (("V1", "V2"), ("V2", "V1")), 5),
    ("end", (("V1", "V3"), ("V3", "V1")), 7),
    ("end", (("V2", "V2"),), 7),
]
CERTIFY_ELLS = (5, 7, 9, 15)


def _certify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for ell in CERTIFY_ELLS:
        for kind, choices, min_ell in CERTIFY_SLOTS:
            if ell < min_ell:
                continue
            pair = rng.choice(choices)
            d = _dims(pair)
            size = f"dim {d}, coefficient matrix of {d * d} rows" if kind == "cert" else f"dim {d}"
            ops.append(Op(kind, ell, ("*".join(pair),), size))
    return ops


# Per ell, a small and a large pair {m, m'} under both pairing
# conventions; the seed picks which factor goes left.  One ell = 3 table
# is added so the frozen reference tables check every round.
BRAID_PAIRS = {5: ((1, 3), (3, 4)), 7: ((2, 3), (5, 6)), 9: ((2, 4), (5, 7))}
CONVENTIONS = ("ordered", "structural")


def _braid_op(ell: int, m: int, m2: int, convention: str) -> Op:
    d = (m + 1) * (m2 + 1)
    return Op("braid", ell, (f"V{m}", f"V{m2}", convention), f"{d}x{d} matrix")


def _braid_ops(rng: random.Random) -> list[Op]:
    ops = []
    for ell, pairs in BRAID_PAIRS.items():
        for pair in pairs:
            for convention in CONVENTIONS:
                m, m2 = pair if rng.random() < 0.5 else pair[::-1]
                ops.append(_braid_op(ell, m, m2, convention))
    m, m2 = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    ops.append(_braid_op(3, m, m2, "ordered"))
    return ops


# Letters of the words per operation.  The order of a and d in each word
# is fixed: it decides how many terms the rewriting ad -> 1 + q bc and the
# elimination of d in the quotients create, so it sets the cost.  The seed
# places b and c, which only changes powers of q.  In the quotients the
# coproduct and the axiom check grow steeply with ell, so their words get
# shorter there.  Three normal forms per ell and mode put the median among
# the cheap, closely spaced normal-form costs rather than at the edge
# between cheap and expensive operations.
HOPF_ELLS = (3, 5, 7, 9, 15)
HOPF_MODES = ("generic", "F", "Fhat")
HOPF_WORDS = {
    "nf": ("daadbc", "adadbc", "addabc"),
    "S": ("dadbbc",),
    "cop": ("addbcc",),
    "check": ("dadbc",),
}
QUOTIENT_WORDS = {
    3: {"cop": ("addbcc",), "check": ("daadbc",)},
    5: {"cop": ("addbcc",), "check": ("dadbc",)},
    7: {"cop": ("adbc",), "check": ("abc",)},
    9: {"cop": ("abc",), "check": ("ab",)},
    15: {"cop": ("ab",), "check": ("ab",)},
}


def _word(rng: random.Random, letters: str) -> str:
    """The a/d letters in their given order, with b and c at places the
    seed picks."""
    axis = [g for g in letters if g in "ad"]
    free = [g for g in letters if g in "bc"]
    rng.shuffle(free)
    spots = set(rng.sample(range(len(letters)), len(free)))
    word = [free.pop() if i in spots else axis.pop(0) for i in range(len(letters))]
    return " ".join(word)


def _hopf_ops(rng: random.Random) -> list[Op]:
    ops = []
    for ell in HOPF_ELLS:
        for mode in HOPF_MODES:
            for kind, words in HOPF_WORDS.items():
                if mode != "generic":
                    words = QUOTIENT_WORDS[ell].get(kind, words)
                for letters in words:
                    ops.append(Op(kind, ell, (mode, _word(rng, letters)), f"degree {len(letters)}"))
    return ops


WORKLOADS = {
    "decompose-l3": _decompose_ops,
    "certify-hi": _certify_ops,
    "braid-tables": _braid_ops,
    "hopf-rewrite": _hopf_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The seed's inputs for one round of the workload, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# execution: only public library calls on the generated inputs
# ---------------------------------------------------------------------------

def _corep(name: str, ell: int):
    index = int(name[1:])
    return corep.build_v(index, ell) if name[0] == "V" else corep.build_w(index, ell)


def _tensor_word(word: str, ell: int):
    names = word.split("*")
    c = _corep(names[0], ell)
    for name in names[1:]:
        c = corep.tensor(c, _corep(name, ell))
    return c


def execute(op: Op):
    if op.kind == "decompose":
        return corep.decompose_l3(_tensor_word(op.args[0], op.ell))
    if op.kind == "cert":
        return corep.irreducibility_certificate(_tensor_word(op.args[0], op.ell))
    if op.kind == "end":
        x = _tensor_word(op.args[0], op.ell)
        return corep.hom_space(x, x)
    if op.kind == "braid":
        left, right, convention = op.args
        return braid.braiding_matrix(_corep(left, op.ell), _corep(right, op.ell), convention).matrix
    mode_name, word = op.args
    x = parsing.parse_element(word, mode_from_name(mode_name, op.ell))
    if op.kind == "nf":
        return x
    if op.kind == "cop":
        return hopf.coproduct(x)
    if op.kind == "S":
        return hopf.antipode(x)
    if op.kind == "check":
        return hopf.check_hopf_axioms(x)
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# exact canonical text of a result (digested) and independent oracles
# ---------------------------------------------------------------------------

def _terms_text(terms) -> str:
    return "; ".join(f"{k}:{v}" for k, v in sorted(terms.items()))


def _matrix_text(rows) -> str:
    return "\n".join(", ".join(str(x) for x in row) for row in rows)


def canonical(op: Op, result) -> str:
    if op.kind == "decompose":
        return result.notation()
    if op.kind == "cert":
        return f"independent={result.independent} rank={result.rank} expected={result.expected}"
    if op.kind == "end":
        return "\n--\n".join(_matrix_text(z.data) for z in result)
    if op.kind == "braid":
        return _matrix_text(result.data)
    if op.kind == "check":
        return f"{result.coassociative} {result.counital} {result.antipodal}"
    return _terms_text(result.terms)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _leaf_dims(tree) -> int:
    if isinstance(tree, Leaf):
        return tree.irr.dim
    if isinstance(tree, Extension):
        return _leaf_dims(tree.sub) + _leaf_dims(tree.quotient)
    assert isinstance(tree, DirectSum)
    return sum(_leaf_dims(ch) for ch in tree.children)


_ANTIPODE_LETTER = {"a": "d", "b": "b", "c": "c", "d": "a"}


def _normal_form_oracle(ell: int, mode_name: str, letters: tuple[str, ...], coeff=None) -> dict:
    """Normal form by the independent right-to-left fold in the generic
    algebra, projected to the quotient when the mode is one."""
    terms = reverse_fold_normal_form(ell, letters)
    if coeff is not None:
        terms = {m: c * coeff for m, c in terms.items()}
    if mode_name == "generic":
        return terms
    mode = mode_from_name(mode_name, ell)
    return project(mode, AlgebraElement(AlgebraMode.generic(ell), terms)).terms


def _counit_legs_ok(op: Op, result) -> bool:
    """(eps (x) id) Delta x = x = (id (x) eps) Delta x, against the oracle x."""
    mode_name, word = op.args
    x = _normal_form_oracle(op.ell, mode_name, tuple(word.split()))
    zero = CyclotomicScalar.zero(op.ell)
    left: dict[NormalMonomial, CyclotomicScalar] = {}
    right: dict[NormalMonomial, CyclotomicScalar] = {}
    for (m1, m2), c in result.terms.items():
        if m1.j == 0 and m1.k == 0:
            left[m2] = left.get(m2, zero) + c
        if m2.j == 0 and m2.k == 0:
            right[m1] = right.get(m1, zero) + c
    nonzero = lambda d: {m: c for m, c in d.items() if not c.is_zero()}
    return nonzero(left) == x and nonzero(right) == x


def oracle_ok(op: Op, result) -> bool:
    """The independent check of one result."""
    ell = op.ell
    if op.kind == "decompose":
        return _leaf_dims(result) == _dims(op.args[0].split("*")) == result.dim
    if op.kind == "cert":
        names = op.args[0].split("*")
        d = _dims(names)
        if names[0][0] == "W" or names[1][0] == "W":
            return result.independent and result.rank == d * d
        return not result.independent and result.rank < d * d
    if op.kind == "end":
        m, m2 = (int(n[1:]) for n in op.args[0].split("*"))
        return len(result) == min(m, m2) + 1
    if op.kind == "braid":
        left, right, convention = op.args
        m, m2 = int(left[1:]), int(right[1:])
        d = (m + 1) * (m2 + 1)
        if (result.rows, result.cols) != (d, d):
            return False
        if ell == 3 and convention == "ordered":
            return result == reference_braiding_tables(3)[f"{m}{m2}"]
        # R(a^m', a^m) = s^(-m m'): only the a (x) a leg of Delta a survives
        return result.data[0][0] == q_half_power(ell, -m * m2)
    mode_name, word = op.args
    letters = tuple(word.split())
    if op.kind == "nf":
        return result.terms == _normal_form_oracle(ell, mode_name, letters)
    if op.kind == "S":
        # S is an anti-homomorphism: S(g1 ... gn) = S(gn) ... S(g1), with
        # S(a) = d, S(d) = a, S(b) = -q^-1 b, S(c) = -q c.
        nb, nc = letters.count("b"), letters.count("c")
        sign = -1 if (nb + nc) % 2 else 1
        coeff = q_power(ell, nc - nb) * sign
        mapped = tuple(_ANTIPODE_LETTER[g] for g in reversed(letters))
        return result.terms == _normal_form_oracle(ell, mode_name, mapped, coeff)
    if op.kind == "cop":
        return _counit_legs_ok(op, result)
    if op.kind == "check":
        return result.all_ok
    raise ValueError(f"unknown operation kind {op.kind!r}")


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH) as f:
        return json.load(f)["digests"]


class Checker:
    """Checks results against the oracles and the recorded digests.

    The oracle verdict is kept per (input, digest): an identical exact
    result needs no second independent check."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self._verified: dict[tuple[str, str], bool] = {}
        self.digest_checked = 0

    def check(self, op: Op, result) -> tuple[bool, str]:
        d = digest(canonical(op, result))
        want = self.expected.get(op.key)
        if want is not None:
            self.digest_checked += 1
            if want != d:
                return False, f"digest {d} != recorded {want}"
        verdict = self._verified.get((op.key, d))
        if verdict is None:
            verdict = oracle_ok(op, result)
            self._verified[(op.key, d)] = verdict
        return verdict, "" if verdict else "independent oracle rejected the result"
