"""Oracle tests for the closed-form products.

``algebra._mono_mul`` reads m1 * m2 off in closed form: one monomial times
a power of q unless an a-power meets a d-power, and otherwise one
q-binomial cross expansion (so in F and Fhat every product of two normal
monomials is one monomial).  It is checked against the letter-by-letter
fold (copied below as a reference) on every pair of monomials of degree at
most 4, on random pairs of higher degree, and against the independent
right-to-left fold of ``verify``; a fresh seed-1 hopf-rewrite round fills
its memo with as many products as the fold did.  The coproduct powers
Delta(g)^n are checked against repeated legwise products, and the Pascal
rows of ``cyclo.q_binomial_row`` against the banded single-entry loop they
replaced (also copied below).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from slq2.algebra import (
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    _mono_mul,
    _reduce_mono,
    generators,
    monomial_element,
    monomials_of_degree,
    unit,
    zero,
)
from slq2.cyclo import CyclotomicScalar, q_binomial, q_binomial_row, q_power
from slq2.hopf import _coproduct_generator_power, tensor_of
from slq2.verify import reverse_fold_normal_form

ELLS = (3, 5, 7)
KINDS = ("generic", "F", "Fhat")


# -- the letter-by-letter fold, as it was before the closed forms ----------------

def _reference_times_generator(mode, mono, g):
    ell = mode.ell
    t, j, k = mono
    out = []
    if t >= 0:
        if g == "a":
            out.append((NormalMonomial(t + 1, j, k), q_power(ell, -(j + k))))
        elif g == "b":
            out.append((NormalMonomial(t, j + 1, k), q_power(ell, 0)))
        elif g == "c":
            out.append((NormalMonomial(t, j, k + 1), q_power(ell, 0)))
        else:
            teff = t
            if t == 0:
                if mode.is_quotient:
                    teff = mode.a_period
                else:
                    return [(NormalMonomial(-1, j, k), q_power(ell, 0))]
            out.append((NormalMonomial(teff - 1, j, k), q_power(ell, j + k)))
            out.append((NormalMonomial(teff - 1, j + 1, k + 1), q_power(ell, j + k + 1)))
    else:
        if g == "d":
            out.append((NormalMonomial(t - 1, j, k), q_power(ell, 0)))
        elif g == "b":
            out.append((NormalMonomial(t, j + 1, k), q_power(ell, t)))
        elif g == "c":
            out.append((NormalMonomial(t, j, k + 1), q_power(ell, t)))
        else:
            out.append((NormalMonomial(t + 1, j, k), q_power(ell, 0)))
            out.append((NormalMonomial(t + 1, j + 1, k + 1), q_power(ell, 2 * t + 1)))
    return [(r, c) for r, c in ((_reduce_mono(mode, m), c) for m, c in out) if r is not None]


def _letter_fold(mode, m1, m2):
    current = {m1: CyclotomicScalar.one(mode.ell)}
    for g, e in m2.word():
        for _ in range(e):
            nxt = {}
            for mono, coeff in current.items():
                for mono2, c2 in _reference_times_generator(mode, mono, g):
                    nxt[mono2] = nxt[mono2] + coeff * c2 if mono2 in nxt else coeff * c2
            current = {m: c for m, c in nxt.items() if not c.is_zero()}
    return current


# -- the banded single-entry Pascal loop, as it was before the rows ---------------

def _banded_q_binomial(ell, m, r, exponent):
    if r < 0 or r > m:
        return CyclotomicScalar.zero(ell)
    one = CyclotomicScalar.one(ell)
    row, lo = [one], 0
    for i in range(1, m + 1):
        new_lo = max(0, r - m + i)
        row = [
            one if k in (0, i) else row[k - 1 - lo] + q_power(ell, exponent * k) * row[k - lo]
            for k in range(new_lo, min(i, r) + 1)
        ]
        lo = new_lo
    return row[0]


# -- strategies ------------------------------------------------------------------

@st.composite
def monomial_pairs(draw):
    """(mode, m1, m2) with exponents up to 3 ell.  m1 ranges over every
    monomial in generic mode and over the normal monomials a^t b^j c^k
    (t < L, j, k < ell) of a quotient, the only left factors the library
    forms there; m2 is any monomial, d-powers included."""
    ell = draw(st.sampled_from(ELLS))
    mode = AlgebraMode(draw(st.sampled_from(KINDS)), ell)
    top = 3 * ell
    exps = st.integers(0, top)
    m2 = NormalMonomial(draw(st.integers(-top, top)), draw(exps), draw(exps))
    if mode.is_quotient:
        small = st.integers(0, ell - 1)
        m1 = NormalMonomial(draw(st.integers(0, mode.a_period - 1)), draw(small), draw(small))
    else:
        m1 = NormalMonomial(draw(st.integers(-top, top)), draw(exps), draw(exps))
    return mode, m1, m2


def _letters(mono):
    return tuple(g for g, e in mono.word() for _ in range(e))


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_mono_mul_matches_the_letter_fold(case):
    mode, m1, m2 = case
    assert dict(_mono_mul(mode, m1, m2)) == _letter_fold(mode, m1, m2)


def test_mono_mul_matches_the_letter_fold_up_to_degree_4():
    # every monomial is a right factor, d-powers included (the transient d
    # that monomial_element and S create in a quotient); the left factors
    # are the normal monomials of the mode: d-free and reduced in a quotient
    monomials = monomials_of_degree(4)
    for ell in (3, 5):
        for kind in KINDS:
            mode = AlgebraMode(kind, ell)
            lefts = [m for m in monomials if not mode.is_quotient or (m.t >= 0 and _reduce_mono(mode, m) == m)]
            for m1 in lefts:
                for m2 in monomials:
                    got = _mono_mul(mode, m1, m2)
                    assert dict(got) == _letter_fold(mode, m1, m2), (kind, ell, m1, m2)
                    assert [m for m, _ in got] == sorted(m for m, _ in got)
                    if mode.is_quotient and m2.t >= 0:
                        assert len(got) <= 1, (kind, ell, m1, m2)


ROOT = Path(__file__).resolve().parents[1]
ROUND_MEMO = """
import json, sys
sys.path.insert(0, "bench")
import workloads
from slq2 import algebra
for op in workloads.make_ops("hopf-rewrite", 1):
    workloads.execute(op)
print(json.dumps(algebra._mono_mul.cache_info().currsize))
"""


def test_one_hopf_rewrite_round_memoises_as_many_products_as_the_fold():
    # in a fresh interpreter, so the memo starts empty; the letter-by-power
    # fold memoised 8,169 products in this round, and 7,864 once words and
    # coproducts start from their first factor, so no product by the unit
    # monomial enters the memo
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", ROUND_MEMO], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True
    )
    assert json.loads(proc.stdout) == 7864


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_mono_mul_matches_the_reverse_fold(case):
    mode, m1, m2 = case
    expected = zero(mode)
    for mono, c in reverse_fold_normal_form(mode.ell, _letters(m1) + _letters(m2)).items():
        expected = expected + monomial_element(mode, mono, c)
    assert AlgebraElement(mode, dict(_mono_mul(mode, m1, m2))) == expected


def test_cross_powers_follow_the_q_binomial_theorem():
    # a^n d^n = sum_r q^(r^2) (n r)_{q^2} (bc)^r and d^n a^n with q -> q^-1
    for ell in ELLS:
        mode = AlgebraMode.generic(ell)
        for n in range(2 * ell + 2):
            for t, p in ((n, 1), (-n, -1)):
                got = dict(_mono_mul(mode, NormalMonomial(t, 0, 0), NormalMonomial(-t, 0, 0)))
                expected = {
                    NormalMonomial(0, r, r): q_power(ell, p * r * r) * q_binomial(ell, n, r, 2 * p)
                    for r in range(n + 1)
                }
                assert got == {m: c for m, c in expected.items() if not c.is_zero()}


def test_coproduct_powers_match_repeated_products():
    for ell in ELLS:
        for kind in KINDS:
            mode = AlgebraMode(kind, ell)
            a, b, c, d = generators(mode)
            delta = {
                "a": tensor_of(a, a) + tensor_of(b, c),
                "b": tensor_of(a, b) + tensor_of(b, d),
                "c": tensor_of(c, a) + tensor_of(d, c),
                "d": tensor_of(c, b) + tensor_of(d, d),
            }
            for g, dg in delta.items():
                power = tensor_of(unit(mode), unit(mode))
                assert _coproduct_generator_power(mode, g, 0) == power
                for n in range(1, 2 * ell + 2):
                    power = power.multiply(dg)
                    assert _coproduct_generator_power(mode, g, n) == power, (kind, ell, g, n)


def test_q_binomial_rows_match_the_banded_loop():
    for ell in (3, 5, 7, 9):
        for exponent in (-2, 1, 2):
            for m in range(3 * ell):
                row = q_binomial_row(ell, m, exponent)
                assert len(row) == m + 1
                for r in range(-1, m + 2):
                    expected = _banded_q_binomial(ell, m, r, exponent)
                    assert q_binomial(ell, m, r, exponent) == expected
                    if 0 <= r <= m:
                        assert row[r] == expected
