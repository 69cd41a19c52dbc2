"""The shape rule of the pairing, and braiding_map against the unpruned
computation.

For PBW monomials x = a^t b^j c^k and y = a^t' b^j' c^k', R(x, y)
vanishes unless k = 0, j' = 0 and j = k': no c in the first slot, no b in
the second, and the first slot's b-count equals the second slot's c-count.
So ``braiding_map`` pairs each c-free term of B's entries only with the
b-free A-terms whose c-count is its b-count, and ``Pairing`` answers zero
for a pair off that shape without recursing.  The rule implies the older
grade rule: with gamma(a^t b^j c^k) = k - j, gamma(x) + gamma(y) = 0, which
is still checked on its own.  The reference below is the computation
without either rule: the double loop over every pair of nonzero entries
and every pair of their terms, and the pairing recursion that peels every
pair it is given.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from slq2.algebra import (
    GENERATOR_MONOMIALS,
    AlgebraElement,
    UNIT_MONOMIAL,
    AlgebraMode,
    _reduce_mono,
    monomials_of_degree,
    project,
    zero,
)
from slq2.braid import (
    CONVENTIONS,
    STRUCTURAL_CONVENTION,
    _first_letter,
    _generator_table,
    braiding_map,
    get_pairing,
    r_pair,
)
from slq2.corep import Corep, build_v, build_w, tensor, verify_corep
from slq2.cyclo import CyclotomicScalar, q_power
from slq2.hopf import _coproduct_monomial
from slq2.linalg import ScalarMatrix, inverse

KINDS = ("generic", "F", "Fhat")


def _grade(m):
    return m.k - m.j


def _has_shape(m1, m2):
    """R(m1, m2) may be nonzero: m1 c-free, m2 b-free, b-count of m1 = c-count of m2."""
    return m1.k == 0 and m2.j == 0 and m1.j == m2.k


# -- reference: the pairing recursion and braiding loop without the rule ----------

class ReferencePairing:
    def __init__(self, mode, convention):
        self.mode = mode
        self.convention = convention
        self.memo = {}
        self.table = _generator_table(mode.ell)

    def pair(self, x, y):
        total = CyclotomicScalar.zero(self.mode.ell)
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                val = self.pair_monomials(m1, m2)
                if not val.is_zero():
                    total = total + c1 * c2 * val
        return total

    def pair_monomials(self, m1, m2):
        cached = self.memo.get((m1, m2))
        if cached is not None:
            return cached
        value = self._compute(m1, m2)
        self.memo[(m1, m2)] = value
        return value

    def _compute(self, m1, m2):
        ell = self.mode.ell
        zero_s = CyclotomicScalar.zero(ell)
        one = CyclotomicScalar.one(ell)
        if m1 == UNIT_MONOMIAL:
            return one if (m2.j == 0 and m2.k == 0) else zero_s
        if m2 == UNIT_MONOMIAL:
            return one if (m1.j == 0 and m1.k == 0) else zero_s
        if m1.degree == 1 and m2.degree == 1:
            g1, _ = _first_letter(m1)
            g2, _ = _first_letter(m2)
            return self.table.get((g1, g2), zero_s)
        if m2.degree > 1:
            return self._peel_second(m1, m2)
        return self._peel_first(m1, m2)

    def _peel_second(self, m1, m2):
        g, rest = _first_letter(m2)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        reversed_legs = self.convention == STRUCTURAL_CONVENTION
        for (x1, x2), c in _coproduct_monomial(self.mode, m1).terms.items():
            if reversed_legs:
                left = self.pair_monomials(x1, rest)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, gm)
            else:
                left = self.pair_monomials(x1, gm)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, rest)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total

    def _peel_first(self, m1, m2):
        g, rest = _first_letter(m1)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        for (y1, y2), c in _coproduct_monomial(self.mode, m2).terms.items():
            left = self.pair_monomials(gm, y1)
            if left.is_zero():
                continue
            right = self.pair_monomials(rest, y2)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total


_REFERENCES = {}


def reference_pairing(mode, convention):
    key = (mode, convention)
    if key not in _REFERENCES:
        _REFERENCES[key] = ReferencePairing(mode, convention)
    return _REFERENCES[key]


def reference_braiding_map(a, b, convention):
    pairing = reference_pairing(a.mode, convention)
    out = ScalarMatrix.zeros(a.ell, a.dim * b.dim, b.dim * a.dim)
    for i in range(a.dim):
        for r in range(b.dim):
            row = i * b.dim + r
            for s in range(b.dim):
                brs = b.rho[r][s]
                if brs.is_zero():
                    continue
                for j in range(a.dim):
                    aij = a.rho[i][j]
                    if aij.is_zero():
                        continue
                    val = pairing.pair(brs, aij)
                    if not val.is_zero():
                        out.data[row][s * a.dim + j] = val
    return out


# -- coreps in every mode, and one in a non-weight basis ------------------------

def _in_mode(c: Corep, kind: str) -> Corep:
    mode = AlgebraMode(kind, c.ell)
    if mode == c.mode:
        return c
    rho = [[project(mode, e) for e in row] for row in c.rho]
    return Corep(mode, c.dim, c.basis_labels, rho, c.family)


def _conjugate(c: Corep, u: ScalarMatrix) -> Corep:
    """U rho U^-1: the coaction in the basis w_i = sum_k U[i][k] v_k."""
    n, u_inv = range(c.dim), inverse(u).data
    u_rho = [[sum((c.rho[k][j].scale(u.data[i][k]) for k in n), zero(c.mode)) for j in n] for i in n]
    rho = [[sum((u_rho[i][k].scale(u_inv[k][j]) for k in n), zero(c.mode)) for j in n] for i in n]
    return Corep(c.mode, c.dim, [f"w{i}" for i in range(c.dim)], rho, f"{c.family}^U")


def _unitriangular(ell: int, dim: int) -> ScalarMatrix:
    u = ScalarMatrix.identity(ell, dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            u.data[i][j] = q_power(ell, i + 2 * j) + CyclotomicScalar.from_rational(ell, j - i)
    return u


def _factor(spec: str, ell: int, kind: str) -> Corep:
    if spec == "V1xV1":
        base = tensor(build_v(1, ell), build_v(1, ell))
    elif spec == "V1^U":
        base = _conjugate(build_v(1, ell), _unitriangular(ell, 2))
    elif spec == "V2^U":
        base = _conjugate(build_v(2, ell), _unitriangular(ell, 3))
    elif spec.startswith("V"):
        base = build_v(int(spec[1:]), ell)
    else:
        base = build_w(int(spec[1:]), ell)
    return _in_mode(base, kind)


SPECS = ("V0", "V1", "V2", "W1", "V1xV1", "V1^U", "V2^U")
ELLS = (3, 5, 7)


def test_conjugated_coreps_are_coreps_with_mixed_grades():
    for ell in ELLS:
        for spec in ("V1^U", "V2^U"):
            c = _factor(spec, ell, "generic")
            assert verify_corep(c).ok
            assert c.torus_weights() is None
            grades = [{_grade(m) for m in e.terms} for row in c.rho for e in row]
            assert any(len(g) > 1 for g in grades)


@settings(max_examples=40, deadline=None)
@given(
    ell=st.sampled_from(ELLS),
    kind=st.sampled_from(KINDS),
    convention=st.sampled_from(CONVENTIONS),
    left=st.sampled_from(SPECS),
    right=st.sampled_from(SPECS),
)
def test_braiding_map_matches_unpruned_reference(ell, kind, convention, left, right):
    a = _factor(left, ell, kind)
    b = _factor(right, ell, kind)
    assert braiding_map(a, b, convention) == reference_braiding_map(a, b, convention)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_every_spec_and_mode_matches_reference_at_ell_3(kind, convention):
    for left, right in product(SPECS, repeat=2):
        a = _factor(left, 3, kind)
        b = _factor(right, 3, kind)
        assert braiding_map(a, b, convention) == reference_braiding_map(a, b, convention), (left, right)


# -- the lemma: non-cancelling pairs vanish, and are never memoised -----------

def _normal_monomials(mode: AlgebraMode, max_degree: int):
    out = []
    for m in monomials_of_degree(max_degree):
        if mode.is_quotient and (m.t < 0 or _reduce_mono(mode, m) != m):
            continue
        out.append(m)
    return out


@pytest.mark.parametrize("ell", (3, 5))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reference_pairing_vanishes_off_grade(ell, kind, convention):
    mode = AlgebraMode(kind, ell)
    reference = reference_pairing(mode, convention)
    pairing = get_pairing(mode, convention)
    for m1, m2 in product(_normal_monomials(mode, 4), repeat=2):
        value = reference.pair_monomials(m1, m2)
        if _grade(m1) + _grade(m2):
            assert value.is_zero(), (m1, m2)
        assert pairing.pair_monomials(m1, m2) == value


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_memo_holds_only_cancelling_keys(convention):
    for ell in (3, 5):
        for kind in KINDS:
            a = _factor("V2^U", ell, kind)
            b = _factor("W1", ell, kind)
            braiding_map(a, b, convention)
            braiding_map(b, a, convention)
            memo = get_pairing(AlgebraMode(kind, ell), convention)._memo
            assert memo
            assert all(_grade(m1) + _grade(m2) == 0 for m1, m2 in memo)


# -- the shape rule: no c first, no b second, b-count first = c-count second ----

@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reference_pairing_vanishes_off_shape(ell, kind, convention):
    mode = AlgebraMode(kind, ell)
    reference = reference_pairing(mode, convention)
    pairing = get_pairing(mode, convention)
    off_shape = 0
    for m1, m2 in product(_normal_monomials(mode, 4), repeat=2):
        value = reference.pair_monomials(m1, m2)
        if not _has_shape(m1, m2):
            off_shape += 1
            assert value.is_zero(), (m1, m2)
        assert pairing.pair_monomials(m1, m2) == value, (m1, m2)
    assert off_shape


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_memo_holds_only_keys_of_the_shape(convention):
    for ell in ELLS:
        for kind in KINDS:
            for left, right in (("V2^U", "W1"), ("V1xV1", "V2"), ("V1^U", "V1^U")):
                a = _factor(left, ell, kind)
                b = _factor(right, ell, kind)
                braiding_map(a, b, convention)
                braiding_map(b, a, convention)
            memo = get_pairing(AlgebraMode(kind, ell), convention)._memo
            assert memo
            assert all(_has_shape(m1, m2) for m1, m2 in memo), [k for k in memo if not _has_shape(*k)][:3]


@st.composite
def _element_pairs(draw):
    """Two random elements of one mode: up to five normal monomials of degree
    <= 3 each, with coefficients r q^k."""
    mode = AlgebraMode(draw(st.sampled_from(KINDS)), draw(st.sampled_from(ELLS)))
    monos = _normal_monomials(mode, 3)

    def element():
        terms = {}
        for m in draw(st.lists(st.sampled_from(monos), max_size=5, unique=True)):
            r = draw(st.integers(-3, 3).filter(bool))
            terms[m] = q_power(mode.ell, draw(st.integers(0, 2 * mode.ell))) * CyclotomicScalar.from_rational(mode.ell, r)
        return AlgebraElement(mode, terms)

    return element(), element()


@settings(max_examples=60, deadline=None)
@given(pair=_element_pairs(), convention=st.sampled_from(CONVENTIONS))
def test_r_pair_matches_unpruned_reference(pair, convention):
    x, y = pair
    assert r_pair(x, y, convention) == reference_pairing(x.mode, convention).pair(x, y)
