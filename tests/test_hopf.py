import inspect
import sys
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from slq2.algebra import (
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    all_monomials,
    from_word,
    generator,
    generators,
    monomial_element,
    monomials_of_degree,
    multiply,
    unit,
    zero,
)
from slq2.cyclo import CyclotomicScalar, q_binomial, q_power
from slq2 import hopf
from slq2.hopf import (
    FRepresentation,
    TensorElement,
    _coproduct_generator_power,
    _coproduct_monomial,
    _leg_products,
    antipode,
    character,
    characters,
    check_hopf_axioms,
    coinvariance_check,
    convolve,
    coproduct,
    counit,
    evaluate_character,
    restrict_character,
    tensor_of,
)
from slq2.linalg import SparseMatrix

from dense_reference import dense_identity, dense_kron, dense_product, is_zero_matrix
from hopf_reference import antipode_sides

GEN3 = AlgebraMode.generic(3)
F3 = AlgebraMode.quotient_f(3)
FHAT3 = AlgebraMode.quotient_fhat(3)


def el(mode, *word):
    return from_word(mode, [(g, 1) for g in word])


small_words = st.lists(st.sampled_from("abcd"), min_size=0, max_size=3).map(tuple)


# -- coproduct, counit, antipode ------------------------------------------------

def _unit_started_coproduct(mode, mono):
    """The reference: Delta(mono) as a legwise fold that starts from Delta(1) = 1 (x) 1."""
    result = _coproduct_generator_power(mode, "a", 0)
    for g, e in mono.word():
        result = result.multiply(_coproduct_generator_power(mode, g, e))
    return result


@pytest.mark.parametrize(
    "mode", [GEN3, F3, FHAT3, AlgebraMode.generic(5), AlgebraMode.quotient_f(5)], ids=lambda m: f"{m.kind}-{m.ell}"
)
def test_coproduct_monomial_equals_the_unit_started_fold(mode):
    monos = all_monomials(mode) if mode.is_quotient else monomials_of_degree(4)
    assert NormalMonomial(0, 0, 0) in monos  # Delta(1) = 1 (x) 1 itself
    for mono in monos:
        got, want = _coproduct_monomial(mode, mono), _unit_started_coproduct(mode, mono)
        assert list(got.terms.items()) == list(want.terms.items()), mono


def test_coproduct_generators():
    a, b, c, d = generators(GEN3)
    assert coproduct(a) == tensor_of(a, a) + tensor_of(b, c)
    assert coproduct(b) == tensor_of(a, b) + tensor_of(b, d)
    assert coproduct(c) == tensor_of(c, a) + tensor_of(d, c)
    assert coproduct(d) == tensor_of(c, b) + tensor_of(d, d)
    assert coproduct(unit(GEN3)) == tensor_of(unit(GEN3), unit(GEN3))


def test_coproduct_of_a_squared():
    a, b, c, _ = generators(GEN3)
    a2 = multiply(a, a)
    expected = (
        tensor_of(a2, a2)
        + tensor_of(multiply(a, b), multiply(a, c)).scale(CyclotomicScalar.one(3) + q_power(3, -2))
        + tensor_of(multiply(b, b), multiply(c, c))
    )
    assert coproduct(a2) == expected


def test_counit_values():
    a, b, c, d = generators(GEN3)
    assert counit(a) == 1 and counit(d) == 1
    assert counit(b).is_zero() and counit(c).is_zero()
    assert counit(el(GEN3, "a", "b")).is_zero()
    assert counit(el(GEN3, "a", "d")) == 1


def test_antipode_values():
    a, b, c, d = generators(GEN3)
    assert antipode(a) == d
    assert antipode(d) == a
    assert antipode(b) == b.scale(-q_power(3, -1))
    assert antipode(c) == c.scale(-q_power(3, 1))
    # anti-homomorphism on a product
    assert antipode(multiply(a, b)) == multiply(el(GEN3, "b"), el(GEN3, "d")).scale(-q_power(3, -1))


@given(w1=small_words, w2=small_words)
def test_coproduct_multiplicative(w1, w2):
    x = from_word(GEN3, [(g, 1) for g in w1])
    y = from_word(GEN3, [(g, 1) for g in w2])
    assert coproduct(multiply(x, y)) == coproduct(x).multiply(coproduct(y))
    assert counit(multiply(x, y)) == counit(x) * counit(y)
    assert antipode(multiply(x, y)) == multiply(antipode(y), antipode(x))


@pytest.mark.parametrize("mono", monomials_of_degree(3))
def test_hopf_axioms_low_degree(mono):
    rep = check_hopf_axioms(monomial_element(GEN3, mono))
    assert rep.all_ok


def test_hopf_axioms_in_quotients():
    for mode in (F3, FHAT3):
        for word in [("a",), ("b",), ("a", "b", "c"), ("d", "d")]:
            assert check_hopf_axioms(el(mode, *word)).all_ok


def test_corrected_closed_coproduct_formula():
    """Delta(a^(m-h) c^h) = sum over r and s from 0 of
    q^(-r(h-s)) (m-h r)_{q^-2} (h s)_{q^-2}
    a^(m-h-r) b^r c^(h-s) d^s (x) a^(m-r-s) c^(r+s);
    the printed form of this formula starts the sums at 1, which would drop
    the counit term, so the homomorphic coproduct is the ground truth."""
    ell = 3
    mode = AlgebraMode.generic(ell)
    for m in range(5):
        for h in range(m + 1):
            mono = NormalMonomial(m - h, 0, h)
            expected = TensorElement(mode, {})
            for r in range(m - h + 1):
                for s in range(h + 1):
                    coeff = (
                        q_power(ell, -r * (h - s))
                        * q_binomial(ell, m - h, r, -2)
                        * q_binomial(ell, h, s, -2)
                    )
                    left = from_word(mode, [("a", m - h - r), ("b", r), ("c", h - s), ("d", s)])
                    right = from_word(mode, [("a", m - r - s), ("c", r + s)])
                    expected = expected + tensor_of(left, right).scale(coeff)
            assert coproduct(monomial_element(mode, mono)) == expected


# -- characters -------------------------------------------------------------------

def test_character_values():
    chi1 = character(F3, 1)
    a_el = el(F3, "a")
    d_el = el(F3, "d")
    assert evaluate_character(chi1, a_el) == q_power(3, 1)
    assert evaluate_character(chi1, d_el) == q_power(3, -1)
    assert evaluate_character(chi1, el(F3, "b")).is_zero()
    # the top character is the counit
    chi3 = character(F3, 3)
    for mono in list(all_monomials(F3))[:9]:
        x = monomial_element(F3, mono)
        assert evaluate_character(chi3, x) == counit(x)


def test_character_multiplicative():
    chi = character(F3, 2)
    x = el(F3, "a", "a", "d")
    y = el(F3, "d", "a")
    assert evaluate_character(chi, multiply(x, y)) == evaluate_character(chi, x) * evaluate_character(chi, y)


def test_character_convolution_cyclic():
    assert convolve(character(F3, 1), character(F3, 2)).index == 3
    assert convolve(character(F3, 2), character(F3, 2)).index == 1
    for i in range(1, 7):
        for j in range(1, 7):
            assert convolve(character(FHAT3, i), character(FHAT3, j)).index == (i + j - 1) % 6 + 1


def test_character_restriction():
    assert len(characters(FHAT3)) == 6
    restricted = [restrict_character(chi).index for chi in characters(FHAT3)]
    assert sorted(set(restricted)) == [1, 2, 3]
    assert restricted.count(3) == 2  # kernel of order two
    with pytest.raises(ValueError):
        restrict_character(character(F3, 1))


def test_character_requires_quotient():
    with pytest.raises(ValueError):
        character(GEN3, 1)


# -- the faithful representation ---------------------------------------------------

def test_representation_generator_images():
    rep = FRepresentation(3)
    a_img = rep.of(el(F3, "a"))
    assert a_img.dense() == dense_kron(dense_kron(rep.j_matrix.dense(), dense_identity(3, 3)), dense_identity(3, 3))
    assert not any(rep.of(from_word(F3, [("b", 3)])).data)
    # nilpotent shift cubes to zero
    n = rep.n_matrix.dense()
    n3 = dense_product(dense_product(n, n), n)
    assert is_zero_matrix(n3)


@settings(max_examples=30, deadline=None)
@given(small_words, small_words)
@example(("a", "b"), ("d", "c", "a"))
def test_representation_is_homomorphism_on_samples(x_word, y_word):
    """On products of words (sums of several monomials in normal form), with
    the sparse product checked against the dense reference product."""
    rep = FRepresentation(3)
    x, y = el(F3, *x_word), el(F3, *y_word)
    xy = rep.of(multiply(x, y))
    assert xy == rep.of(x) * rep.of(y)
    assert xy.dense() == dense_product(rep.of(x).dense(), rep.of(y).dense())


@pytest.mark.parametrize("ell", [3, 5])
def test_representation_closed_form_matches_the_dense_kronecker_products(ell):
    """``of`` reads rho(a^t b^j c^k) off in closed form; on every monomial of
    F it equals J^t Q^(j+k) x N^j x N^k, formed by the dense reference."""
    rep = FRepresentation(ell)
    mode = AlgebraMode.quotient_f(ell)

    def power(m, k):
        return reduce(dense_product, [m.dense()] * k, dense_identity(ell, ell))

    for mono in all_monomials(mode):
        left = dense_product(power(rep.j_matrix, mono.t), power(rep.q_matrix, mono.j + mono.k))
        expected = dense_kron(dense_kron(left, power(rep.n_matrix, mono.j)), power(rep.n_matrix, mono.k))
        assert rep.of(monomial_element(mode, mono)) == SparseMatrix.from_dense(expected), mono


@pytest.mark.parametrize("ell", [3, 5])
def test_representation_images_of_the_monomials_have_disjoint_supports(ell):
    """``of`` writes each cell once: in every row, the images of the
    monomials of F store entries in disjoint columns, so the image of their
    sum stores as many entries as the images together, and no image stores
    a zero."""
    rep = FRepresentation(ell)
    mode = AlgebraMode.quotient_f(ell)
    monos = list(all_monomials(mode))
    images = [rep.of(monomial_element(mode, mono)) for mono in monos]
    assert all(x for image in images for row in image.data for x in row.values())
    total = sum((monomial_element(mode, mono) for mono in monos), zero(mode))
    assert len(total.terms) == len(monos) == ell**3
    for i, row in enumerate(rep.of(total).data):
        assert len(row) == sum(len(image.data[i]) for image in images), i


# -- coinvariance --------------------------------------------------------------------

def test_coinvariance_examples():
    alpha = from_word(GEN3, [("a", 3)])
    assert coinvariance_check(alpha, F3)
    assert not coinvariance_check(el(GEN3, "a"), F3)
    even = multiply(alpha, from_word(GEN3, [("b", 3)]))
    assert coinvariance_check(even, FHAT3)
    assert not coinvariance_check(alpha, FHAT3)


def test_coproduct_of_high_power_needs_no_deep_recursion():
    mode = AlgebraMode.generic(7)
    n = 150
    x = from_word(mode, [("c", n)])
    limit = sys.getrecursionlimit()
    # far fewer frames than the exponent: a recursion per power fails here
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        dx = coproduct(x)
    finally:
        sys.setrecursionlimit(limit)
    # both counit legs give x back: (eps (x) id) Delta = id = (id (x) eps) Delta
    for leg in (0, 1):
        back = {}
        for key, c in dx.terms.items():
            eps = counit(monomial_element(mode, key[leg]))
            if not eps.is_zero():
                other = key[1 - leg]
                back[other] = back.get(other, CyclotomicScalar.zero(7)) + c * eps
        assert {m: c for m, c in back.items() if not c.is_zero()} == x.terms


@pytest.mark.parametrize("mode", [GEN3, FHAT3], ids=lambda m: m.kind)
def test_elements_and_tensors_with_equal_terms_differ(mode):
    # the dataclass equality compares fields only between values of one class
    x = el(mode, "a", "b")
    for terms in ({}, x.terms, coproduct(x).terms):
        assert AlgebraElement(mode, terms) != TensorElement(mode, terms)
        assert TensorElement(mode, terms) != AlgebraElement(mode, terms)
        assert TensorElement(mode, terms) == TensorElement(mode, dict(terms))
    assert x != x.terms and x.terms != x
    assert coproduct(x) != coproduct(x).terms


def test_tensors_of_different_modes_do_not_combine():
    generic, quotient = coproduct(el(GEN3, "a")), coproduct(el(F3, "a"))
    other_ell = coproduct(el(AlgebraMode.generic(5), "a"))
    for left, right in ((generic, quotient), (quotient, generic), (generic, other_ell)):
        with pytest.raises(ValueError, match="mode mismatch"):
            left + right
        with pytest.raises(ValueError, match="mode mismatch"):
            left.multiply(right)
    with pytest.raises(ValueError, match="mode mismatch"):
        tensor_of(el(GEN3, "a"), el(F3, "a"))


def test_tensor_sums_of_other_types_raise_type_error():
    t, x = coproduct(el(GEN3, "a")), el(GEN3, "a")
    for bad in (lambda: t + 1, lambda: 1 + t, lambda: t + x, lambda: x + t):
        with pytest.raises(TypeError):
            bad()


def test_tensor_scale_accepts_rationals():
    x = tensor_of(el(GEN3, "a"), el(GEN3, "b"))
    assert x.scale(2) == x.scale(CyclotomicScalar.from_rational(3, 2))
    assert x.scale(Fraction(1, 2)) == x.scale(CyclotomicScalar.from_rational(3, Fraction(1, 2)))
    assert x.scale(0).is_zero()


# -- prefix-shared leg products and the antipode sides ---------------------------
#
# Each is compared with a copy of the formula it replaced, the summed antipode
# sides of ``hopf_reference`` with element products; the mutation tests show
# that the axiom checks still see a wrong antipode or coproduct.

HOPF_MODES = [AlgebraMode(kind, ell) for kind in ("generic", "F", "Fhat") for ell in (3, 5, 7)]


def _reference_leg_products(coeff, left, right):
    # the per-choice loop: every (left, right) choice multiplied from
    # scratch and accumulated in its own dict, a zero sum dropped at once
    out = {}
    for (m1, u), (m2, v) in product(left, right):
        c = coeff * u * v
        key = (m1, m2)
        total = out.pop(key) + c if key in out else c
        if total:
            out[key] = total
    return out


def _reference_antipode(x):
    # one element sum per monomial of x
    out = zero(x.mode)
    for mono, c in x.terms.items():
        coeff = c * q_power(x.ell, mono.k - mono.j)
        if (mono.j + mono.k) % 2:
            coeff = -coeff
        out = out + monomial_element(x.mode, NormalMonomial(-mono.t, mono.j, mono.k), coeff)
    return out


def _reference_antipode_sides(t):
    # element products S(e1) e2 and e1 S(e2), scaled by each coefficient
    left, right = zero(t.mode), zero(t.mode)
    for (m1, m2), c in t.terms.items():
        e1, e2 = monomial_element(t.mode, m1), monomial_element(t.mode, m2)
        left = left + multiply(_reference_antipode(e1), e2).scale(c)
        right = right + multiply(e1, _reference_antipode(e2)).scale(c)
    return left.terms, right.terms


@st.composite
def scalars(draw, ell):
    """A nonzero sum of up to three terms n/m q^k."""
    total = CyclotomicScalar.zero(ell)
    for _ in range(draw(st.integers(1, 3))):
        n = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        total = total + CyclotomicScalar.from_rational(ell, n) * q_power(ell, draw(st.integers(0, ell - 1)))
    return total if total else CyclotomicScalar.one(ell)


small_monomials = st.builds(NormalMonomial, st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def elements(draw, mode, max_terms=3):
    """Up to max_terms monomials of degree <= 9 with random scalars, each
    brought into the mode's normal form by monomial_element."""
    x = zero(mode)
    for mono in draw(st.lists(small_monomials, max_size=max_terms, unique=True)):
        x = x + monomial_element(mode, mono, draw(scalars(mode.ell)))
    return x


@given(st.data())
def test_add_leg_products_matches_the_per_choice_loop(data):
    ell = data.draw(st.sampled_from((3, 5, 7)))
    coeff = data.draw(scalars(ell))
    leg = st.lists(st.tuples(small_monomials, scalars(ell)), max_size=3, unique_by=lambda term: term[0])
    left, right = data.draw(leg), data.draw(leg)
    got = list(_leg_products(coeff, left, right))
    expected = _reference_leg_products(coeff, left, right)
    assert dict(got) == expected
    assert [key for key, _ in got] == list(expected)


@given(st.data())
def test_antipode_matches_the_element_sum(data):
    mode = data.draw(st.sampled_from(HOPF_MODES))
    x = data.draw(elements(mode))
    assert antipode(x) == _reference_antipode(x)


@given(st.data())
def test_antipode_sides_match_the_element_products(data):
    # on arbitrary tensors, not only coproducts, so the sides are
    # not just eps(x) 1
    mode = data.draw(st.sampled_from(HOPF_MODES))
    t = tensor_of(data.draw(elements(mode, 2)), data.draw(elements(mode, 2)))
    t = t + tensor_of(data.draw(elements(mode, 2)), data.draw(elements(mode, 2)))
    assert antipode_sides(t) == _reference_antipode_sides(t)


@settings(max_examples=15)
@given(st.data())
def test_antipode_check_matches_the_element_products(data):
    mode = data.draw(st.sampled_from(HOPF_MODES))
    x = data.draw(elements(mode, 2))
    report = check_hopf_axioms(x)
    left, right = _reference_antipode_sides(coproduct(x))
    target = unit(mode).scale(counit(x)).terms
    assert report.antipodal == (left == target and right == target)
    assert report.all_ok


@pytest.mark.parametrize("mutation", ["sign", "power"])
def test_a_wrong_antipode_formula_fails_the_antipode_check(monkeypatch, mutation):
    # sign: S(a^t b^j c^k) without (-1)^(j+k); power: q^(j-k) for q^(k-j)
    correct = hopf._antipode_monomial

    def mutated(mode, mono):
        if mutation == "sign":
            return [(n, v if (mono.j + mono.k) % 2 == 0 else -v) for n, v in correct(mode, mono)]
        return [(n, v * q_power(mode.ell, 2 * (mono.j - mono.k))) for n, v in correct(mode, mono)]

    monkeypatch.setattr(hopf, "_antipode_monomial", mutated)
    for mode in (m for m in HOPF_MODES if m.ell < 7):
        for g in generators(mode):
            report = check_hopf_axioms(g)
            assert not report.antipodal, (mode, g)
            assert report.coassociative and report.counital
        # antipode reads the same per-monomial S
        b = generator(mode, "b")
        assert antipode(b) != b.scale(-q_power(mode.ell, -1))


def test_a_wrong_coproduct_coefficient_fails_coassociativity(monkeypatch):
    # Delta(a)^n doubled; Delta(d) = c (x) b + d (x) d does not read it, so
    # the generic d stays coassociative
    correct = hopf._coproduct_generator_power

    def mutated(mode, g, n):
        power = correct(mode, g, n)
        return power.scale(2) if g == "a" and n else power

    monkeypatch.setattr(hopf, "_coproduct_generator_power", mutated)
    # past the coproduct memo, so that no mutated value is stored in it
    monkeypatch.setattr(hopf, "_coproduct_monomial", hopf._coproduct_monomial.__wrapped__)
    for mode in (m for m in HOPF_MODES if m.ell < 7):
        for g in "abc":
            assert not check_hopf_axioms(generator(mode, g)).coassociative, (mode, g)
