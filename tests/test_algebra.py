from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slq2.algebra import (
    GENERATOR_MONOMIALS,
    MODES,
    AlgebraMode,
    NormalMonomial,
    all_monomials,
    from_word,
    generators,
    is_central,
    monomial_element,
    multiply,
    pbw_coordinates,
    project,
    unit,
)
from slq2.cyclo import CyclotomicScalar, q_power
from slq2.linalg import rank
from slq2.verify import reverse_fold_normal_form

GEN3 = AlgebraMode.generic(3)
F3 = AlgebraMode.quotient_f(3)
FHAT3 = AlgebraMode.quotient_fhat(3)


def el(mode, *word):
    return from_word(mode, [(g, 1) for g in word])


words = st.lists(st.sampled_from("abcd"), min_size=0, max_size=8).map(tuple)


# -- normal forms ---------------------------------------------------------------

def test_determinant_relations():
    assert el(GEN3, "a", "d") == unit(GEN3) + el(GEN3, "b", "c").scale(q_power(3, 1))
    assert el(GEN3, "d", "a") == unit(GEN3) + el(GEN3, "b", "c").scale(q_power(3, -1))


def test_q_commutations():
    a, b, c, d = generators(GEN3)
    q = q_power(3, 1)
    assert multiply(a, b) == multiply(b, a).scale(q)
    assert multiply(a, c) == multiply(c, a).scale(q)
    assert multiply(b, d) == multiply(d, b).scale(q)
    assert multiply(c, d) == multiply(d, c).scale(q)
    assert multiply(b, c) == multiply(c, b)


def test_unit_law():
    x = el(GEN3, "a", "b", "c", "d")
    assert multiply(x, unit(GEN3)) == x
    assert multiply(unit(GEN3), x) == x


def _unit_started_fold(mode, word, coeff):
    """The reference: from_word as a fold that starts from 1 (or coeff)."""
    result = unit(mode) if coeff is None else unit(mode).scale(coeff)
    for g, e in word:
        power = NormalMonomial(*(e * x for x in GENERATOR_MONOMIALS[g]))
        result = multiply(result, monomial_element(mode, power))
    return result


modes = st.builds(AlgebraMode, st.sampled_from(["generic", "F", "Fhat"]), st.sampled_from([3, 5, 7]))
powers = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(min_value=0, max_value=4)), max_size=5)


@given(mode=modes, word=powers, data=st.data())
def test_from_word_equals_the_unit_started_fold(mode, word, data):
    coeff = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=-2, max_value=2),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.integers(min_value=-4, max_value=4).map(lambda k: q_power(mode.ell, k)),
            st.integers(min_value=-4, max_value=4).map(lambda k: 1 + q_power(mode.ell, k)),
        )
    )
    # the first power carries the coefficient; values and key order agree
    got, want = from_word(mode, word, coeff), _unit_started_fold(mode, word, coeff)
    assert list(got.terms.items()) == list(want.terms.items())


def test_rational_coefficients_are_coerced():
    x = el(GEN3, "a", "b")
    half = CyclotomicScalar.from_rational(3, Fraction(1, 2))
    assert x.scale(Fraction(1, 2)) == x.scale(half)
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == x.scale(half)
    assert x.scale(Fraction(0)).is_zero() and x.scale(0).is_zero()
    assert x.scale(-2) == x.scale(CyclotomicScalar.from_rational(3, -2))
    ab = NormalMonomial(1, 1, 0)
    assert monomial_element(GEN3, ab, Fraction(1, 2)) == monomial_element(GEN3, ab, half)


def test_ell_power_determinant():
    # alpha delta = 1 + beta gamma at the root of unity
    alpha = from_word(GEN3, [("a", 3)])
    delta = from_word(GEN3, [("d", 3)])
    beta_gamma = from_word(GEN3, [("b", 3), ("c", 3)])
    assert multiply(alpha, delta) == unit(GEN3) + beta_gamma


def test_quotient_relations():
    assert from_word(F3, [("b", 3)]).is_zero()
    assert from_word(F3, [("c", 3)]).is_zero()
    assert from_word(F3, [("a", 3)]) == unit(F3)
    assert from_word(F3, [("d", 3)]) == unit(F3)
    assert multiply(from_word(F3, [("a", 3)]), from_word(F3, [("d", 3)])) == unit(F3)
    # Fhat only folds at 2 ell
    assert from_word(FHAT3, [("a", 3)]) == monomial_element(FHAT3, NormalMonomial(3, 0, 0))
    assert from_word(FHAT3, [("a", 6)]) == unit(FHAT3)


def test_quotient_monomial_space_sizes():
    assert len(all_monomials(F3)) == 27
    assert len(all_monomials(FHAT3)) == 54
    assert len(all_monomials(AlgebraMode.quotient_f(5))) == 125


def test_d_elimination_in_quotient():
    # in the quotient, d = a^(l-1) + q a^(l-1) b c
    d = from_word(F3, [("d", 1)])
    expected = monomial_element(F3, NormalMonomial(2, 0, 0)) + monomial_element(
        F3, NormalMonomial(2, 1, 1), q_power(3, 1)
    )
    assert d == expected


@given(word=words)
def test_engine_matches_independent_left_fold(word):
    engine = from_word(GEN3, [(g, 1) for g in word]).terms
    assert engine == reverse_fold_normal_form(3, word)


@given(word=words, data=st.data())
def test_reduction_order_independent(word, data):
    # normalise under a random association order and compare with the engine
    def bracket(w):
        if len(w) <= 1:
            return from_word(GEN3, [(g, 1) for g in w])
        cut = data.draw(st.integers(min_value=1, max_value=len(w) - 1))
        return multiply(bracket(w[:cut]), bracket(w[cut:]))

    assert bracket(word) == from_word(GEN3, [(g, 1) for g in word])


@given(word=words)
def test_projection_is_multiplicative(word):
    x = from_word(GEN3, [(g, 1) for g in word])
    a = el(GEN3, "a", "b")
    assert project(F3, multiply(x, a)) == multiply(project(F3, x), project(F3, a))
    assert project(FHAT3, multiply(a, x)) == multiply(project(FHAT3, a), project(FHAT3, x))


def test_projection_examples():
    x = from_word(GEN3, [("a", 3)]) + el(GEN3, "b")
    assert project(F3, x) == unit(F3) + el(F3, "b")
    y = multiply(from_word(GEN3, [("c", 3)]), el(GEN3, "a", "b"))
    assert project(F3, y).is_zero()
    assert project(FHAT3, from_word(GEN3, [("a", 3)])) == monomial_element(FHAT3, NormalMonomial(3, 0, 0))


def test_projection_direction_enforced():
    with pytest.raises(ValueError):
        project(GEN3, unit(F3))
    with pytest.raises(ValueError):
        project(AlgebraMode.quotient_f(5), unit(GEN3))


@pytest.mark.parametrize("mode", [GEN3, F3, FHAT3])
def test_the_product_operator_is_multiply(mode):
    a, b, c, d = generators(mode)
    x, y = a + b.scale(q_power(3, 1)), c + d
    assert x * y == multiply(x, y) and y * x == multiply(y, x)
    assert x * y != y * x


def test_quotients_follow_the_order_of_a():
    # generic -> Fhat -> F: a has no order, then 2 ell, then ell
    chain = [GEN3, FHAT3, F3]
    for i, x in enumerate(chain):
        for j, y in enumerate(chain):
            assert x.is_quotient_of(y) == (i >= j)
    assert not F3.is_quotient_of(AlgebraMode.quotient_fhat(5))
    assert MODES == ("generic", "F", "Fhat")
    with pytest.raises(ValueError, match=r"^unknown mode 'x' \(use generic, F, or Fhat\)$"):
        AlgebraMode("x", 3)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(unit(GEN3), unit(F3))


def test_operands_of_other_types_raise_type_error():
    # the operators decline a type they do not take, so Python raises
    # TypeError rather than failing on an attribute of the operand
    x = el(GEN3, "a", "b")
    for bad in (
        lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
        lambda: x * "x", lambda: "x" * x, lambda: x * 2.0,
    ):
        with pytest.raises(TypeError):
            bad()
    q = q_power(3, 1)
    assert x * 2 == 2 * x == x.scale(CyclotomicScalar.from_rational(3, 2))
    assert x * Fraction(1, 2) == x.scale(Fraction(1, 2))
    assert x * q == q * x == x.scale(q)


# -- centrality ------------------------------------------------------------------

def test_central_elements():
    assert is_central(from_word(GEN3, [("a", 3)]))
    assert is_central(unit(GEN3) + from_word(GEN3, [("b", 3), ("c", 3)]))
    assert not is_central(el(GEN3, "a"))
    assert not is_central(el(GEN3, "b"))


# -- coordinates -------------------------------------------------------------------

def test_pbw_coordinates_generators():
    a, b, c, d = generators(GEN3)
    m, columns = pbw_coordinates([a, b, c, d])
    assert rank(m) == 4
    assert len(columns) == 4


def test_pbw_coordinates_rank2():
    a, b, _, _ = generators(GEN3)
    m, _ = pbw_coordinates([a + b, a - b])
    assert rank(m) == 2
