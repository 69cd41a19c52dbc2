import copy
import math
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slq2.cyclo import (
    MAX_ELL,
    CyclotomicScalar,
    _Field,
    cyclotomic_polynomial,
    q_binomial,
    q_half_power,
    q_power,
)


def scalars(ell):
    deg = len(cyclotomic_polynomial(ell)) - 1
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicScalar.from_coeff_list(ell, cs)
    )


# -- independent oracle: Gaussian binomial as an integer polynomial in p ------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    num = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] // den[-1]
        assert c * den[-1] == num[shift + len(den) - 1]
        quo[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    assert all(x == 0 for x in num)
    return quo


def gaussian_binomial_poly(m, r):
    """(m r)_p in Z[p] via exact division of p-factorials."""
    def p_int(k):
        return [1] * k if k else [1]

    def p_fact(k):
        out = [1]
        for i in range(2, k + 1):
            out = _poly_mul(out, p_int(i))
        return out

    num = p_fact(m)
    num_den = _poly_mul(p_fact(r), p_fact(m - r))
    return _poly_div_exact(num, num_den)


def eval_at_q_power(ell, poly, exponent):
    total = CyclotomicScalar.zero(ell)
    for k, coeff in enumerate(poly):
        if coeff:
            total = total + q_power(ell, exponent * k) * coeff
    return total


# -- examples ------------------------------------------------------------------

def test_cyclotomic_relation_ell3():
    lam = CyclotomicScalar.root(3)
    assert lam + lam**2 == -1
    assert lam * lam**2 == 1


def test_inverse_of_root_ell5():
    lam = CyclotomicScalar.root(5)
    assert lam.inverse() == lam**4


def test_q_power_wraps():
    assert q_power(3, -2) == CyclotomicScalar.root(3)
    assert q_power(3, 3) == 1


def test_half_powers():
    assert q_half_power(3, 2) == CyclotomicScalar.root(3)
    assert q_half_power(3, 3) == -1  # s^3 = (-lam^2)^3 = -1
    lam = CyclotomicScalar.root(3)
    assert q_half_power(3, 1) == -lam**2


@pytest.mark.parametrize("ell", [3, 5, 9])
def test_half_power_squares_to_q(ell):
    for j in range(-4, 9):
        assert q_half_power(ell, j) ** 2 == q_power(ell, j)
    # order exactly 2 ell
    s = q_half_power(ell, 1)
    assert s ** (2 * ell) == 1
    assert s**ell == -1


@pytest.mark.parametrize("ell", [3, 5, 9])
def test_root_is_primitive(ell):
    lam = CyclotomicScalar.root(ell)
    phi = cyclotomic_polynomial(ell)
    value = CyclotomicScalar.zero(ell)
    for k, c in enumerate(phi):
        value = value + lam**k * c
    assert value.is_zero()
    for k in range(1, ell):
        assert lam**k != 1
    assert lam**ell == 1


def test_qbinomial_examples():
    assert q_binomial(3, 3, 1, -2).is_zero()  # 1 + q + q^2
    assert q_binomial(3, 4, 1, -2) == 1
    for m in range(8):
        assert q_binomial(5, m, 0, -2) == 1
    assert q_binomial(3, 2, 5, -2).is_zero()  # r > m convention


def test_qbinomial_large_m_needs_no_recursion():
    # q-Lucas: p = q^-2 has order 3 at ell = 3, so (1200 600)_p = (0 0)_p * C(400, 200)
    assert q_binomial(3, 1200, 600) == math.comb(400, 200)


@pytest.mark.parametrize("ell", [3, 5])
def test_qbinomial_against_polynomial_oracle(ell):
    for m in range(0, 2 * ell + 2):
        for r in range(m + 1):
            expected = eval_at_q_power(ell, gaussian_binomial_poly(m, r), -2)
            assert q_binomial(ell, m, r, -2) == expected


def test_mismatched_ell_rejected():
    with pytest.raises(ValueError):
        CyclotomicScalar.root(3) + CyclotomicScalar.root(5)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CyclotomicScalar.zero(3).inverse()


def test_even_or_small_ell_rejected():
    for bad in (1, 2, 4, 6):
        with pytest.raises(ValueError):
            CyclotomicScalar.root(bad)


def test_oversized_ell_rejected_before_any_table_is_built():
    assert CyclotomicScalar.root(MAX_ELL) ** MAX_ELL == 1
    for bad in (MAX_ELL + 2, 100001):
        with pytest.raises(ValueError, match="at most"):
            q_power(bad, 1)


def test_a_field_at_ell_499_holds_at_most_5_mb():
    """The field keeps the fold rows and the powers of s, and no table of
    Galois images.  It is built directly: clearing the cache of ``_field``
    would split live scalars across two field objects."""
    cyclotomic_polynomial(499)
    tracemalloc.start()
    try:
        field = _Field(499)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert field.deg == 498
    assert held <= 5_000_000, f"a fresh field at ell 499 holds {held / 1e6:.2f} MB"


# -- field axioms --------------------------------------------------------------

@pytest.mark.parametrize("ell", [3, 5, 9])
@given(data=st.data())
def test_field_axioms(ell, data):
    x = data.draw(scalars(ell))
    y = data.draw(scalars(ell))
    z = data.draw(scalars(ell))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert (y / x) * x == y


@given(data=st.data())
def test_pow_matches_repeated_product(data):
    x = data.draw(scalars(5))
    acc = CyclotomicScalar.one(5)
    for k in range(4):
        assert x**k == acc
        acc = acc * x


# -- value semantics -----------------------------------------------------------

def test_rational_scalars_hash_as_their_rational():
    assert hash(CyclotomicScalar.one(3)) == hash(1)
    assert {1: "x"}[CyclotomicScalar.one(3)] == "x"
    half = CyclotomicScalar.from_rational(5, Fraction(-3, 2))
    assert half == Fraction(-3, 2) and hash(half) == hash(Fraction(-3, 2))
    assert {Fraction(-3, 2): "y"}[half] == "y"
    assert hash(CyclotomicScalar.zero(9)) == hash(0)
    lam = CyclotomicScalar.root(7)
    assert hash(lam * lam.inverse()) == hash(1)
    assert hash(lam**3 + lam) == hash(lam * (lam**2 + 1))


def test_scalars_are_immutable_values():
    x = CyclotomicScalar.from_coeff_list(5, [1, Fraction(1, 3), 0, -2])
    with pytest.raises(AttributeError):
        x.num = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        x.den = 1
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x and str(copy.copy(x)) == str(x)


def test_reflected_subtraction_of_an_unknown_type_names_the_operands_in_order():
    q = CyclotomicScalar.root(5)
    with pytest.raises(TypeError, match="'str' and 'CyclotomicScalar'"):
        "x" - q
    assert 3 - q == -(q - 3) and Fraction(1, 2) - q == -(q - Fraction(1, 2))


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_reflected_division_is_the_inverse_times_the_numerator(ell):
    q = CyclotomicScalar.root(ell)
    for x in (q, q + 2, 1 - 3 * q * q):
        assert 2 / x == x.inverse() * 2
        assert Fraction(1, 2) / x == x.inverse() * Fraction(1, 2)
        assert (2 / x) * x == 2
