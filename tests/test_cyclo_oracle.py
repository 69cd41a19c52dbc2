"""Differential test of the scalar core against sympy's polynomial
arithmetic over QQ modulo the cyclotomic polynomial, and of the display
form against the parser."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from slq2.cyclo import CyclotomicScalar, _field, _fold, q_half_power, times_half_power
from slq2.parsing import parse_scalar

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
# every shape of Galois group (Z/ell)^*: cyclic of prime order (3, 5, 7),
# cyclic of prime-power order (9, and 25 with deg Phi = 20), and not
# cyclic (15, 21: C2 x C4, C2 x C6)
ELLS = [3, 5, 7, 9, 15, 21, 25]

# longer than deg Phi_ell, so construction reduces modulo Phi_ell as well
coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=24
)


def phi(ell):
    return sympy.Poly(sympy.cyclotomic_poly(ell, X), X, domain="QQ")


def to_poly(coeffs):
    terms = [sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(coeffs)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), X, domain="QQ")


def as_coeffs(poly, ell):
    """Coefficients of a polynomial reduced modulo Phi_ell, constant term first."""
    low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.rem(phi(ell)).all_coeffs())]
    deg = phi(ell).degree()
    return low_first + [Fraction(0)] * (deg - len(low_first))


def coeffs_of(x):
    return [Fraction(n, x.den) for n in x.num]


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=40, deadline=None)
@given(cx=coeff_lists, cy=coeff_lists, k=st.integers(min_value=1, max_value=5))
def test_arithmetic_matches_sympy(ell, cx, cy, k):
    x = CyclotomicScalar.from_coeff_list(ell, cx)
    y = CyclotomicScalar.from_coeff_list(ell, cy)
    px, py = to_poly(cx), to_poly(cy)
    assert coeffs_of(x) == as_coeffs(px, ell)
    assert coeffs_of(x * y) == as_coeffs(px * py, ell)
    assert coeffs_of(x + y) == as_coeffs(px + py, ell)
    assert coeffs_of(x - y) == as_coeffs(px - py, ell)
    assert coeffs_of(x**k) == as_coeffs(px**k, ell)
    if not x.is_zero():
        inv = sympy.invert(px.rem(phi(ell)), phi(ell))
        assert coeffs_of(x.inverse()) == as_coeffs(inv, ell)
        assert coeffs_of(x**-k) == as_coeffs(inv**k, ell)
    assert parse_scalar(str(x), ell) == x
    assert parse_scalar(str(x * y), ell) == x * y


# -- the product x y s^j and the unit exponent in the unit slot ---------------

def half_power_poly(ell, j):
    """s^j for s = -x^((ell+1)/2), the library's square root of q, as a
    polynomial (s has order 2 ell, so j is taken mod 2 ell first)."""
    return sympy.Poly((-(X ** ((ell + 1) // 2))) ** (j % (2 * ell)), X, domain="QQ")


@lru_cache(maxsize=None)
def half_power_coeffs(ell):
    """The coefficients of s^0, ..., s^(2 ell - 1) reduced modulo Phi_ell."""
    return tuple(tuple(as_coeffs(half_power_poly(ell, j), ell)) for j in range(2 * ell))


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=40, deadline=None)
@given(cx=coeff_lists, cy=coeff_lists, j=st.data())
def test_times_half_power_matches_sympy(ell, cx, cy, j):
    j = j.draw(st.integers(min_value=-4 * ell, max_value=4 * ell))
    x = CyclotomicScalar.from_coeff_list(ell, cx)
    y = CyclotomicScalar.from_coeff_list(ell, cy)
    fused = times_half_power(x, y, j)
    assert coeffs_of(fused) == as_coeffs(to_poly(cx) * to_poly(cy) * half_power_poly(ell, j), ell)
    # the canonical form of the same element as the two-step product
    product_ = x * y * q_half_power(ell, j)
    assert (fused.num, fused.den) == (product_.num, product_.den)
    zero = CyclotomicScalar.zero(ell)
    assert times_half_power(zero, y, j).is_zero() and times_half_power(x, zero, j).is_zero()
    with pytest.raises(ValueError, match="mixed"):
        times_half_power(x, CyclotomicScalar.one(7 if ell == 5 else 5), j)


@pytest.mark.parametrize("ell", ELLS)
def test_unit_exponent_round_trips_every_half_power(ell):
    for j, coeffs in enumerate(half_power_coeffs(ell)):
        assert CyclotomicScalar.from_coeff_list(ell, coeffs)._unit == j
        assert q_half_power(ell, j)._unit == j
    for value in (0, Fraction(1, 2), Fraction(-1, 2), 2, -2):
        assert CyclotomicScalar.from_rational(ell, value)._unit is None
    # 1 - q has absolute value 2 sin(pi / ell) != 1, so it is no root of unity
    assert CyclotomicScalar.from_coeff_list(ell, [1, -1])._unit is None
    assert CyclotomicScalar.from_coeff_list(ell, [0, Fraction(1, 2)])._unit is None


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=40, deadline=None)
@given(cx=coeff_lists)
def test_unit_exponent_is_none_off_the_half_powers(ell, cx):
    x = CyclotomicScalar.from_coeff_list(ell, cx)
    powers = {coeffs: j for j, coeffs in enumerate(half_power_coeffs(ell))}
    assert x._unit == powers.get(tuple(coeffs_of(x)))


# -- the one fold modulo Phi_ell ------------------------------------------------

@lru_cache(maxsize=None)
def power_remainders(ell, n):
    """sympy's remainders of x^0, ..., x^(n-1) modulo Phi_ell, each the
    remainder of x times the one before, as integer lists of length deg."""
    phi_zz = sympy.Poly(sympy.cyclotomic_poly(ell, X), X, domain="ZZ")
    deg, x, r = phi_zz.degree(), sympy.Poly(X, X, domain="ZZ"), sympy.Poly(1, X, domain="ZZ")
    out = []
    for _ in range(n):
        low_first = [int(c) for c in reversed(r.all_coeffs())]
        out.append(low_first + [0] * (deg - len(low_first)))
        r = (r * x).rem(phi_zz)
    return tuple(out)


@pytest.mark.parametrize("ell", [3, 5, 9, 15, 21, 25])
def test_fold_matches_sympy(ell):
    """_fold adds sign * sum_i c_i x^(start + i step) mod Phi_ell into a
    nonzero out, for every start in [0, 2 ell), step 1 and every k coprime
    to ell, both signs, and integer lists of up to 2 ell + 3 coefficients.
    The remainder is linear, so it is the sum of the remainders of the
    powers x^(start + i step)."""
    f = _field(ell)
    rng = random.Random(ell)
    remainders = power_remainders(ell, 2 * ell + (2 * ell + 2) * (ell - 1))
    for start in range(2 * ell):
        for step in (k for k in range(1, ell) if gcd(k, ell) == 1):
            for sign in (1, -1):
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2 * ell + 3))]
                out = [rng.randint(-9, 9) for _ in range(f.deg)]
                out[rng.randrange(f.deg)] = rng.choice((-1, 1)) * rng.randint(1, 9)
                expected = list(out)
                for i, c in enumerate(coeffs):
                    for n, r in enumerate(remainders[start + i * step]):
                        expected[n] += sign * c * r
                assert _fold(f, out, coeffs, start, step, sign) is out
                assert out == expected, (start, step, sign, coeffs)


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_long_coefficient_lists_match_sympy(ell, data):
    """from_coeff_list on lists longer than 2 ell, against sympy's remainder."""
    coeffs = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=2 * ell + 1, max_size=3 * ell))
    assert coeffs_of(CyclotomicScalar.from_coeff_list(ell, coeffs)) == as_coeffs(to_poly(coeffs), ell)
