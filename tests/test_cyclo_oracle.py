"""Differential test of the scalar core against sympy's polynomial
arithmetic over QQ modulo the cyclotomic polynomial, and of the display
form against the parser."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slq2.cyclo import CyclotomicScalar
from slq2.parsing import parse_scalar

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
ELLS = [3, 5, 7, 9, 15]

# longer than deg Phi_ell, so construction reduces modulo Phi_ell as well
coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=18
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
