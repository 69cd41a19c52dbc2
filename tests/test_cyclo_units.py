"""Differential test of the unit paths of the scalar product and inverse.

A product with a unit +-zeta^k as a factor is a shift of the other
factor's numerators through the fold table, over the same denominator.
It must give exactly the scalar that the convolution ``_mul_num`` and the
reduction ``_make`` give, and the polynomial product modulo Phi_ell that
sympy gives; and no such product may reach the convolution at all.  The
inverse of a unit is +-zeta^(ell - k), read off the table of powers; it
must equal the Galois-norm inverse and reach no convolution either.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from slq2 import cyclo
from slq2.cyclo import CyclotomicScalar, _conjugate, _field, _make, _mul_num, q_power
from test_cyclo_oracle import as_coeffs, coeffs_of, to_poly

ELLS = [3, 5, 7, 9, 15, 21]

# longer than deg Phi_ell at every ell above, with denominators
coeff_lists = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=24)


def units(ell):
    """+-zeta^k for every k, both signs."""
    return st.tuples(st.integers(min_value=0, max_value=ell - 1), st.booleans()).map(
        lambda kn: -q_power(ell, kn[0]) if kn[1] else q_power(ell, kn[0])
    )


def reference(x, y):
    """x * y through the convolution and the gcd reduction."""
    f = _field(x.ell)
    return _make(f, _mul_num(f, x.num, y.num), x.den * y.den)


def sympy_product(x, y):
    """Coefficients of x * y modulo Phi_ell, by sympy over QQ."""
    return as_coeffs(to_poly(coeffs_of(x)) * to_poly(coeffs_of(y)), x.ell)


def exact(z):
    return (z.num, z.den)


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_unit_products_match_the_convolution_and_sympy(ell, data):
    x = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    u = data.draw(units(ell))
    v = data.draw(units(ell))
    n = data.draw(st.integers(min_value=-4, max_value=4))
    for left, right in ((x, u), (u, x), (u, v)):
        product = left * right
        assert exact(product) == exact(reference(left, right))
        assert coeffs_of(product) == sympy_product(left, right)
    as_scalar = CyclotomicScalar.from_rational(ell, n)
    assert exact(n * x) == exact(reference(as_scalar, x))
    assert exact(x * n) == exact(reference(x, as_scalar))


@pytest.mark.parametrize("ell", [3, 9, 15])
def test_every_unit_times_every_unit(ell):
    signed = [u for k in range(ell) for u in (q_power(ell, k), -q_power(ell, k))]
    for u in signed:
        for v in signed:
            assert exact(u * v) == exact(reference(u, v))


def test_one_and_minus_one_return_the_other_factor():
    x = CyclotomicScalar.from_coeff_list(9, [Fraction(1, 2), 3, 0, -1])
    assert x * 1 is x and 1 * x is x
    assert q_power(9, 0) * x is x
    assert exact(-1 * x) == exact(-x)


def _refuse_units(f, a, b):
    assert a not in f.units and b not in f.units, "a unit product reached the convolution"
    return _mul_num(f, a, b)


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_no_unit_product_reaches_the_convolution(ell, data):
    x = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    y = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    u = data.draw(units(ell))
    v = data.draw(units(ell))
    with mock.patch.object(cyclo, "_mul_num", _refuse_units):
        for left, right in ((x, u), (u, x), (u, v), (-1, x), (x, 1)):
            left * right
        (x * y) * u


def norm_inverse(x):
    """x^-1 = D * prod_{sigma != 1} sigma(a) / N(a) for x = a / D, with the
    product of the Galois conjugates and the norm a * prod formed by the
    convolution."""
    f = _field(x.ell)
    cof = f.one.num
    for images in f.conjugations:
        cof = _mul_num(f, cof, _conjugate(x.num, images))
    prod = _mul_num(f, x.num, cof)
    assert not any(prod[1:])
    sign = -1 if prod[0] < 0 else 1
    return _make(f, [sign * x.den * c for c in cof], sign * prod[0])


def _no_convolution(f, a, b):
    raise AssertionError("a unit inverse reached the convolution")


@pytest.mark.parametrize("ell", [3, 5, 9, 15])
def test_unit_inverse_is_the_opposite_power(ell):
    one = CyclotomicScalar.one(ell)
    for k in range(ell):
        for sign in (1, -1):
            u = sign * q_power(ell, k)
            with mock.patch.object(cyclo, "_mul_num", _no_convolution):
                inv = u.inverse()
            assert u * inv == one
            assert exact(inv) == exact(norm_inverse(u))
            assert exact(inv) == exact(sign * q_power(ell, ell - k))


@pytest.mark.parametrize("ell", [5, 9])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_non_unit_inverse_keeps_the_norm_path(ell, data):
    x = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    if not x:
        return
    assert exact(x.inverse()) == exact(norm_inverse(x))
    assert x * x.inverse() == CyclotomicScalar.one(ell)
