"""Differential test of the unit paths of the scalar product and inverse.

A product with a unit +-zeta^k as a factor is a shift of the other
factor's numerators through the fold table, over the same denominator.
It must give exactly the scalar that the convolution ``_mul_num`` and the
reduction ``_make`` give, and the polynomial product modulo Phi_ell that
sympy gives; and no such product may reach the convolution at all.  The
inverse of a unit is +-zeta^(ell - k), read off the table of powers; it
must equal the Galois-norm inverse and reach no convolution either.

Every scalar carries its unit exponent (the j with x = s^j, or None) in a
slot set when it is built; a product of two units is then a table read
that reaches neither the convolution nor the shift.  The slot must agree
with the ``units`` table at birth on every construction path, and must
not leak into equality, hashing, pickling or copying.

One function multiplies: ``x * y`` is ``times_half_power(x, y, 0)``, and
x y s^j must equal sympy's product for every kind of operand and every j.
"""

import copy
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from slq2 import cyclo
from slq2.cyclo import CyclotomicScalar, _conjugate, _field, _make, _mul_num, q_half_power, q_power, times_half_power
from slq2.parsing import parse_scalar
from test_cyclo_oracle import as_coeffs, coeffs_of, half_power_poly, to_poly

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
    raise AssertionError("a unit product or inverse reached the convolution")


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_no_unit_product_reaches_the_convolution(ell, data):
    x = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    y = CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists))
    u = data.draw(units(ell))
    v = data.draw(units(ell))
    # x and y may be units or scaled units; their product is formed outside
    # the patch, where a convolution of two non-units is allowed
    xy = x * y
    with mock.patch.object(cyclo, "_mul_num", _refuse_units):
        for left, right in ((x, u), (u, x), (u, v), (-1, x), (x, 1)):
            left * right
        xy * u


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


@pytest.mark.parametrize("ell", [3, 5, 9, 15])
def test_unit_inverse_is_the_opposite_power(ell):
    one = CyclotomicScalar.one(ell)
    for k in range(ell):
        for sign in (1, -1):
            u = sign * q_power(ell, k)
            with mock.patch.object(cyclo, "_mul_num", _refuse_units):
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


# -- the cached unit exponent ------------------------------------------------


def table_exponent(z):
    """The j with z = s^j from the ``units`` table, or None."""
    return _field(z.ell).units.get(z.num) if z.den == 1 else None


def fresh(z):
    """A new instance of z's value, its unit slot not yet looked up."""
    return CyclotomicScalar.from_coeff_list(z.ell, coeffs_of(z))


def operands(ell):
    """Units from the tables and as fresh instances, rationals, and
    scalars of any shape, scaled units (zeta^k / D) among them."""
    return st.one_of(
        units(ell),
        units(ell).map(fresh),
        st.integers(min_value=-2, max_value=2).map(lambda n: CyclotomicScalar.from_rational(ell, n)),
        coeff_lists.map(lambda cs: CyclotomicScalar.from_coeff_list(ell, cs)),
        st.tuples(units(ell), st.integers(min_value=2, max_value=4)).map(lambda ud: ud[0] * Fraction(1, ud[1])),
    )


OPS = ("+", "-", "*", "neg", "inverse")


def check_slot(z):
    assert z._unit == table_exponent(z)


def check_step(op, x, y, z):
    """z = x op y (y unused for neg and inverse) against the convolution or
    Galois-norm reference and sympy."""
    ell, zc = z.ell, coeffs_of(z)
    if op == "*":
        assert exact(z) == exact(reference(x, y))
        assert zc == sympy_product(x, y)
    elif op == "neg":
        assert exact(z) == exact(_make(_field(ell), [-n for n in x.num], x.den))
        assert zc == [-c for c in coeffs_of(x)]
    elif op == "inverse":
        assert exact(z) == exact(norm_inverse(x))
        assert sympy_product(x, z) == coeffs_of(CyclotomicScalar.one(ell))
    else:
        sign = 1 if op == "+" else -1
        assert zc == [a + sign * b for a, b in zip(coeffs_of(x), coeffs_of(y))]


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unit_slot_agrees_with_the_table_along_random_chains(ell, data):
    x = data.draw(operands(ell))
    check_slot(x)
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=8)):
        y = data.draw(operands(ell))
        if op == "inverse" and not x:
            continue
        z = {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y, "neg": lambda: -x, "inverse": x.inverse}[op]()
        check_step(op, x, y, z)
        check_slot(z)
        check_slot(y)
        x = z


@pytest.mark.parametrize("ell", ELLS)
def test_unit_times_unit_never_shifts(ell):
    def refuse_shift(f, a, k, sign):
        raise AssertionError("a product of two units reached the shift")

    table = [q_half_power(ell, j) for j in range(2 * ell)]
    signed = table + [fresh(u) for u in table]
    with mock.patch.object(cyclo, "_shift", refuse_shift), mock.patch.object(cyclo, "_mul_num", _refuse_units):
        products = [(u, v, u * v) for u in signed for v in signed]
        negations = [(u, -u) for u in signed]
        inverses = [(u, u.inverse()) for u in signed]
    for u, v, uv in products:
        assert exact(uv) == exact(reference(u, v))
        assert uv is q_half_power(ell, u._unit + v._unit)
    for u, neg in negations:
        assert exact(neg) == exact(_make(_field(ell), [-n for n in u.num], 1))
    for u, inv in inverses:
        assert exact(inv) == exact(norm_inverse(u))


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_equal_values_hash_equal_whatever_their_slot(ell, data):
    x = data.draw(operands(ell))
    copies = [x, fresh(x), -(-x), x * 1, pickle.loads(pickle.dumps(x))]
    for y in copies:
        assert y == x and hash(y) == hash(x)
    if x.is_rational():
        assert hash(x) == hash(x.as_rational())
    for j in range(2 * ell):
        table = q_half_power(ell, j)
        assert fresh(table) == table and hash(fresh(table)) == hash(table)


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pickle_and_deepcopy_round_trip(ell, data):
    x = data.draw(operands(ell))
    # the slot is no part of the pickled state
    assert x.__reduce__()[1] == (ell, x.num, x.den)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y == x and exact(y) == exact(x) and hash(y) == hash(x)
        assert y._unit == x._unit
        check_slot(y)


# -- the one product x y s^j ---------------------------------------------------


def kind(x):
    return "general" if x._unit is None else "unit"


def half_power_product(x, y, j):
    """x y s^j through the convolution and the gcd reduction."""
    return reference(reference(x, y), q_half_power(x.ell, j))


def check_half_power_product(x, y, j):
    z = times_half_power(x, y, j)
    assert exact(z) == exact(half_power_product(x, y, j))
    assert coeffs_of(z) == as_coeffs(to_poly(coeffs_of(x)) * to_poly(coeffs_of(y)) * half_power_poly(x.ell, j), x.ell)
    check_slot(z)


def test_mul_rmul_and_times_half_power_are_one_function():
    assert CyclotomicScalar.__rmul__ is CyclotomicScalar.__mul__
    assert times_half_power is CyclotomicScalar.__mul__


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_times_half_power_matches_the_convolution_and_sympy(ell, data):
    x = data.draw(operands(ell))
    y = data.draw(operands(ell))
    j = data.draw(st.integers(min_value=-4 * ell, max_value=4 * ell))
    check_half_power_product(x, y, j)
    check_half_power_product(x, y, 2 * ell * (j % 3 - 1))
    # x * y is the same function at j = 0: the same numerators, denominator and unit slot
    product = x * y
    fused = times_half_power(x, y, 0)
    assert (product.num, product.den, product._unit) == (fused.num, fused.den, fused._unit)


@pytest.mark.parametrize("ell", [3, 5, 9])
def test_times_half_power_covers_every_pair_of_kinds(ell):
    """Units from the table and fresh, scaled units, rationals and general
    scalars against each other, at j = 0, at multiples of 2 ell (s^j = 1),
    at j = ell (s^j = -1) and at shifts; all four unit/non-unit cases occur."""
    scalars = [
        q_half_power(ell, 3),
        fresh(q_half_power(ell, ell + 1)),
        CyclotomicScalar.from_rational(ell, -1),
        q_power(ell, 2) * Fraction(1, 3),
        CyclotomicScalar.from_rational(ell, Fraction(-5, 2)),
        CyclotomicScalar.from_coeff_list(ell, [Fraction(1, 2), 3, 0, -1]),
        CyclotomicScalar.zero(ell),
    ]
    seen = set()
    for x in scalars:
        for y in scalars:
            for j in (0, 2 * ell, -4 * ell, ell, 1, -1, 2 * ell + 5):
                check_half_power_product(x, y, j)
            seen.add((kind(x), kind(y)))
    assert seen == {(a, b) for a in ("unit", "general") for b in ("unit", "general")}


@pytest.mark.parametrize("ell", [3, 9, 15])
def test_two_non_units_shift_only_when_the_half_power_is_not_one(ell):
    shifts = []

    def counting_shift(f, a, k, sign):
        shifts.append((k, sign))
        return shift(f, a, k, sign)

    shift = cyclo._shift
    x = CyclotomicScalar.from_coeff_list(ell, [1, 2, 0, -3])
    y = CyclotomicScalar.from_coeff_list(ell, [Fraction(2, 3), 0, 5])
    with mock.patch.object(cyclo, "_shift", counting_shift):
        for j in (0, 2 * ell, -6 * ell):
            times_half_power(x, y, j)
        assert shifts == []
        for j in (1, ell, -1):
            times_half_power(x, y, j)
        assert shifts == [_field(ell).shifts[j % (2 * ell)] for j in (1, ell, -1)]


@pytest.mark.parametrize("ell", ELLS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_unit_slot_is_set_at_birth_on_every_construction_path(ell, data):
    """The slot equals the ``units`` table's answer as soon as a scalar
    exists, whichever way it was made."""
    x = data.draw(operands(ell))
    y = data.draw(operands(ell))
    value = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    born = [
        CyclotomicScalar.from_rational(ell, value),
        CyclotomicScalar.from_rational(ell, int(value)),
        CyclotomicScalar.from_coeff_list(ell, data.draw(coeff_lists)),
        parse_scalar(str(x), ell),
        x + y,
        x - y,
        x * y,
        -x,
        pickle.loads(pickle.dumps(x)),
        copy.copy(x),
        copy.deepcopy(x),
    ]
    if x:
        born.append(x.inverse())
    for z in born:
        check_slot(z)
    for n, j in ((1, 0), (-1, ell)):
        assert CyclotomicScalar.from_rational(ell, n)._unit == j
        assert parse_scalar(str(n), ell)._unit == j
