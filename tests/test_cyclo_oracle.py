"""Differential test of the scalar core against sympy's polynomial
arithmetic over QQ modulo the cyclotomic polynomial, of the compiled
product and reduction kernels against the loops they replace, and of the
display form against the parser."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from slq2.cyclo import (
    KERNEL_MAX_DEG,
    CyclotomicScalar,
    _compile,
    _conjugate,
    _convolve,
    _field,
    _fold,
    _mul_num,
    _mul_source,
    _reduce_loop,
    _reduce_source,
    _shift,
    cyclotomic_polynomial,
    q_half_power,
    times_half_power,
)
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
@settings(deadline=None)
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
@settings(deadline=None)
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
@settings(deadline=None)
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


# -- the compiled kernels against the loops -------------------------------------

def degree(ell):
    return len(cyclotomic_polynomial(ell)) - 1


# every odd ell up to the first one whose field is above the kernel cap, and
# composite ell whose fields are below it: 45 and 63 (deg 24 and 36) lie
# beyond ell 43 (deg 42), the first field that keeps the loops
ABOVE_CAP = next(ell for ell in range(3, 1000, 2) if degree(ell) > KERNEL_MAX_DEG)
KERNEL_ELLS = list(range(3, ABOVE_CAP + 1, 2)) + [45, 63]

# zeros, small integers and +-2^200 entries
big_ints = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from((2**200, -(2**200))),
    st.integers(min_value=-(2**200), max_value=2**200),
)


def numerators(ell, length=None):
    size = degree(ell) if length is None else length
    return st.lists(big_ints, min_size=size, max_size=size)


def check_mul(mul, f, a, b):
    """The kernel product against the loop product."""
    assert mul(a, b) == _convolve(f, a, b)


def check_reduce(reduce, f, r):
    assert reduce(r) == _reduce_loop(f, r)


def test_the_cap_separates_kernels_from_loops():
    assert degree(ABOVE_CAP - 2) <= KERNEL_MAX_DEG < degree(ABOVE_CAP)
    for ell in KERNEL_ELLS:
        f = _field(ell)
        compiled = f.deg <= KERNEL_MAX_DEG
        assert (f.mul.__code__.co_filename == f"<slq2.cyclo mul ell={ell}>") if compiled else (f.mul.func is _convolve)
        assert (f.reduce.__code__.co_filename == f"<slq2.cyclo reduce ell={ell}>") if compiled else (f.reduce.func is _reduce_loop)


@pytest.mark.parametrize("ell", KERNEL_ELLS)
@settings(deadline=None)
@given(data=st.data())
def test_kernels_match_the_loops_and_sympy(ell, data):
    """The product equals the loop convolution and sympy's; a shift by
    +-zeta^k, at every k and both signs, equals the fold at start k; a
    Galois conjugate, at every k coprime to ell, equals the fold at step k;
    and the reduction of ell coefficients equals the fold at start deg."""
    f = _field(ell)
    a, b = tuple(data.draw(numerators(ell))), data.draw(numerators(ell))
    check_mul(f.mul, f, a, b)
    assert _mul_num(f, a, b) == as_coeffs(to_poly(a) * to_poly(b), ell)
    for k in range(ell):
        for sign in (1, -1):
            assert _shift(f, a, k, sign) == _fold(f, [0] * f.deg, a, k, 1, sign), (k, sign)
        if gcd(k, ell) == 1:
            assert _conjugate(f, a, k) == _fold(f, [0] * f.deg, a, 0, k, 1), k
    check_reduce(f.reduce, f, data.draw(numerators(ell, ell)))


def flipped(rows, k, n):
    """The fold rows with the n-th coefficient of row k negated."""
    row = list(rows[k])
    i, c = row[n]
    row[n] = (i, -c)
    return rows[:k] + (tuple(row),) + rows[k + 1 :]


@pytest.mark.parametrize("ell", [3, 5, 7, 9, 15, 21, 25, 45])
def test_a_kernel_with_one_fold_coefficient_flipped_fails(ell):
    """Each fold coefficient that a kernel reads, negated in its source,
    makes the comparison with the loops fail on an input whose every
    coefficient is nonzero."""
    f = _field(ell)
    a = tuple(range(1, f.deg + 1))
    r = list(range(1, ell + 1))
    check_mul(f.mul, f, a, a)
    check_reduce(f.reduce, f, r)
    read_by_mul = {e % ell for e in range(f.deg, 2 * f.deg - 1)}
    mutants = 0
    for k in range(ell):
        for n in range(len(f.rows[k])):
            rows = flipped(f.rows, k, n)
            if k in read_by_mul:
                mutants += 1
                with pytest.raises(AssertionError):
                    check_mul(_compile("mul", ell, _mul_source(rows, f.deg)), f, a, a)
            if k >= f.deg:
                mutants += 1
                with pytest.raises(AssertionError):
                    check_reduce(_compile("reduce", ell, _reduce_source(rows, f.deg)), f, r)
    assert mutants >= f.deg

