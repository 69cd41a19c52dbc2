"""Exact arithmetic in the cyclotomic field Q(zeta_ell), for odd ell >= 3.

A scalar is a tuple of Python int numerators over one positive int
denominator, in the power basis 1, zeta, ..., zeta^(deg-1) with
deg = deg Phi_ell, kept in lowest terms (the gcd of the denominator and
all numerators is 1).  That form is unique, so zero tests and equality
are exact tuple comparisons and the primitivity of the root is built in.

Phi_ell is monic with integer coefficients, so every power x^k reduces
modulo Phi_ell to an integer vector.  A per-ell table holds zeta^k for
0 <= k < ell: a product is an integer convolution whose terms of degree
k >= deg are folded back through the table row of zeta^(k mod ell), and
q_power / q_half_power are table lookups.  The structure constants of the
algebra are mostly units +-zeta^k (1 above all).  Each such unit is s^j
for exactly one j in [0, 2 ell), s = q^(1/2) below, and a scalar carries
that j, or None for a non-unit, in its unit slot, set when the scalar is
built: the table scalars get it with the tables, a shift or negation of
a non-unit is a non-unit, and every other scalar looks its numerators up
once in the table of unit numerators.  The slot is a function of the value, so the
value stays immutable; it takes no part in equality, hashing or
pickling.

One routine multiplies: ``x * y`` is x y s^j at j = 0, and
``times_half_power(x, y, j)`` is the same function.  A product of two
units s^u s^v s^j is the table entry s^(u + v + j), with no arithmetic; a
product of a unit and a non-unit skips the convolution: the power of s
it contributes, s^(u + j) = +-zeta^k, moves each basis index of the other
factor from i to i + k, folding it through the row of zeta^((i + k) mod
ell), or returns that factor or its negation when k = 0.  That map is
unimodular on the power basis, so the numerators keep their gcd and the
other factor's denominator is kept as it is, with no gcd taken.  Two
non-units are convolved, the first shifted by s^j beforehand unless
s^j = 1.  The negation and the inverse of a unit s^j are the table
entries s^(j + ell) and s^(-j); any other inverse is the product of the
Galois conjugates zeta -> zeta^k (k coprime to ell, k != 1) divided by
the norm, which is a rational integer.  Arithmetic never divides
polynomials or builds a Fraction; Fractions appear only where rationals
come in (``from_rational``, ``from_coeff_list``) or go out (``str``,
``as_rational``, comparison and hashing against a Fraction).

The deformation parameter q is the root itself; because ell is odd, q
has a square root inside the same field.  The shipped branch is
s = -q^((ell+1)/2), which is the unique in-field square root of q under
which the reference braiding tables and their eigenvalue structure come
out right (see ``slq2.braid``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]


# The per-ell tables hold up to ell powers of zeta with up to ell - 1
# coefficients each, and one product costs (ell - 1)^2 integer steps, so
# ell is capped before any table is built.
MAX_ELL = 999


def validate_ell(ell: int) -> None:
    if not isinstance(ell, int) or ell < 3 or ell % 2 == 0:
        raise ValueError(f"ell must be an odd integer >= 3, got {ell!r}")
    if ell > MAX_ELL:
        raise ValueError(f"ell must be at most {MAX_ELL}, got {ell}")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n (constant term first), by exact
    division of x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n.  Every divisor is monic, so the division stays in the
    integers.  Works for composite n, so composite odd ell (9, 15, ...)
    is supported."""
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        top = len(phi_d) - 1
        quo = [0] * (len(num) - top)
        for shift in range(len(quo) - 1, -1, -1):
            c = quo[shift] = num[shift + top]
            if c:
                for i, p in enumerate(phi_d):
                    num[shift + i] -= c * p
        assert not any(num), f"Phi_{d} does not divide x^{n}-1"
        num = quo
    return tuple(num)


# ---------------------------------------------------------------------------
# per-ell tables
# ---------------------------------------------------------------------------

class _Field:
    """The tables of one Q(zeta_ell); built once per ell by ``_field``.

    ``rows[k]`` is zeta^k (0 <= k < ell) reduced modulo Phi_ell, as a
    sparse tuple of (index, integer coefficient) pairs; since Phi_ell
    divides x^ell - 1, any x^k reduces to ``rows[k % ell]``.
    ``conjugations`` holds, per Galois map zeta -> zeta^k with k != 1,
    the rows of the images of the basis vectors.  ``half_powers[j]`` is
    s^j and ``shifts[j]`` the (k, +-1) with s^j = +-zeta^k; ``units`` maps
    the numerator of each unit s^j (0 <= j < 2 ell) to j.
    """

    __slots__ = ("ell", "deg", "rows", "conjugations", "zero", "one", "powers", "half_powers", "shifts", "units")

    def __init__(self, ell: int):
        phi = cyclotomic_polynomial(ell)
        deg = len(phi) - 1
        vec = [1] + [0] * (deg - 1)
        dense = []
        for _ in range(ell):
            dense.append(vec)
            top = vec[-1]  # x * vec has x^deg coefficient top; x^deg = -sum phi_i x^i
            vec = [0] + vec[:-1]
            if top:
                vec = [v - top * p for v, p in zip(vec, phi)]
        self.ell = ell
        self.deg = deg
        self.rows = tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in dense)
        self.conjugations = tuple(
            tuple(self.rows[(i * k) % ell] for i in range(deg))
            for k in range(2, ell)
            if gcd(k, ell) == 1
        )
        self.zero = _scalar(self, (0,) * deg, 1, None)
        # s^j for s = -zeta^((ell+1)/2); s has order 2*ell, and
        # s^j = (-1)^j zeta^(j half) runs through every +-zeta^k once
        half = (ell + 1) // 2
        self.shifts = tuple(((j * half) % ell, -1 if j % 2 else 1) for j in range(2 * ell))
        # zeta^k = s^j for the even j = 2 k mod 2 ell, since 2 half = 1 mod ell
        self.powers = tuple(_scalar(self, tuple(v), 1, 2 * k) for k, v in enumerate(dense))
        self.one = self.powers[0]
        self.half_powers = tuple(
            _scalar(self, tuple(-x for x in self.powers[k].num), 1, j) if sign == -1 else self.powers[k]
            for j, (k, sign) in enumerate(self.shifts)
        )
        self.units = {s.num: j for j, s in enumerate(self.half_powers)}


@lru_cache(maxsize=None, typed=True)
def _field(ell: int) -> _Field:
    validate_ell(ell)
    return _Field(ell)


def _mul_num(f: _Field, a, b) -> list[int]:
    """The numerator vector a * b modulo Phi_ell."""
    deg = f.deg
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    out = prod[:deg]
    rows = f.rows
    ell = f.ell
    for k in range(deg, 2 * deg - 1):
        c = prod[k]
        if c:
            for i, r in rows[k % ell]:
                out[i] += c * r
    return out


def _shift(f: _Field, a, k: int, sign: int) -> list[int]:
    """The numerator vector sign * zeta^k * a modulo Phi_ell: basis index i
    moves to i + k and folds through the table row of zeta^((i + k) mod ell)."""
    out = [0] * f.deg
    rows, ell = f.rows, f.ell
    for i, x in enumerate(a, k):
        if x:
            x *= sign
            for j, r in rows[i % ell]:
                out[j] += x * r
    return out


def _conjugate(a, images) -> list[int]:
    """The image of the numerator vector a under one Galois map."""
    out = [0] * len(a)
    for x, row in zip(a, images):
        if x:
            for i, r in row:
                out[i] += x * r
    return out


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class CyclotomicScalar:
    """An element of Q(zeta_ell): integer numerators ``num`` over the
    positive denominator ``den``, in lowest terms, reduced modulo Phi_ell.

    Immutable and hashable; all arithmetic is exact.  Mixing scalars with
    Python ints or Fractions is allowed, mixing different ell is an error.
    A rational scalar compares and hashes equal to its int or Fraction.

    The private slot ``_unit`` holds the j in [0, 2 ell) with x = s^j, or
    None when x is not a unit; it is set when x is built.  It is a function
    of ``num`` and ``den``, so it never changes the value, and ``__eq__``,
    ``__hash__`` and ``__reduce__`` ignore it: an unpickled or copied
    scalar looks it up again.
    """

    __slots__ = ("_field", "num", "den", "_unit")

    def __setattr__(self, name, value):
        raise AttributeError(f"CyclotomicScalar is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"CyclotomicScalar is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return (_restore, (self.ell, self.num, self.den))

    @property
    def ell(self) -> int:
        return self._field.ell

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ell: int) -> "CyclotomicScalar":
        return _field(ell).zero

    @staticmethod
    def one(ell: int) -> "CyclotomicScalar":
        return _field(ell).one

    @staticmethod
    def from_rational(ell: int, value: Rational) -> "CyclotomicScalar":
        f = _field(ell)
        if type(value) is int:
            n, d = value, 1
        else:
            value = Fraction(value)
            n, d = value.numerator, value.denominator
        num = (n,) + (0,) * (f.deg - 1)
        return _scalar(f, num, d, f.units.get(num) if d == 1 else None)

    @staticmethod
    def root(ell: int) -> "CyclotomicScalar":
        """The primitive root zeta_ell itself (this is q)."""
        return _field(ell).powers[1]

    @staticmethod
    def from_coeff_list(ell: int, coeffs) -> "CyclotomicScalar":
        """sum_k coeffs[k] zeta^k; each coefficient is anything ``Fraction``
        accepts, and the list may be longer than deg Phi_ell."""
        f = _field(ell)
        values = [Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        num = [0] * f.deg
        for k, v in enumerate(values):
            if v:
                scaled = v.numerator * (den // v.denominator)
                for i, r in f.rows[k % ell]:
                    num[i] += scaled * r
        return _make(f, num, den)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicScalar":
        if isinstance(other, CyclotomicScalar):
            if other._field is not self._field:
                raise ValueError(f"mixed cyclotomic orders: {self.ell} vs {other.ell}")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicScalar.from_rational(self.ell, other)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self._field.one.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return any(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CyclotomicScalar or other._field is not self._field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not any(b):
            return self
        if not any(a):
            return other
        ad, bd = self.den, other.den
        if ad == bd:
            return _make(self._field, [x + y for x, y in zip(a, b)], ad)
        return _make(self._field, [x * bd + y * ad for x, y in zip(a, b)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        f, u = self._field, self._unit
        if u is None:
            return _scalar(f, tuple([-x for x in self.num]), self.den, None)
        return f.half_powers[(u + f.ell) % (2 * f.ell)]

    def __sub__(self, other):
        if other.__class__ is not CyclotomicScalar or other._field is not self._field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not any(b):
            return self
        ad, bd = self.den, other.den
        if ad == bd:
            return _make(self._field, [x - y for x, y in zip(a, b)], ad)
        return _make(self._field, [x * bd - y * ad for x, y in zip(a, b)], ad * bd)

    def __rsub__(self, other):
        diff = self.__sub__(other)
        return NotImplemented if diff is NotImplemented else -diff

    def __mul__(self, other, j=0):
        """x y s^j, s = q^(1/2) (``q_half_power``); ``x * y`` is j = 0, and
        ``times_half_power(x, y, j)`` is this same function.

        Two units s^u and s^v give the table entry s^(u + v + j).  A unit
        s^u and a non-unit z give z s^(u + j) = +-zeta^k z: the numerators
        of z move by k, over z's denominator, or z or -z is returned when
        k = 0.  Two non-units are convolved, x shifted by s^j first when
        s^j != 1."""
        if other.__class__ is not CyclotomicScalar or other._field is not self._field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        f, u, v = self._field, self._unit, other._unit
        if v is None:
            if u is None:
                a, b = self.num, other.num
                if not (any(a) and any(b)):
                    return f.zero
                j %= 2 * f.ell
                if j:
                    a = _shift(f, a, *f.shifts[j])
                return _make(f, _mul_num(f, a, b), self.den * other.den)
            x, j = other, u + j
        elif u is None:
            x, j = self, v + j
        else:
            return f.half_powers[(u + v + j) % (2 * f.ell)]
        # A unit +-zeta^k times x = n/D is (+-zeta^k n)/D: multiplying by a
        # unit of Z[zeta] is unimodular on the power basis, so it keeps the
        # gcd of the numerators and D stays in lowest terms.  x is not a
        # unit, so neither is the product.
        k, sign = f.shifts[j % (2 * f.ell)]
        if k:
            return _scalar(f, tuple(_shift(f, x.num, k, sign)), x.den, None)
        return x if sign == 1 else -x

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        """Multiplicative inverse: for x = a/D with a integral,
        x^-1 = D * prod_{sigma != 1} sigma(a) / N(a), where the norm N(a)
        is a nonzero rational integer.  A unit s^j has the inverse s^(-j),
        read off the table of half powers."""
        f, a, u = self._field, self.num, self._unit
        if u is not None:
            return f.half_powers[-u]
        if not any(a):
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if not any(a[1:]):
            cof, norm = [1] + [0] * (f.deg - 1), a[0]
        else:
            cof = None
            for images in f.conjugations:
                s = _conjugate(a, images)
                cof = s if cof is None else _mul_num(f, cof, s)
            prod = _mul_num(f, a, cof)
            # Phi_ell is irreducible over Q, so the norm is rational.
            assert not any(prod[1:])
            norm = prod[0]
        if norm < 0:
            norm = -norm
            cof = [-c for c in cof]
        return _make(f, [self.den * c for c in cof], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        f = self._field
        base = self if k >= 0 else self.inverse()
        num, den = base.num, base.den
        out, out_den = f.one.num, 1
        k = abs(k)
        while k:
            if k & 1:
                out, out_den = _mul_num(f, out, num), out_den * den
            k >>= 1
            if k:
                num, den = _mul_num(f, num, num), den * den
        return _make(f, out, out_den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicScalar):
            return self._field is other._field and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __hash__(self) -> int:
        num, den = self.num, self.den
        if any(num[1:]):
            return hash((num, den))
        return hash(num[0]) if den == 1 else hash(Fraction(num[0], den))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for power, n in enumerate(self.num):
            if n == 0:
                continue
            mag = Fraction(abs(n), self.den)
            if power == 0:
                body = str(mag)
            else:
                qpart = "q" if power == 1 else f"q^{power}"
                if mag == 1:
                    body = qpart
                elif mag.denominator == 1:
                    body = f"{mag}{qpart}"
                else:
                    body = f"({mag}){qpart}"
            terms.append(("-" if n < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"CyclotomicScalar(ell={self.ell}, {self})"


_new = object.__new__
_set_field = CyclotomicScalar._field.__set__
_set_num = CyclotomicScalar.num.__set__
_set_den = CyclotomicScalar.den.__set__
_set_unit = CyclotomicScalar._unit.__set__


def _scalar(f: _Field, num: tuple, den: int, unit) -> CyclotomicScalar:
    """A scalar from a numerator tuple and denominator already in lowest
    terms; ``unit`` is its j with x = s^j, or None for a non-unit."""
    x = _new(CyclotomicScalar)
    _set_field(x, f)
    _set_num(x, num)
    _set_den(x, den)
    _set_unit(x, unit)
    return x


def _make(f: _Field, num: list, den: int) -> CyclotomicScalar:
    """A scalar from integer numerators over a positive denominator,
    brought to lowest terms, its unit slot looked up in ``units``."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    num = tuple(num)
    return _scalar(f, num, den, f.units.get(num) if den == 1 else None)


def _restore(ell: int, num: tuple, den: int) -> CyclotomicScalar:
    return _make(_field(ell), num, den)


# ---------------------------------------------------------------------------
# powers of q and q-binomials
# ---------------------------------------------------------------------------

def q_power(ell: int, k: int) -> CyclotomicScalar:
    """q^k = zeta_ell^(k mod ell)."""
    return _field(ell).powers[k % ell]


def q_half_power(ell: int, j: int) -> CyclotomicScalar:
    """s^j where s = -zeta^((ell+1)/2) is the chosen square root of q.

    s has order 2*ell, s^2 = q, and q_half_power(2k) == q_power(k)."""
    return _field(ell).half_powers[j % (2 * ell)]


times_half_power = CyclotomicScalar.__mul__


@lru_cache(maxsize=None)
def q_binomial_row(ell: int, m: int, exponent: int = -2) -> tuple[CyclotomicScalar, ...]:
    """The Gaussian binomials (m choose r)_p for r = 0..m, with p = q^exponent,
    by the Pascal recurrence (i k)_p = (i-1 k-1)_p + p^k (i-1 k)_p, row by
    row in O(m^2) scalar steps.  It never divides by q-integers, so it stays
    exact at roots of unity where the factorial formula degenerates to 0/0.
    """
    validate_ell(ell)
    one = CyclotomicScalar.one(ell)
    row = [one]
    for i in range(1, m + 1):
        row = [one, *(row[k - 1] + q_power(ell, exponent * k) * row[k] for k in range(1, i)), one]
    return tuple(row)


def q_binomial(ell: int, m: int, r: int, exponent: int = -2) -> CyclotomicScalar:
    """Gaussian binomial (m choose r)_p, p = q^exponent; 0 for r outside [0, m]."""
    if r < 0 or r > m:
        return CyclotomicScalar.zero(ell)
    return q_binomial_row(ell, m, exponent)[r]
