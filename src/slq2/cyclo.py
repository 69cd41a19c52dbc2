"""Exact arithmetic in the cyclotomic field Q(zeta_ell), for odd ell >= 3.

A scalar is a tuple of Python int numerators over one positive int
denominator, in the power basis 1, zeta, ..., zeta^(deg-1) with
deg = deg Phi_ell, kept in lowest terms (the gcd of the denominator and
all numerators is 1).  That form is unique, so zero tests and equality
are exact tuple comparisons and the primitivity of the root is built in.

Phi_ell is monic with integer coefficients, so every power x^k reduces
modulo Phi_ell to an integer vector.  Each field keeps two tables: the
fold rows, zeta^k for 0 <= k < ell as sparse integer vectors, and the
scalars s^j for 0 <= j < 2 ell, s = q^(1/2) below.  From its fold rows
each field compiles two kernels once, when it is first built:
``mul(a, b)``, the integer convolution of two numerator vectors with its
terms of degree deg and above folded back through the rows, and
``reduce(r)``, which reads ell coefficients as a polynomial modulo
x^ell - 1 and folds its terms of degree deg and above.  A shift by
+-zeta^k rotates the numerators by k within ell slots and reduces them;
the Galois conjugate zeta -> zeta^k scatters numerator i to slot i k mod
ell and reduces; and ``from_coeff_list`` adds its list into ell slots and
reduces.  The kernels are straight-line code, generated from the rows
and compiled with ``exec``; their source holds only int literals and
generated names, so no input reaches it (see ``_Field``).  A field of
degree above ``KERNEL_MAX_DEG`` keeps loops for both kernels instead:
``_convolve`` and ``_reduce_loop``, which folds through ``_fold``.

q_half_power(j) is the entry s^j and q_power(k) the entry s^(2 k),
since s^2 = q.  The structure
constants of the algebra are mostly units +-zeta^k (1 above all).  Each
such unit is s^j for exactly one j in [0, 2 ell), and a scalar carries
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
it contributes, s^(u + j) = +-zeta^k, shifts the other factor by k, or
returns that factor or its negation when k = 0.  That map is
unimodular on the power basis, so the numerators keep their gcd and the
other factor's denominator is kept as it is, with no gcd taken.  Two
non-units are convolved, the first shifted by s^j beforehand unless
s^j = 1.  The negation and the inverse of a unit s^j are the table
entries s^(j + ell) and s^(-j); any other inverse is the product of the
Galois conjugates zeta -> zeta^k (k coprime to ell, k != 1) divided by
the norm, which is a rational integer; each conjugate is reduced when
it is needed.
A power x^k multiplies through ``*`` by square-and-multiply, so a power
of a unit is a table read.  Arithmetic never divides polynomials or
builds a Fraction; Fractions appear only where rationals come in
(``from_rational``, ``from_coeff_list``) or go out (``str``,
``as_rational``, comparison and hashing against a Fraction).

A sum of products that is only tested for zero needs no scalar at all:
``_sums_vanish`` packs each factor's numerators into one int at
X = 2^w (Kronecker substitution), sums the int products per key and
tests divisibility by Phi_ell(X), which is exact once w is above the
bound that its docstring proves.

The deformation parameter q is the root itself; because ell is odd, q
has a square root inside the same field.  The shipped branch is
s = -q^((ell+1)/2), which is the unique in-field square root of q under
which the reference braiding tables and their eigenvalue structure come
out right (see ``slq2.braid``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from operator import lshift, mul
from typing import Union

Rational = Union[int, Fraction]


# The per-ell tables hold the ell fold rows and the 2 ell powers of s,
# with up to ell - 1 coefficients each; one product costs about 2 deg^2
# integer steps (deg = deg Phi_ell <= ell - 1), compiled or looped, and
# one inverse about ell products.  So ell is capped before any table is
# built.
MAX_ELL = 999

# A field of degree up to this compiles its product and reduction into
# straight-line kernels (``_Field``).  Both kernels have about 2 deg^2
# terms, so their compile time and code grow as deg^2.  Measured on one
# core of a shared 2-core machine (Python 3.11): 0.13 ms at deg 4,
# 0.48 ms at deg 12, 3.7 ms and 75 KB at deg 40, 26 ms at deg 100 and
# 2.1 MB at deg 210, so about 11 MB at deg 498, more than the whole field
# holds there.  Up to deg 40 the compile costs less than one inverse
# with the loops (deg - 1 products of 110 us at deg 40) and stays under
# a few ms; above it a field keeps the loops.
KERNEL_MAX_DEG = 40


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
    ``half_powers[j]`` is s^j, so zeta^k is ``half_powers[2 k mod 2 ell]``,
    and ``shifts[j]`` the (k, +-1) with s^j = +-zeta^k; ``units`` maps the
    numerator of each unit s^j (0 <= j < 2 ell) to j.

    Every product and reduction goes through two kernels, which only read
    the rows:
    - ``mul(a, b)``, the numerator vector a * b modulo Phi_ell, for two
      vectors of length deg;
    - ``reduce(r)``, the ell coefficients r, read modulo x^ell - 1,
      reduced modulo Phi_ell; ``pad`` holds the ell - deg zeros that bring
      a numerator vector to ell slots.
    Up to ``KERNEL_MAX_DEG`` each is compiled here, once, as straight-line
    code with no loops and no zero tests: every coefficient is unpacked
    into a local, and each output entry is one sum of products and
    fold-row multiples.  The ``exec`` that compiles them is safe: the
    source is built only from int literals and names generated here
    (a0, b1, h5, r7, ...) and runs with no builtins, and nothing from a
    caller reaches it.  Above the cap the loops ``_convolve`` and
    ``_reduce_loop`` take their place, bound to the field.
    """

    __slots__ = ("ell", "deg", "rows", "pad", "mul", "reduce", "zero", "one", "half_powers", "shifts", "units")

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
        self.rows = rows = tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in dense)
        self.pad = (0,) * (ell - deg)
        if deg <= KERNEL_MAX_DEG:
            self.mul = _compile("mul", ell, _mul_source(rows, deg))
            self.reduce = _compile("reduce", ell, _reduce_source(rows, deg))
        else:
            self.mul = partial(_convolve, self)
            self.reduce = partial(_reduce_loop, self)
        self.zero = _scalar(self, (0,) * deg, 1, None)
        # s^j for s = -zeta^((ell+1)/2); s has order 2*ell, and
        # s^j = (-1)^j zeta^(j half) runs through every +-zeta^k once
        half = (ell + 1) // 2
        self.shifts = tuple(((j * half) % ell, -1 if j % 2 else 1) for j in range(2 * ell))
        self.half_powers = tuple(
            _scalar(self, tuple(sign * x for x in dense[k]), 1, j) for j, (k, sign) in enumerate(self.shifts)
        )
        self.one = self.half_powers[0]
        self.units = {s.num: j for j, s in enumerate(self.half_powers)}


@lru_cache(maxsize=None, typed=True)
def _field(ell: int) -> _Field:
    validate_ell(ell)
    return _Field(ell)


def _fold(f: _Field, out: list[int], coeffs, start: int, step: int, sign: int) -> list[int]:
    """Add sign * sum_i coeffs[i] zeta^(start + i step), reduced modulo
    Phi_ell, into ``out`` and return it: the coefficient at exponent e
    folds through the table row of zeta^(e mod ell).  The loops of a
    field above ``KERNEL_MAX_DEG`` fold at start deg and step 1; the
    tests also read it at every start and step as the reference for the
    kernels, shifts and Galois conjugates."""
    rows, ell = f.rows, f.ell
    for c in coeffs:
        if c:
            c *= sign
            for i, r in rows[start % ell]:
                out[i] += c * r
        start += step
    return out


def _convolve(f: _Field, a, b) -> list[int]:
    """The numerator vector a * b modulo Phi_ell by loops: the integer
    convolution, its terms of degree deg and above folded back into the
    low half.  The product of a field above ``KERNEL_MAX_DEG``."""
    deg = f.deg
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    return _fold(f, prod[:deg], prod[deg:], deg, 1, 1)


def _reduce_loop(f: _Field, r) -> list[int]:
    """The ell coefficients r, read modulo x^ell - 1, reduced modulo
    Phi_ell by ``_fold``.  The reduction of a field above
    ``KERNEL_MAX_DEG``."""
    deg = f.deg
    return _fold(f, list(r[:deg]), r[deg:], deg, 1, 1)


def _terms(pairs) -> str:
    """The source text `` + c * name`` for each (name, int c), with 1 and
    -1 written as signs."""
    out = []
    for name, c in pairs:
        sign = " - " if c < 0 else " + "
        out.append(f"{sign}{name}" if abs(c) == 1 else f"{sign}{abs(c)} * {name}")
    return "".join(out)


def _mul_source(rows, deg: int) -> str:
    """Source of ``mul(a, b)``, the product of two numerator vectors of
    length deg: h<e> is the convolution's coefficient at e >= deg, added
    into the low half through the fold row of zeta^(e mod ell)."""
    ell = len(rows)

    def conv(e):
        return " + ".join(f"a{i} * b{e - i}" for i in range(max(0, e - deg + 1), min(e, deg - 1) + 1))

    folds = [[] for _ in range(deg)]
    lines = [
        "def mul(a, b):",
        "    " + ", ".join(f"a{i}" for i in range(deg)) + " = a",
        "    " + ", ".join(f"b{i}" for i in range(deg)) + " = b",
    ]
    for e in range(deg, 2 * deg - 1):
        lines.append(f"    h{e} = {conv(e)}")
        for i, c in rows[e % ell]:
            folds[i].append((f"h{e}", c))
    lines.append("    return [" + ", ".join(conv(i) + _terms(folds[i]) for i in range(deg)) + "]")
    return "\n".join(lines) + "\n"


def _reduce_source(rows, deg: int) -> str:
    """Source of ``reduce(r)``: r<k> for k >= deg is added into the low
    half through the fold row of zeta^k."""
    ell = len(rows)
    folds = [[] for _ in range(deg)]
    for k in range(deg, ell):
        for i, c in rows[k]:
            folds[i].append((f"r{k}", c))
    return "\n".join([
        "def reduce(r):",
        "    " + ", ".join(f"r{k}" for k in range(ell)) + " = r",
        "    return [" + ", ".join(f"r{i}" + _terms(folds[i]) for i in range(deg)) + "]",
    ]) + "\n"


def _compile(name: str, ell: int, source: str):
    """The function ``name`` defined by ``source``, compiled with no
    builtins.  The source is built only from ints and generated names."""
    namespace: dict = {}
    exec(compile(source, f"<slq2.cyclo {name} ell={ell}>", "exec"), {"__builtins__": {}}, namespace)
    return namespace[name]


def _mul_num(f: _Field, a, b) -> list[int]:
    """The numerator vector a * b modulo Phi_ell (``f.mul``)."""
    return f.mul(a, b)


def _shift(f: _Field, a, k: int, sign: int) -> list[int]:
    """The numerator vector sign * zeta^k * a modulo Phi_ell: a padded to
    ell slots and rotated by k is zeta^k a modulo x^ell - 1, which
    ``f.reduce`` reduces."""
    r = tuple(a) + f.pad
    out = f.reduce(r[-k:] + r[:-k])
    return out if sign == 1 else [-x for x in out]


def _conjugate(f: _Field, a, k: int) -> list[int]:
    """The Galois conjugate of the numerator vector a under zeta -> zeta^k,
    k coprime to ell: a scattered into ell slots, then reduced."""
    ell = f.ell
    r = [0] * ell
    for i, c in enumerate(a):
        r[i * k % ell] = c
    return f.reduce(r)


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
        return _field(ell).half_powers[2]

    @staticmethod
    def from_coeff_list(ell: int, coeffs) -> "CyclotomicScalar":
        """sum_k coeffs[k] zeta^k; each coefficient is anything ``Fraction``
        accepts, and the list may be longer than deg Phi_ell."""
        f = _field(ell)
        values = [Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        r = [0] * ell
        for k, v in enumerate(values):
            r[k % ell] += v.numerator * (den // v.denominator)
        return _make(f, f.reduce(r), den)

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
        is a nonzero rational integer; each conjugate sigma_k(a) is a
        scattered into ell slots and reduced (``_conjugate``).  A unit s^j
        has the inverse s^(-j), read off the table of half powers."""
        f, a, u = self._field, self.num, self._unit
        if u is not None:
            return f.half_powers[-u]
        if not any(a):
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if not any(a[1:]):
            cof, norm = [1] + [0] * (f.deg - 1), a[0]
        else:
            conjugates = (_conjugate(f, a, k) for k in range(2, f.ell) if gcd(k, f.ell) == 1)
            cof = next(conjugates)
            for s in conjugates:
                cof = _mul_num(f, cof, s)
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
        """x^k by square-and-multiply through ``*``, so a power of a unit
        is a table read; x^-k is (x^-1)^k."""
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        out = self._field.one
        k = abs(k)
        while k:
            if k & 1:
                out *= base
            k >>= 1
            if k:
                base *= base
        return out

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
    """q^k = zeta_ell^(k mod ell) = s^(2 k mod 2 ell)."""
    return _field(ell).half_powers[2 * k % (2 * ell)]


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


# ---------------------------------------------------------------------------
# zero tests of sums of products, by Kronecker substitution
# ---------------------------------------------------------------------------

def _sums_vanish(ell: int, pools, keys, signs, indices) -> bool:
    """Whether every signed sum of products is zero, decided exactly and
    without building a scalar.  The columns keys, signs and indices[p]
    are parallel: term n is
    signs[n] * pools[0][indices[0][n]] * ... * pools[k-1][indices[k-1][n]],
    with signs[n] = +-1 and k = len(pools), and S_K is the sum of the
    terms with keys[n] = K.

    Every scalar of pools[p] is scaled to the lcm L_p of the denominators
    in pools[p], so its numerators are the integer coefficients of a
    polynomial n~ of degree below deg = deg Phi_ell, and n~ is read at
    X = 2^w as one int, once per entry (Kronecker substitution; Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", J. Symb. Comput. 44, 2009).  Per key,
    P_K(X) = sum sign * prod n~(X) is summed in ints, and
    S_K = P_K(zeta) / prod_p L_p.  S_K = 0 iff P_K(X) % Phi_ell(X) == 0:

    - S_K = 0 iff P_K(zeta) = 0 iff Phi_ell divides P_K in Z[x], since
      Phi_ell is the monic minimal polynomial of zeta.
    - Write P_K = Phi_ell Q + R with deg R < deg; Q is integral because
      Phi_ell is monic.  R is P_K folded through the fold rows,
      R = sum_e p_e rows[e mod ell], so |R_i| <= B G with
      B = N deg^(k-1) prod_p M_p and
      G = max_i sum_{e <= k (deg - 1)} |rows[e mod ell][i]|.  B bounds
      the coefficients of P_K: N terms, at most deg^(k-1) ways to split a
      degree among k factors of degree below deg, and M_p bounds every
      coefficient of an n~ of pools[p] (the largest |numerator| times
      L_p / denominator over the non-units, and L_p U for the units
      +-zeta^j, whose numerators are +-rows[j] with |entries| <= U).
    - Take X > 4 (B G + H), H the largest |coefficient| of Phi_ell.  Then
      |R(X)| <= B G (X^deg - 1) / (X - 1) < X^deg - H (X^deg - 1) / (X - 1)
      <= Phi_ell(X), so Phi_ell(X) | P_K(X) = Phi_ell(X) Q(X) + R(X)
      forces R(X) = 0; and every |R_i| < X / 2 (balanced digits), so
      R(X) = 0 forces R = 0.

    ``_width`` gives w.  G, H and U are kept per (ell, k) and Phi_ell(X)
    per (ell, w).  The packed ints never leave this function."""
    k, count = len(pools), len(keys)
    if len(indices) != k or any(len(column) != count for column in (signs, *indices)):
        raise ValueError(f"{k} pools need {k} index columns as long as the {count} keys")
    if not count:
        return True
    f = _field(ell)
    unit_top = _zero_test_bounds(ell, k)[2]
    bound, scales = count * f.deg ** (k - 1), []
    for pool in pools:
        others = [x for x in pool if x._unit is None]
        scale = lcm(*(x.den for x in others))
        scales.append(scale)
        bound *= max(
            max((max(map(abs, x.num)) * (scale // x.den) for x in others), default=0),
            scale * unit_top if len(others) < len(pool) else 0,
        )
    w = _width(ell, k, bound)
    modulus = _cyclotomic_at(ell, w)
    shifts = range(0, w * f.deg, w)
    ints: dict = {}  # each distinct numerator tuple read at X once
    values = signs
    for pool, scale, column in zip(pools, scales, indices):
        packed = []
        for x in pool:
            at_x = ints.get(x.num)
            if at_x is None:
                at_x = ints[x.num] = sum(map(lshift, x.num, shifts))
            packed.append(at_x * (scale // x.den))
        values = map(mul, values, map(packed.__getitem__, column))
    sums: dict = {}
    get = sums.get
    for key, value in zip(keys, values):
        sums[key] = get(key, 0) + value
    return not any(map(modulus.__rmod__, sums.values()))


def _width(ell: int, k: int, bound: int) -> int:
    """The least w with 2^w > 4 (B G + H) for B = bound (``_sums_vanish``)."""
    fold, top, _ = _zero_test_bounds(ell, k)
    return (4 * (bound * fold + top)).bit_length()


@lru_cache(maxsize=None)
def _zero_test_bounds(ell: int, k: int) -> tuple[int, int, int]:
    """(G, H, U) for ``_sums_vanish`` with k factors: G = max_i
    sum_{e <= k (deg - 1)} |rows[e mod ell][i]|, H = max |coefficient of
    Phi_ell|, and U = max |numerator| of a unit +-zeta^j, whose numerators
    are +-rows[j]."""
    f = _field(ell)
    fold = [0] * f.deg
    for e in range(k * (f.deg - 1) + 1):
        for i, c in f.rows[e % ell]:
            fold[i] += abs(c)
    unit_top = max(abs(c) for row in f.rows for _, c in row)
    return max(fold), max(map(abs, cyclotomic_polynomial(ell))), unit_top


@lru_cache(maxsize=None)
def _cyclotomic_at(ell: int, w: int) -> int:
    """Phi_ell(2^w)."""
    return sum(c << (w * i) for i, c in enumerate(cyclotomic_polynomial(ell)))
