"""The coordinate algebra of SL_q(2) at a root of unity and its finite quotients.

Elements are scalar-weighted sums of PBW basis monomials ``a^i b^j c^k``
and ``b^j c^k d^m``, with the a/d axis stored as one signed exponent, so a
monomial never contains both letters.  The product of two monomials is
read off in closed form: b and c commute and pass a and d with a power of q
(ba = q^-1 ab, db = q^-1 bd, and likewise for c), so unless an a-power
meets a d-power the product is one monomial times one power of q.
Otherwise the one cross power expands by the q-binomial theorem,
a^n d^n = sum_r q^(r^2) (n r)_{q^2} (bc)^r and
d^n a^n = sum_r q^(-r^2) (n r)_{q^-2} (bc)^r.  The two finite quotients
additionally impose

    F:     a^ell = d^ell = 1,   b^ell = c^ell = 0,
    Fhat:  a^2ell = d^2ell = 1, b^ell = c^ell = 0.

In the quotient modes d itself is eliminated (a^t is lifted to a^(t + L s)
>= d^e, L the order of a, before the cross expansion), so the reachable
monomials are exactly the a^p b^r c^s with p < L and r, s < ell: the
ell^3 (resp. 2 ell^3) dimensional PBW basis of the quotient.  There every
product of two basis monomials is one monomial (or zero); only the
transient d of a monomial with a d-power needs the cross expansion.
One loop, ``_product``, multiplies two sums of terms (``multiply`` and
each cell of ``corep.tensor``), and a word folds from its first power.
``MODES`` names the three algebras, generic, F and Fhat: an
``AlgebraMode`` refuses any other name, and the command line offers these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Hashable, Iterable, NamedTuple, Optional

from .cyclo import CyclotomicScalar, q_binomial_row, q_power, validate_ell
from .linalg import SparseMatrix

GENERATORS = ("a", "b", "c", "d")
# the names of the algebras, in the order the command line lists them
MODES = ("generic", "F", "Fhat")


@dataclass(frozen=True)
class AlgebraMode:
    """Which algebra we are working in: the full root-of-unity algebra or a
    finite quotient.  ``kind`` is one of ``MODES``; another name is a
    ValueError."""

    kind: str
    ell: int

    def __post_init__(self):
        validate_ell(self.ell)
        if self.kind not in MODES:
            raise ValueError(f"unknown mode {self.kind!r} (use {', '.join(MODES[:-1])}, or {MODES[-1]})")

    @staticmethod
    def generic(ell: int) -> "AlgebraMode":
        return AlgebraMode("generic", ell)

    @staticmethod
    def quotient_f(ell: int) -> "AlgebraMode":
        return AlgebraMode("F", ell)

    @staticmethod
    def quotient_fhat(ell: int) -> "AlgebraMode":
        return AlgebraMode("Fhat", ell)

    @property
    def is_quotient(self) -> bool:
        return self.kind != "generic"

    @property
    def a_period(self) -> Optional[int]:
        """Multiplicative order imposed on a (and d), None in generic mode."""
        if self.kind == "F":
            return self.ell
        if self.kind == "Fhat":
            return 2 * self.ell
        return None

    def is_quotient_of(self, other: "AlgebraMode") -> bool:
        """True if self is a (possibly trivial) quotient of other: the order
        of a in self divides its order in other, and generic imposes none."""
        mine, theirs = self.a_period, other.a_period
        return self.ell == other.ell and (theirs is None or (mine is not None and theirs % mine == 0))


class NormalMonomial(NamedTuple):
    """PBW basis word.  t > 0 encodes a^t, t < 0 encodes d^(-t); j and k are
    the exponents of b and c."""

    t: int
    j: int
    k: int

    @property
    def degree(self) -> int:
        return abs(self.t) + self.j + self.k

    def word(self) -> list[tuple[str, int]]:
        """The monomial as a list of (generator, exponent) pairs in PBW order."""
        out = []
        if self.t > 0:
            out.append(("a", self.t))
        if self.j:
            out.append(("b", self.j))
        if self.k:
            out.append(("c", self.k))
        if self.t < 0:
            out.append(("d", -self.t))
        return out

    def label(self) -> str:
        parts = [g if e == 1 else f"{g}^{e}" for g, e in self.word()]
        return " ".join(parts) if parts else "1"


UNIT_MONOMIAL = NormalMonomial(0, 0, 0)
GENERATOR_MONOMIALS = {
    "a": NormalMonomial(1, 0, 0),
    "b": NormalMonomial(0, 1, 0),
    "c": NormalMonomial(0, 0, 1),
    "d": NormalMonomial(-1, 0, 0),
}


def _reduce_mono(mode: AlgebraMode, mono: NormalMonomial) -> Optional[NormalMonomial]:
    """Apply the quotient relations to a monomial; None means it became zero."""
    if not mode.is_quotient:
        return mono
    ell = mode.ell
    if mono.j >= ell or mono.k >= ell:
        return None
    period = mode.a_period
    t = mono.t
    if t >= 0:
        t %= period
    else:
        # d-monomials are transient in quotient modes; reduce the exponent
        # here, elimination of d happens in _cross_power.
        t = -((-t) % period)
    return NormalMonomial(t, mono.j, mono.k)


def _cross_power(
    mode: AlgebraMode, mono: NormalMonomial, g: str, e: int, power: int = 0, tail: tuple[int, int] = (0, 0)
) -> tuple[tuple[NormalMonomial, CyclotomicScalar], ...]:
    """Normal form of q^power * mono * g^e * b^tail[0] c^tail[1] (e >= 1) when
    g^e meets the other letter of the a/d axis, by the q-binomial theorem:
    mono = a^t b^j c^k with g = "d" (in a quotient a^t is first lifted to
    a^(t + L s) >= d^e, L the order of a, which eliminates d), or
    mono = b^j c^k d^m with g = "a".  One q-binomial row; the terms come in
    increasing powers of bc, hence sorted."""
    ell = mode.ell
    t, j, k = mono
    if g == "d":
        # a^t b^j c^k d^e: b^j c^k passes d^s, s = min(t, e), then a^s d^s expands
        if mode.is_quotient and t < e:
            t += mode.a_period * -((t - e) // mode.a_period)
        s = min(t, e)
        row = q_binomial_row(ell, s, 2)
        t_out = t - e
        powers = [(j + k) * s + r * r for r in range(s + 1)]
    else:
        # b^j c^k d^m a^e: d^s a^s expands, s = min(m, e); the leftover a^(e-m)
        # or d^(m-e) passes (bc)^r, and a^(e-m) also passes b^j c^k
        m = -t
        s = min(m, e)
        row = q_binomial_row(ell, s, -2)
        t_out = t + e
        powers = [-r * r - 2 * r * abs(e - m) - (j + k) * max(e - m, 0) for r in range(s + 1)]
    tj, tk = tail
    power += min(t_out, 0) * (tj + tk)  # the tail passes a leftover d-power
    terms = []
    for r, binom in enumerate(row):
        reduced = _reduce_mono(mode, NormalMonomial(t_out, j + r + tj, k + r + tk))
        if reduced is None:
            break  # b^ell = 0 in a quotient, and the b exponent grows with r
        if binom.is_zero():
            continue
        c = q_power(ell, power + powers[r])
        terms.append((reduced, c if binom.is_one() else c * binom))
    return tuple(terms)


@lru_cache(maxsize=None)
def _mono_mul(mode: AlgebraMode, m1: NormalMonomial, m2: NormalMonomial) -> tuple[tuple[NormalMonomial, CyclotomicScalar], ...]:
    """Normal form of m1 * m2 (m1 reduced in the mode), sorted by monomial.

    m2 = a^t2 b^j2 c^k2 or b^j2 c^k2 d^-t2.  Unless an a-power meets a
    d-power, the product is one monomial times a power of q: b^j1 c^k1 passes
    a^t2, and b^j2 c^k2 pass a d-power of m1, so with u = max(t2, 0)
    m1 m2 = q^(-(j1+k1) u + min(t1, 0) (j2+k2)) a/d^(t1+u) b^(j1+j2) c^(k1+k2),
    reduced by ``_reduce_mono``.  In F and Fhat, where every m1 is d-free,
    this is every product of two normal monomials.  Otherwise there is
    exactly one cross expansion (``_cross_power``): d^-t1 a^t2, or the
    monomial so far times d^-t2 (in a quotient also when its a-power falls
    short: the transient d of ``monomial_element`` and S)."""
    t1, j1, k1 = m1
    t2, j2, k2 = m2
    if t1 < 0 < t2:
        return _cross_power(mode, m1, "a", t2, tail=(j2, k2))
    u = max(t2, 0)
    power = -(j1 + k1) * u + min(t1, 0) * (j2 + k2)
    mono = _reduce_mono(mode, NormalMonomial(t1 + u, j1 + j2, k1 + k2))
    if mono is None:
        return ()
    if t2 < 0:
        if mono.t > 0 or (mode.is_quotient and mono.t == 0):
            return _cross_power(mode, mono, "d", -t2, power)
        mono = _reduce_mono(mode, NormalMonomial(mono.t + t2, mono.j, mono.k))
    return ((mono, q_power(mode.ell, power)),)


def _summed(terms: Iterable[tuple[Hashable, CyclotomicScalar]]) -> dict:
    """The one term accumulator: {key: summed coefficient} over (key,
    coefficient) pairs.  Coefficients are summed per key, keys keep the
    order in which they were first seen, and keys whose sum is zero are
    dropped once at the end.  Every sum, product and coproduct of elements
    and tensors is summed here; the keys are monomials, or tuples of
    monomials for tensors."""
    acc = {}
    for key, c in terms:
        acc[key] = acc[key] + c if key in acc else c
    return {key: c for key, c in acc.items() if c}


@dataclass
class AlgebraElement:
    """A finite scalar-weighted sum of normal monomials.

    Treated as immutable: operations return new elements, and the term map
    never stores zero coefficients, so equality is term-by-term.
    """

    mode: AlgebraMode
    terms: dict[NormalMonomial, CyclotomicScalar] = field(default_factory=dict)

    def _check_mode(self, other: "AlgebraElement") -> None:
        if self.mode != other.mode:
            raise ValueError(f"algebra mode mismatch: {self.mode} vs {other.mode}")

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self) -> list[tuple[NormalMonomial, CyclotomicScalar]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0])

    @property
    def ell(self) -> int:
        return self.mode.ell

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_mode(other)
        return AlgebraElement(self.mode, _summed(chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.mode, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        if isinstance(c, (int, Fraction)):
            c = CyclotomicScalar.from_rational(self.ell, c)
        if c.is_zero():
            return zero(self.mode)
        return AlgebraElement(self.mode, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if not isinstance(other, (int, Fraction, CyclotomicScalar)):
            return NotImplemented
        return self.scale(other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [term_text(str(coeff), mono.label(), " ") for mono, coeff in self.items()]
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<{self.mode.kind}(ell={self.ell}): {self}>"


def term_text(coeff: str, label: str, sep: str) -> str:
    """One printed term: the coefficient text, ``sep`` and the monomial text.
    The coefficients 1 and -1 shrink to a sign, and a coefficient of
    several terms (the only ones with a space) or with a fraction is
    bracketed, so that "(1/2) a" never reads as 1/(2a).  The text and the
    LaTeX form of an element share this rule."""
    if label == "1":
        return coeff
    if coeff == "1":
        return label
    if coeff == "-1":
        return f"-{label}"
    if " " in coeff or "/" in coeff:
        return f"({coeff}){sep}{label}"
    return f"{coeff}{sep}{label}"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero(mode: AlgebraMode) -> AlgebraElement:
    return AlgebraElement(mode, {})


def unit(mode: AlgebraMode) -> AlgebraElement:
    return AlgebraElement(mode, {UNIT_MONOMIAL: CyclotomicScalar.one(mode.ell)})


def monomial_element(mode: AlgebraMode, mono: NormalMonomial, coeff=None) -> AlgebraElement:
    c = CyclotomicScalar.one(mode.ell) if coeff is None else coeff
    if isinstance(c, (int, Fraction)):
        c = CyclotomicScalar.from_rational(mode.ell, c)
    reduced = _reduce_mono(mode, mono)
    if reduced is None or c.is_zero():
        return zero(mode)
    if reduced.t < 0 and mode.is_quotient:
        # eliminate d: b^j c^k times d^-t folds through the d-rewrite step
        terms = _mono_mul(mode, NormalMonomial(0, reduced.j, reduced.k), NormalMonomial(reduced.t, 0, 0))
        element = AlgebraElement(mode, dict(terms))
        return element if coeff is None else element.scale(c)
    return AlgebraElement(mode, {reduced: c})


def generator(mode: AlgebraMode, g: str) -> AlgebraElement:
    if g not in GENERATOR_MONOMIALS:
        raise ValueError(f"unknown generator {g!r}")
    return monomial_element(mode, GENERATOR_MONOMIALS[g])


def generators(mode: AlgebraMode) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement, AlgebraElement]:
    return tuple(generator(mode, g) for g in GENERATORS)  # type: ignore[return-value]


def from_word(mode: AlgebraMode, word: Iterable[tuple[str, int]], coeff=None) -> AlgebraElement:
    """Normal form of coeff * g1^e1 g2^e2 ... (coeff, or 1, for the empty
    word): the first power carries coeff, then one product per power."""
    result = None
    for g, e in word:
        if g not in GENERATOR_MONOMIALS:
            raise ValueError(f"unknown generator {g!r}")
        if e < 0:
            raise ValueError("exponents must be >= 0")
        power = NormalMonomial(*(e * x for x in GENERATOR_MONOMIALS[g]))
        factor = monomial_element(mode, power, coeff if result is None else None)
        result = factor if result is None else multiply(result, factor)
    return monomial_element(mode, UNIT_MONOMIAL, coeff) if result is None else result


def _product(mode: AlgebraMode, x, y) -> dict:
    """The summed terms of x y, for two sequences of (monomial, nonzero
    coefficient) terms: c1 c2 once per pair, times each term of their
    monomial product.  Two single terms with a one-term product skip the
    sum.  The one product loop, of ``multiply`` and ``corep.tensor``."""
    if len(x) == 1 and len(y) == 1:
        ((m1, c1),), ((m2, c2),) = x, y
        product = _mono_mul(mode, m1, m2)
        if len(product) == 1:
            ((mono, c),) = product
            return {mono: c1 * c2 * c}
    terms = []
    for m1, c1 in x:
        for m2, c2 in y:
            c12 = c1 * c2
            for mono, c in _mono_mul(mode, m1, m2):
                terms.append((mono, c12 * c))
    return _summed(terms)


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._check_mode(y)
    return AlgebraElement(x.mode, _product(x.mode, x.terms.items(), y.terms.items()))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def is_central(x: AlgebraElement) -> bool:
    """True iff x commutes with each of the four generators."""
    return all(multiply(x, g) == multiply(g, x) for g in generators(x.mode))


def project(target: AlgebraMode, x: AlgebraElement) -> AlgebraElement:
    """Canonical projection onto a quotient mode (an algebra homomorphism)."""
    if not target.is_quotient_of(x.mode):
        raise ValueError(f"{target} is not a quotient of {x.mode}")
    terms = []
    for mono, coeff in x.terms.items():
        terms.extend(monomial_element(target, mono, coeff).terms.items())
    return AlgebraElement(target, _summed(terms))


def pbw_coordinates(elements: list[AlgebraElement]) -> tuple[SparseMatrix, list[NormalMonomial]]:
    """Coordinate matrix of the elements over the union of their monomials,
    as a ``SparseMatrix``: row i holds {column: coefficient} for the terms of
    elements[i], which are all nonzero.

    Rows follow the input order; columns are the occurring monomials in
    sorted order (also returned), with at least one column.  Rank
    certificates read off this matrix.
    """
    if not elements:
        raise ValueError("need at least one element")
    mode = elements[0].mode
    for e in elements:
        if e.mode != mode:
            raise ValueError("mixed modes in pbw_coordinates")
    columns = sorted({m for e in elements for m in e.terms})
    col_index = {m: i for i, m in enumerate(columns)}
    rows = [{col_index[m]: c for m, c in e.terms.items()} for e in elements]
    return SparseMatrix(mode.ell, len(rows), max(len(columns), 1), rows), columns


def all_monomials(mode: AlgebraMode) -> list[NormalMonomial]:
    """The full monomial basis of a finite quotient (ell^3 or 2 ell^3 words)."""
    if not mode.is_quotient:
        raise ValueError("the generic algebra is infinite dimensional")
    ell = mode.ell
    return [
        NormalMonomial(t, j, k)
        for t in range(mode.a_period)
        for j in range(ell)
        for k in range(ell)
    ]


def monomials_of_degree(max_degree: int) -> list[NormalMonomial]:
    """All PBW monomials of total degree <= max_degree (generic mode)."""
    out = []
    for deg in range(max_degree + 1):
        for t in range(deg + 1):
            for j in range(deg - t + 1):
                k = deg - t - j
                out.append(NormalMonomial(t, j, k))
                if t > 0:
                    out.append(NormalMonomial(-t, j, k))
    return sorted(set(out))
