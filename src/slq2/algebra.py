"""The coordinate algebra of SL_q(2) at a root of unity and its finite quotients.

Elements are scalar-weighted sums of PBW basis monomials ``a^i b^j c^k``
and ``b^j c^k d^m``.  Multiplication rewrites words step by step using

    ba -> q^-1 ab,  ca -> q^-1 ac,  db -> q^-1 bd,  dc -> q^-1 cd,
    cb -> bc,       ad -> 1 + q bc, da -> 1 + q^-1 bc,

with the a/d axis stored as one signed exponent, so a monomial never
contains both letters.  The two finite quotients additionally impose

    F:     a^ell = d^ell = 1,   b^ell = c^ell = 0,
    Fhat:  a^2ell = d^2ell = 1, b^ell = c^ell = 0.

In the quotient modes d itself is eliminated (d = a^(L-1) (1 + q bc) with
L the order of a), so the reachable monomials are exactly the a^p b^r c^s
with p < L and r, s < ell: the ell^3 (resp. 2 ell^3) dimensional PBW basis
of the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .cyclo import CyclotomicScalar, q_power, validate_ell
from .linalg import ScalarMatrix

GENERATORS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class AlgebraMode:
    """Which algebra we are working in: the full root-of-unity algebra or a
    finite quotient.  ``kind`` is one of "generic", "F", "Fhat"."""

    kind: str
    ell: int

    def __post_init__(self):
        validate_ell(self.ell)
        if self.kind not in ("generic", "F", "Fhat"):
            raise ValueError(f"unknown algebra mode {self.kind!r}")

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
        """True if self is a (possibly trivial) quotient of other."""
        if self.ell != other.ell:
            return False
        order = {"generic": 0, "Fhat": 1, "F": 2}
        return order[self.kind] >= order[other.kind]


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

    def letters(self) -> Iterator[str]:
        for g, e in self.word():
            for _ in range(e):
                yield g

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
        # here, elimination of d happens in _times_generator.
        t = -((-t) % period)
    return NormalMonomial(t, mono.j, mono.k)


def _times_generator(mode: AlgebraMode, mono: NormalMonomial, g: str) -> list[tuple[NormalMonomial, CyclotomicScalar]]:
    """Normal form of mono * g as a list of (monomial, coefficient) terms."""
    ell = mode.ell
    t, j, k = mono
    out: list[tuple[NormalMonomial, CyclotomicScalar]] = []
    if t >= 0:
        if g == "a":
            # a^t b^j c^k a = q^-(j+k) a^(t+1) b^j c^k
            out.append((NormalMonomial(t + 1, j, k), q_power(ell, -(j + k))))
        elif g == "b":
            out.append((NormalMonomial(t, j + 1, k), q_power(ell, 0)))
        elif g == "c":
            out.append((NormalMonomial(t, j, k + 1), q_power(ell, 0)))
        elif g == "d":
            teff = t
            if t == 0:
                if mode.is_quotient:
                    # a has finite order L, so d = a^(L-1)(1 + q bc)
                    teff = mode.a_period
                else:
                    out.append((NormalMonomial(-1, j, k), q_power(ell, 0)))
                    return out
            # a^t b^j c^k d = q^(j+k) (a^(t-1) b^j c^k + q a^(t-1) b^(j+1) c^(k+1))
            out.append((NormalMonomial(teff - 1, j, k), q_power(ell, j + k)))
            out.append((NormalMonomial(teff - 1, j + 1, k + 1), q_power(ell, j + k + 1)))
        else:
            raise ValueError(f"unknown generator {g!r}")
    else:
        m = -t
        if g == "d":
            out.append((NormalMonomial(t - 1, j, k), q_power(ell, 0)))
        elif g == "b":
            out.append((NormalMonomial(t, j + 1, k), q_power(ell, t)))
        elif g == "c":
            out.append((NormalMonomial(t, j, k + 1), q_power(ell, t)))
        elif g == "a":
            # b^j c^k d^m a = b^j c^k d^(m-1) + q^(2t+1) b^(j+1) c^(k+1) d^(m-1)
            out.append((NormalMonomial(t + 1, j, k), q_power(ell, 0)))
            out.append((NormalMonomial(t + 1, j + 1, k + 1), q_power(ell, 2 * t + 1)))
        else:
            raise ValueError(f"unknown generator {g!r}")
    reduced = []
    for m2, c in out:
        r = _reduce_mono(mode, m2)
        if r is not None:
            reduced.append((r, c))
    return reduced


@lru_cache(maxsize=None)
def _mono_mul(mode: AlgebraMode, m1: NormalMonomial, m2: NormalMonomial) -> tuple[tuple[NormalMonomial, CyclotomicScalar], ...]:
    """Normal form of the product m1 * m2."""
    current: dict[NormalMonomial, CyclotomicScalar] = {m1: CyclotomicScalar.one(mode.ell)}
    for g in m2.letters():
        nxt: dict[NormalMonomial, CyclotomicScalar] = {}
        for mono, coeff in current.items():
            for mono2, c2 in _times_generator(mode, mono, g):
                acc = nxt.get(mono2)
                val = coeff * c2 if acc is None else acc + coeff * c2
                nxt[mono2] = val
        current = {m: c for m, c in nxt.items() if not c.is_zero()}
    return tuple(sorted(current.items(), key=lambda mc: mc[0]))


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def coefficient(self, mono: NormalMonomial) -> CyclotomicScalar:
        return self.terms.get(mono, CyclotomicScalar.zero(self.mode.ell))

    def monomials(self) -> list[NormalMonomial]:
        return sorted(self.terms)

    def items(self) -> list[tuple[NormalMonomial, CyclotomicScalar]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0])

    @property
    def ell(self) -> int:
        return self.mode.ell

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_mode(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            val = c if acc is None else acc + c
            if val.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = val
        return AlgebraElement(self.mode, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.mode, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
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
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            cs = str(coeff)
            label = mono.label()
            if label == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(label)
            elif cs == "-1":
                parts.append(f"-{label}")
            elif ("+" in cs) or (" - " in cs) or (cs.startswith("-") and " " in cs):
                parts.append(f"({cs}) {label}")
            elif "/" in cs:
                parts.append(f"({cs}) {label}")
            else:
                parts.append(f"{cs} {label}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<{self.mode.kind}(ell={self.ell}): {self}>"


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
        return AlgebraElement(mode, dict(terms)).scale(c)
    return AlgebraElement(mode, {reduced: c})


def generator(mode: AlgebraMode, g: str) -> AlgebraElement:
    if g not in GENERATOR_MONOMIALS:
        raise ValueError(f"unknown generator {g!r}")
    return monomial_element(mode, GENERATOR_MONOMIALS[g])


def generators(mode: AlgebraMode) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement, AlgebraElement]:
    return tuple(generator(mode, g) for g in GENERATORS)  # type: ignore[return-value]


def from_word(mode: AlgebraMode, word: Iterable[tuple[str, int]], coeff=None) -> AlgebraElement:
    """Normal form of coeff * g1^e1 g2^e2 ..., one product per power g^e."""
    result = unit(mode) if coeff is None else unit(mode).scale(coeff)
    for g, e in word:
        if g not in GENERATOR_MONOMIALS:
            raise ValueError(f"unknown generator {g!r}")
        if e < 0:
            raise ValueError("exponents must be >= 0")
        power = NormalMonomial(*(e * x for x in GENERATOR_MONOMIALS[g]))
        result = multiply(result, monomial_element(mode, power))
    return result


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._check_mode(y)
    mode = x.mode
    acc: dict[NormalMonomial, CyclotomicScalar] = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            c12 = c1 * c2
            for mono, c in _mono_mul(mode, m1, m2):
                prev = acc.get(mono)
                val = c12 * c if prev is None else prev + c12 * c
                acc[mono] = val
    return AlgebraElement(mode, {m: c for m, c in acc.items() if not c.is_zero()})


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
    out = zero(target)
    for mono, coeff in x.terms.items():
        out = out + monomial_element(target, mono, coeff)
    return out


def pbw_coordinates(elements: list[AlgebraElement]) -> tuple[ScalarMatrix, list[NormalMonomial]]:
    """Coordinate matrix of the elements over the union of their monomials.

    Rows follow the input order; columns are the occurring monomials in
    sorted order (also returned).  Rank certificates read off this matrix.
    """
    if not elements:
        raise ValueError("need at least one element")
    mode = elements[0].mode
    for e in elements:
        if e.mode != mode:
            raise ValueError("mixed modes in pbw_coordinates")
    columns = sorted({m for e in elements for m in e.terms})
    zero_scalar = CyclotomicScalar.zero(mode.ell)
    col_index = {m: i for i, m in enumerate(columns)}
    rows = []
    for e in elements:
        row = [zero_scalar] * max(len(columns), 1)
        for m, c in e.terms.items():
            row[col_index[m]] = c
        rows.append(row)
    return ScalarMatrix.from_rows(mode.ell, rows), columns


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


def monomials_of_degree(max_degree: int, *, with_d: bool = True) -> list[NormalMonomial]:
    """All PBW monomials of total degree <= max_degree (generic mode)."""
    out = []
    for deg in range(max_degree + 1):
        for t in range(deg + 1):
            for j in range(deg - t + 1):
                k = deg - t - j
                out.append(NormalMonomial(t, j, k))
                if with_d and t > 0:
                    out.append(NormalMonomial(-t, j, k))
    return sorted(set(out))
