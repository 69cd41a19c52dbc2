"""Hopf structure: coproduct, counit, antipode, characters, the faithful
matrix representation of the quotient F, and coinvariance checks.

The coproduct is the matrix comultiplication on the generator matrix
[[a, b], [c, d]] extended as an algebra homomorphism, so
Delta(a^t b^j c^k) = Delta(a)^t Delta(b)^j Delta(c)^k (likewise with d):
a legwise product, through ``algebra._mono_mul``, of the powers Delta(g)^n
in closed form (the q-binomial theorem), folded from the first power.  A
legwise product forms each coefficient prefix by prefix: the coefficient
times a leg-1 scalar once, then times each leg-2 scalar
(``_leg_products``).  S of a PBW monomial is one monomial, rewritten
without d in a quotient (``_antipode_monomial``, memoised per monomial);
``antipode`` and the antipode check both read it, and the check sums its
sides term by term over monomial products.  All
tensor legs are kept in normal form, so axiom checks are canonical term
comparisons.

A tensor, like an algebra element, is an immutable value: every
operation builds its terms and sums them once with ``algebra._summed``,
the one term accumulator, so the tensors memoised by
``_coproduct_monomial`` and ``_coproduct_generator_power`` can be shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

from .algebra import (
    GENERATOR_MONOMIALS,
    UNIT_MONOMIAL,
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    _mono_mul,
    _summed,
    generator,
    monomial_element,
    unit,
)
from .cyclo import CyclotomicScalar, q_binomial_row, q_half_power, q_power
from .linalg import SparseMatrix, SparseRows

MonoPair = tuple[NormalMonomial, ...]


@dataclass
class TensorElement:
    """A finite sum of pure tensors of normal monomials (rank 2 or 3).

    Treated as immutable, like ``AlgebraElement``: operations return new
    tensors, and the term map never stores zero coefficients."""

    mode: AlgebraMode
    rank: int
    terms: dict[MonoPair, CyclotomicScalar] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.mode == other.mode and self.rank == other.rank and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.mode, self.rank, _summed(chain(self.terms.items(), other.terms.items())))

    def scale(self, c) -> "TensorElement":
        if isinstance(c, (int, Fraction)):
            c = CyclotomicScalar.from_rational(self.mode.ell, c)
        if c.is_zero():
            return TensorElement(self.mode, self.rank, {})
        return TensorElement(self.mode, self.rank, {k: c * v for k, v in self.terms.items()})

    def multiply(self, other: "TensorElement") -> "TensorElement":
        """Legwise product (no cross-leg sign)."""
        if self.rank != other.rank:
            raise ValueError("tensor rank mismatch")
        terms = []
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                legs = [_mono_mul(self.mode, m1, m2) for m1, m2 in zip(key1, key2)]
                terms.extend(_leg_products(c1 * c2, legs))
        return TensorElement(self.mode, self.rank, _summed(terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            body = " (x) ".join(m.label() for m in key)
            parts.append(f"({c}) {body}")
        return " + ".join(parts)


def _leg_products(coeff: CyclotomicScalar, legs):
    """The terms (key, scalar) of coeff * (leg1 (x) leg2 (x) ...), leg 1
    varying slowest; each leg is a sequence of (monomial, scalar) terms with
    nonzero scalars.  The legs' products share their prefixes: coeff * v1
    is formed once per leg-1 term, then multiplied by each leg-2 scalar,
    and so on."""
    if not all(legs):
        return  # a zero leg: no prefix is worth forming
    *head, last = legs
    prefixes = [((), coeff)]
    for leg in head:
        prefixes = [(key + (mono,), c * v) for key, c in prefixes for mono, v in leg]
    for key, c in prefixes:
        for mono, v in last:
            yield key + (mono,), c * v


def tensor_of(*factors: AlgebraElement) -> TensorElement:
    mode = factors[0].mode
    terms = _leg_products(CyclotomicScalar.one(mode.ell), [f.terms.items() for f in factors])
    return TensorElement(mode, len(factors), _summed(terms))


# ---------------------------------------------------------------------------
# coproduct, counit, antipode
# ---------------------------------------------------------------------------

# g_ij -> g_i1 g_i2 g_1j g_2j, so that Delta(g_ij) = g_i1 (x) g_1j + g_i2 (x) g_2j
_COPRODUCT_FACTORS = {"a": "abac", "b": "abbd", "c": "cdac", "d": "cdbd"}


@lru_cache(maxsize=None)
def _coproduct_generator_power(mode: AlgebraMode, g: str, n: int) -> TensorElement:
    """Delta(g_ij)^n = sum_r (n r)_{q^-2} g_i1^(n-r) g_i2^r (x) g_1j^(n-r) g_2j^r,
    the q-binomial theorem for X = g_i1 (x) g_1j and Y = g_i2 (x) g_2j,
    which satisfy YX = q^-2 XY.  No leg mixes a and d, so each is one PBW
    monomial."""
    x1, y1, x2, y2 = (GENERATOR_MONOMIALS[h] for h in _COPRODUCT_FACTORS[g])
    terms = []
    for r, binom in enumerate(q_binomial_row(mode.ell, n, -2)):
        if not binom.is_zero():
            legs = [
                monomial_element(mode, NormalMonomial(*((n - r) * u + r * v for u, v in zip(x, y)))).terms.items()
                for x, y in ((x1, y1), (x2, y2))
            ]
            terms.extend(_leg_products(binom, legs))
    return TensorElement(mode, 2, _summed(terms))


@lru_cache(maxsize=None)
def _coproduct_monomial(mode: AlgebraMode, mono: NormalMonomial) -> TensorElement:
    """The legwise product of the Delta(g)^e over the word of mono, from its
    first power; Delta(1) = 1 (x) 1 for the unit monomial."""
    powers = [_coproduct_generator_power(mode, g, e) for g, e in mono.word()]
    return reduce(TensorElement.multiply, powers) if powers else _coproduct_generator_power(mode, "a", 0)


def coproduct(x: AlgebraElement) -> TensorElement:
    """Delta(x), extended multiplicatively from the generator matrix."""
    terms = []
    for mono, c in x.terms.items():
        for key, v in _coproduct_monomial(x.mode, mono).terms.items():
            terms.append((key, c * v))
    return TensorElement(x.mode, 2, _summed(terms))


def counit(x: AlgebraElement) -> CyclotomicScalar:
    """epsilon: a, d -> 1 and b, c -> 0, extended multiplicatively."""
    total = CyclotomicScalar.zero(x.ell)
    for mono, c in x.terms.items():
        if mono.j == 0 and mono.k == 0:
            total = total + c
    return total


@lru_cache(maxsize=None)
def _antipode_monomial(mode: AlgebraMode, mono: NormalMonomial) -> tuple[tuple[NormalMonomial, CyclotomicScalar], ...]:
    """S(mono) as a tuple of (monomial, coefficient) terms, memoised per
    (mode, monomial) like ``_coproduct_monomial``.  Reversing the word only
    commutes b past c, so S(a^t b^j c^k) = (-1)^(j+k) q^(k-j) b^j c^k d^t and
    symmetrically for d-monomials: one monomial, except that a quotient
    eliminates the d (``monomial_element``)."""
    coeff = q_power(mode.ell, mono.k - mono.j)
    if (mono.j + mono.k) % 2:
        coeff = -coeff
    return tuple(monomial_element(mode, NormalMonomial(-mono.t, mono.j, mono.k), coeff).terms.items())


def antipode(x: AlgebraElement) -> AlgebraElement:
    """S: a<->d, b -> -q^-1 b, c -> -q c, extended anti-multiplicatively,
    summed over the monomials of x (``_antipode_monomial``)."""
    return AlgebraElement(
        x.mode, _summed((n, c * v) for mono, c in x.terms.items() for n, v in _antipode_monomial(x.mode, mono))
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

@dataclass
class HopfAxiomReport:
    coassociative: bool
    counital: bool
    antipodal: bool

    @property
    def all_ok(self) -> bool:
        return self.coassociative and self.counital and self.antipodal


def _delta_on_leg(t: TensorElement, position: int) -> TensorElement:
    """Apply the coproduct to one leg of a rank-2 tensor, giving rank 3."""
    terms = []
    for (m1, m2), c in t.terms.items():
        inner = _coproduct_monomial(t.mode, m1 if position == 0 else m2)
        for (n1, n2), v in inner.terms.items():
            key = (n1, n2, m2) if position == 0 else (m1, n1, n2)
            terms.append((key, c * v))
    return TensorElement(t.mode, 3, _summed(terms))


def _antipode_sides(t: TensorElement) -> tuple[dict, dict]:
    """The summed terms of m(S (x) id) t and m(id (x) S) t for a rank-2
    tensor t: c * (v * w) over each term c of t, each term v of the S of
    one leg (``_antipode_monomial``) and each term w of its monomial product
    with the other leg (``_mono_mul``)."""
    mode = t.mode
    left: list[tuple[NormalMonomial, CyclotomicScalar]] = []
    right: list[tuple[NormalMonomial, CyclotomicScalar]] = []
    for (m1, m2), c in t.terms.items():
        for n, v in _antipode_monomial(mode, m1):
            left.extend((mono, c * (v * w)) for mono, w in _mono_mul(mode, n, m2))
        for n, v in _antipode_monomial(mode, m2):
            right.extend((mono, c * (v * w)) for mono, w in _mono_mul(mode, m1, n))
    return _summed(left), _summed(right)


def check_hopf_axioms(x: AlgebraElement) -> HopfAxiomReport:
    """Coassociativity, counit and antipode axioms on x, each a comparison of
    canonical terms; the antipode sides are summed term by term
    (``_antipode_sides``), with no element products."""
    dx = coproduct(x)
    coassoc = _delta_on_leg(dx, 0) == _delta_on_leg(dx, 1)

    # eps of a PBW monomial is 1 without b and c, else 0
    left = _summed((m2, c) for (m1, m2), c in dx.terms.items() if not (m1.j or m1.k))
    right = _summed((m1, c) for (m1, m2), c in dx.terms.items() if not (m2.j or m2.k))
    counital = left == x.terms and right == x.terms

    target = unit(x.mode).scale(counit(x)).terms
    antipodal = _antipode_sides(dx) == (target, target)

    return HopfAxiomReport(coassoc, counital, antipodal)


# ---------------------------------------------------------------------------
# characters of the finite quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """One dimensional representation of a finite quotient.

    Characters kill b and c; on the class of a they take the value
    q^index for F and s^index for Fhat (s the square root of q of order
    2 ell), so the index lives in {1, ..., ell} resp. {1, ..., 2 ell} and
    the top index is the counit.
    """

    mode: AlgebraMode
    index: int

    def value_on_a(self) -> CyclotomicScalar:
        if self.mode.kind == "F":
            return q_power(self.mode.ell, self.index)
        return q_half_power(self.mode.ell, self.index)


def character(mode: AlgebraMode, index: int) -> Character:
    if not mode.is_quotient:
        raise ValueError("characters are defined on the finite quotients only")
    order = mode.a_period
    if not 1 <= index <= order:
        raise ValueError(f"character index must lie in 1..{order}")
    return Character(mode, index)


def characters(mode: AlgebraMode) -> list[Character]:
    return [character(mode, i) for i in range(1, mode.a_period + 1)]


@lru_cache(maxsize=None)
def _characters_by_value(mode: AlgebraMode) -> dict[CyclotomicScalar, Character]:
    """The character table of a quotient, keyed by the value on a."""
    return {chi.value_on_a(): chi for chi in characters(mode)}


def evaluate_character(chi: Character, x: AlgebraElement) -> CyclotomicScalar:
    if x.mode != chi.mode:
        raise ValueError("character/element mode mismatch")
    va = chi.value_on_a()
    total = CyclotomicScalar.zero(x.ell)
    for mono, c in x.terms.items():
        if mono.j or mono.k:
            continue
        total = total + c * va**mono.t
    return total


def convolve(chi1: Character, chi2: Character) -> Character:
    """Convolution product (chi1 * chi2)(x) = sum chi1(x_(1)) chi2(x_(2)).

    Computed through the coproduct of the class of a and looked up in the
    character table by its value on a (``_characters_by_value``, one table
    per mode); the group is cyclic of order ell (F) or 2 ell (Fhat), and a
    value outside the table raises ``AssertionError``.
    """
    if chi1.mode != chi2.mode:
        raise ValueError("cannot convolve characters of different quotients")
    mode = chi1.mode
    da = coproduct(generator(mode, "a"))
    value = CyclotomicScalar.zero(mode.ell)
    for (m1, m2), c in da.terms.items():
        value = value + c * evaluate_character(chi1, monomial_element(mode, m1)) * evaluate_character(
            chi2, monomial_element(mode, m2)
        )
    chi = _characters_by_value(mode).get(value)
    if chi is None:
        raise AssertionError("convolution left the character group")
    return chi


def restrict_character(chi: Character) -> Character:
    """The classical-subgroup surjection Z_2ell -> Z_ell: index mod ell.

    Its kernel has order two (the counit and the index-ell character), which
    is exactly the kernel of the classical spin double cover.
    """
    if chi.mode.kind != "Fhat":
        raise ValueError("restriction maps Fhat characters to F characters")
    ell = chi.mode.ell
    idx = chi.index % ell
    return character(AlgebraMode.quotient_f(ell), idx if idx else ell)


# ---------------------------------------------------------------------------
# faithful matrix representation of A(F)
# ---------------------------------------------------------------------------

class FRepresentation:
    """The ell^3 dimensional representation of the quotient F built from the
    cyclic shift J, the charge diagonal Q = diag(q^-i) and the nilpotent
    shift N:  a -> J x 1 x 1,  b -> Q x N x 1,  c -> Q x 1 x N.  F
    eliminates d, so ``of`` builds every image, d's included, from a, b and
    c monomials; ``verify`` checks rho(a) rho(d) = 1 + q rho(b) rho(c).

    ``of`` reads the image of a monomial off in closed form, as sparse
    rows: rho(a^t b^j c^k) = J^t Q^(j+k) x N^j x N^k sends the basis vector
    (r1, r2, r3), at row (r1 ell + r2) ell + r3, to q^(-(c+1)(j+k)) times
    (c, r2 - j, r3 - k) with c = (r1 - t) mod ell, and to 0 when r2 < j or
    r3 < k.  J, Q and N are kept as ``SparseMatrix`` values too, for
    ``verify``'s check of the reduced quantum plane.
    """

    def __init__(self, ell: int):
        self.ell = ell
        self.mode = AlgebraMode.quotient_f(ell)
        one = CyclotomicScalar.one(ell)
        # J has its ones at (i + 1 mod ell, i), N at (i + 1, i) for i + 1 < ell; Q = diag(q^-(i+1))
        self.j_matrix = SparseMatrix(ell, ell, ell, [{(r - 1) % ell: one} for r in range(ell)])
        self.n_matrix = SparseMatrix(ell, ell, ell, [{r - 1: one} if r else {} for r in range(ell)])
        self.q_matrix = SparseMatrix(ell, ell, ell, [{r: q_power(ell, -(r + 1))} for r in range(ell)])

    def of(self, x: AlgebraElement) -> SparseMatrix:
        """Matrix image of an element of the quotient F: the sum over its
        monomials of the coefficient times the closed-form image.

        Each cell is written once, with no update: in F the exponents
        satisfy 0 <= t, j, k < ell, and in the row of (r1, r2, r3) the
        monomial a^t b^j c^k lands at the column of
        ((r1 - t) mod ell, r2 - j, r3 - k), which determines (t, j, k).  So
        two terms of an element never meet in one cell, and the nonzero
        coefficient times a power of q is never zero."""
        if x.mode != self.mode:
            raise ValueError("FRepresentation expects elements of the quotient F")
        ell = self.ell
        rows: SparseRows = [{} for _ in range(ell**3)]
        for mono, coeff in x.terms.items():
            for r1 in range(ell):
                c = (r1 - mono.t) % ell
                value = coeff * q_power(ell, -(c + 1) * (mono.j + mono.k))
                for r2 in range(mono.j, ell):
                    for r3 in range(mono.k, ell):
                        rows[(r1 * ell + r2) * ell + r3][(c * ell + r2 - mono.j) * ell + r3 - mono.k] = value
        return SparseMatrix(ell, ell**3, ell**3, rows)


# ---------------------------------------------------------------------------
# coinvariance
# ---------------------------------------------------------------------------

def coinvariance_check(x: AlgebraElement, quotient: AlgebraMode) -> bool:
    """True iff (id (x) pi_quotient) Delta(x) equals x (x) 1: the summed
    terms (m1, n) of the projected coproduct are exactly the (m, 1) with
    the coefficients of x."""
    if not quotient.is_quotient:
        raise ValueError("coinvariance is relative to a finite quotient")
    if not quotient.is_quotient_of(x.mode):
        raise ValueError("quotient does not project from the element's mode")
    terms = []
    for (m1, m2), c in coproduct(x).terms.items():
        for n, v in monomial_element(quotient, m2, c).terms.items():
            terms.append(((m1, n), v))
    return _summed(terms) == {(m, UNIT_MONOMIAL): c for m, c in x.terms.items()}
