"""Hopf structure: coproduct, counit, antipode, characters, the faithful
matrix representation of the quotient F, and coinvariance checks.

The coproduct is the matrix comultiplication on the generator matrix
[[a, b], [c, d]] extended as an algebra homomorphism, so
Delta(a^t b^j c^k) = Delta(a)^t Delta(b)^j Delta(c)^k (likewise with d):
a legwise product, through ``algebra._mono_mul``, of the powers Delta(g)^n
in closed form (the q-binomial theorem), folded from the first power.  A
legwise product forms each coefficient in two steps: the coefficient
times a left-leg scalar once, then times each right-leg scalar
(``_leg_products``).  S of a PBW monomial is one monomial, rewritten
without d in a quotient (``_antipode_monomial``, memoised per monomial);
``antipode`` and the antipode check both read it.  Both legs of a tensor
are kept in normal form, so the counit check is a canonical term
comparison.

Coassociativity and the antipode axiom are sums of products that are
only compared, never kept: each check lists its products as parallel
columns of keys, signs and indices into pools of the scalars it reads
(``_coassociativity_holds``, ``_antipode_holds``), and
``cyclo._sums_vanish`` proves that every signed sum vanishes with one
exact integer zero test per key, building no scalar.

A tensor is a sum of pairs m1 (x) m2 of monomials, an element of A (x) A,
where Delta lands.  A tensor, like an algebra element, is an immutable
value: every operation builds its terms and sums them once with
``algebra._summed``, the one term accumulator, so the tensors memoised by
``_coproduct_monomial`` and ``_coproduct_generator_power`` can be
shared.  Adding or multiplying tensors of different modes raises
``ValueError``, as for elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, count

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
)
from .cyclo import CyclotomicScalar, _sums_vanish, q_binomial_row, q_half_power, q_power
from .linalg import SparseMatrix, SparseRows

MonoPair = tuple[NormalMonomial, NormalMonomial]


@dataclass
class TensorElement:
    """A finite sum of pure tensors m1 (x) m2 of normal monomials: an
    element of A (x) A, where the coproduct lands.

    Treated as immutable, like ``AlgebraElement``: operations return new
    tensors, and the term map never stores zero coefficients, so equality
    is term-by-term."""

    mode: AlgebraMode
    terms: dict[MonoPair, CyclotomicScalar] = field(default_factory=dict)

    def _check_mode(self, other: "TensorElement") -> None:
        if self.mode != other.mode:
            raise ValueError(f"tensor mode mismatch: {self.mode} vs {other.mode}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_mode(other)
        return TensorElement(self.mode, _summed(chain(self.terms.items(), other.terms.items())))

    def scale(self, c) -> "TensorElement":
        if isinstance(c, (int, Fraction)):
            c = CyclotomicScalar.from_rational(self.mode.ell, c)
        if c.is_zero():
            return TensorElement(self.mode, {})
        return TensorElement(self.mode, {k: c * v for k, v in self.terms.items()})

    def multiply(self, other: "TensorElement") -> "TensorElement":
        """Legwise product (no cross-leg sign)."""
        self._check_mode(other)
        mode = self.mode
        terms = []
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                terms.extend(_leg_products(c1 * c2, _mono_mul(mode, x1, x2), _mono_mul(mode, y1, y2)))
        return TensorElement(mode, _summed(terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {x.label()} (x) {y.label()}" for (x, y), c in sorted(self.terms.items()))


def _leg_products(coeff: CyclotomicScalar, left, right):
    """The terms ((u, v), scalar) of coeff * (left (x) right), left varying
    slowest; each leg is a sequence of (monomial, scalar) terms with nonzero
    scalars.  coeff times a left scalar is formed once per left term, then
    multiplied by each right scalar."""
    if not right:
        return  # a zero leg: no product is worth forming
    for mono, u in left:
        c = coeff * u
        for other, v in right:
            yield (mono, other), c * v


def tensor_of(x: AlgebraElement, y: AlgebraElement) -> TensorElement:
    """The pure tensor x (x) y of two elements of one mode."""
    x._check_mode(y)
    terms = _leg_products(CyclotomicScalar.one(x.ell), x.terms.items(), y.terms.items())
    return TensorElement(x.mode, _summed(terms))


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
            terms.extend(_leg_products(binom, *legs))
    return TensorElement(mode, _summed(terms))


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
    return TensorElement(x.mode, _summed(terms))


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


def _coassociativity_holds(dx: TensorElement) -> bool:
    """(Delta (x) id) dx - (id (x) Delta) dx = 0: the products c * v of each
    term c of dx with each term v of the coproduct of one of its legs,
    signed by side.  The coproduct of each leg monomial is read once
    (``_coproduct_monomial``).  The monomials are numbered 0, ..., N - 1,
    and the key of n1 (x) n2 (x) n3 is the int (n1 N + n2) N + n3."""
    mode, inner, legs = dx.mode, [], {}
    number = {m: i for i, m in enumerate(dict.fromkeys(chain.from_iterable(dx.terms)))}
    for m in list(number):
        terms = _coproduct_monomial(mode, m).terms
        pairs = [(number.setdefault(n1, len(number)), number.setdefault(n2, len(number))) for n1, n2 in terms]
        legs[m] = pairs, range(len(inner), len(inner) + len(pairs))
        inner.extend(terms.values())
    size = len(number)
    keys, signs, outer, indices = [], [], [], []
    for i, (m1, m2) in enumerate(dx.terms):
        (left, left_at), (right, right_at) = legs[m1], legs[m2]
        last, first = number[m2], number[m1] * size
        keys += [(a * size + b) * size + last for a, b in left]
        keys += [(first + a) * size + b for a, b in right]
        signs += [1] * len(left) + [-1] * len(right)
        outer += [i] * (len(left) + len(right))
        indices += left_at
        indices += right_at
    return _sums_vanish(mode.ell, (list(dx.terms.values()), inner), keys, signs, (outer, indices))


def _antipode_holds(dx: TensorElement, eps: CyclotomicScalar) -> bool:
    """m(S (x) id) dx = eps 1 = m(id (x) S) dx: the products c * v * w over
    each term c of dx, each term v of the S of one leg
    (``_antipode_monomial``, read once per leg monomial) and each term w of
    its monomial product with the other leg (``_mono_mul``), less eps at
    the unit monomial of each side.  The monomials are numbered, with the
    unit 0, and the key of a monomial n on side 0 (left) or 1 is 2 n + side."""
    mode = dx.mode
    one = CyclotomicScalar.one(mode.ell)
    s_values, products, s_legs, number = [one], [one], {}, {UNIT_MONOMIAL: 0}
    for m in dict.fromkeys(chain.from_iterable(dx.terms)):
        terms = _antipode_monomial(mode, m)
        s_legs[m] = [(n, j) for (n, _), j in zip(terms, count(len(s_values)))]
        s_values.extend(v for _, v in terms)
    # eps * 1 * 1 at the unit of each side, then one product pool entry per term
    keys, outer, s_index = [0, 1], [len(dx.terms)] * 2, [0, 0]

    def add(side, i, j, terms):
        for mono, w in terms:
            keys.append(2 * number.setdefault(mono, len(number)) + side)
            outer.append(i)
            s_index.append(j)
            products.append(w)

    for i, (m1, m2) in enumerate(dx.terms):
        for n, j in s_legs[m1]:
            add(0, i, j, _mono_mul(mode, n, m2))
        for n, j in s_legs[m2]:
            add(1, i, j, _mono_mul(mode, m1, n))
    signs = [-1, -1] + [1] * (len(keys) - 2)
    pools = ([*dx.terms.values(), eps], s_values, products)
    return _sums_vanish(mode.ell, pools, keys, signs, (outer, s_index, [0, *range(len(products))]))


def check_hopf_axioms(x: AlgebraElement) -> HopfAxiomReport:
    """Coassociativity, counit and antipode axioms on x.  The counit check
    compares canonical terms; coassociativity and the antipode axiom are
    signed sums of products that ``cyclo._sums_vanish`` proves zero with
    exact integer arithmetic (``_coassociativity_holds``,
    ``_antipode_holds``)."""
    dx = coproduct(x)

    # eps of a PBW monomial is 1 without b and c, else 0
    left = _summed((m2, c) for (m1, m2), c in dx.terms.items() if not (m1.j or m1.k))
    right = _summed((m1, c) for (m1, m2), c in dx.terms.items() if not (m2.j or m2.k))
    counital = left == x.terms and right == x.terms

    return HopfAxiomReport(_coassociativity_holds(dx), counital, _antipode_holds(dx, counit(x)))


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
