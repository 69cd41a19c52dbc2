"""The coquasitriangular pairing on the quantum SL(2) algebra and the
braiding it induces on corepresentations.

The pairing is fixed on generator pairs by the table

    R(a,a) = q^-1/2   R(a,d) = q^1/2    R(d,a) = q^1/2   R(d,d) = q^-1/2
    R(b,c) = q^-1/2 - q^3/2              all other generator pairs 0

and extended to monomials through the coproduct.  Extending to products
needs a leg-assignment choice in the second slot, and the two choices
genuinely differ:

* ``ordered`` (the default): order-preserving legs,
      R(x, y z) = sum R(x_(1), y) R(x_(2), z),
  evaluated second slot first.  This deterministic scheme reproduces the
  reference braiding tables of the V-series entry for entry.  It is not a
  well-defined bilinear form on the algebra (the second slot is not
  invariant under the defining relations, e.g. R(b, ca) != q^-1 R(b, ac)),
  so the induced braiding fails the braid relation on some V-triples.

* ``structural``: reversed legs,
      R(x, y z) = sum R(x_(1), z) R(x_(2), y),
  the textbook coquasitriangularity axiom.  This extension is provably
  order-independent here, and its braiding satisfies the braid relation
  and both hexagon identities exactly.  It agrees with the reference
  tables except in a handful of product entries (2 of 36 and 4 of 81 in
  the two V2 tables), which is how those tables were evidently computed.

Both slots use the order-preserving first-slot rule
R(u w, y) = sum R(u, y_(1)) R(w, y_(2)).

The induced braiding on corepresentations u (x) u' -> u' (x) u is

    Psi(u_i (x) u'_r) = sum_{j,s} R(rho'[r][s], rho[i][j]) u'_s (x) u_j.

Shape.  Write x = a^t b^j c^k and y = a^t' b^j' c^k' (d^-t for a^t when
t < 0) for PBW monomials.  Under both conventions

    R(x, y) = 0 unless k = 0, j' = 0 and j = k',

no c in the first slot, no b in the second, and as many b's in the first
as c's in the second: in the universal R-matrix
q^(H (x) H / 2) sum_n c_n E^n (x) F^n, E^n in one slot meets F^n in the
other.  Proof, by induction along the recursion below:

* normal forms never lose a b or a c: every rewrite of the generic
  algebra, F and Fhat keeps both counts or raises them (ba = q^-1 ab,
  cb = bc, ad = 1 + q bc, da = 1 + q^-1 bc, the elimination of d in F
  and Fhat, a^ell = 1), except b^ell = c^ell = 0, which kills the whole
  term; and each factor Delta(c) = c (x) a + d (x) c puts its c into
  exactly one leg.  So every term of Delta(x) has a c in some leg when
  x has one, and likewise for b;
* base cases: the generator table gives R(c, g) = R(g, b) = 0 for every
  generator g, and R(c, 1) = R(1, b) = eps = 0;
* x with a c: peeling the second slot (either leg order) or the first
  slot, the leg that holds the c meets a generator or a shorter word; a
  generator ends in R(c, g) = 0 once the first slot is peeled, and a
  shorter word vanishes by induction;
* y with a b: peeling y reaches b, and Delta(b) = a (x) b + b (x) d gives
  R(u w, b) = R(u, a) R(w, b) + R(u, b) R(w, d), so R(z, b) = 0 for
  every z by induction;
* matching counts: grade a^t b^j c^k by gamma = k - j.  Every relation
  is gamma-homogeneous, Delta is gamma-additive, and the generator table
  and R(1, y) = eps(y) are nonzero only on pairs whose grades cancel, so
  the same induction gives R(x, y) = 0 unless gamma(x) + gamma(y) = 0,
  which is k' - j = 0 once k = j' = 0.

So ``Pairing.pair_monomials`` answers zero for a pair off that shape
without recursing or memoising it, and ``braiding_map`` reads each
corep's b/c term index (``Corep.terms_by_bc``): a term of B's entries
graded (b, c) = (n, 0) meets only the terms of A's entries graded (0, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    GENERATOR_MONOMIALS,
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    UNIT_MONOMIAL,
)
from .corep import Corep, tensor
from .cyclo import CyclotomicScalar, q_half_power
from .hopf import _coproduct_monomial
from .linalg import ScalarMatrix

ORDERED_CONVENTION = "ordered"
STRUCTURAL_CONVENTION = "structural"
DEFAULT_CONVENTION = ORDERED_CONVENTION
CONVENTIONS = (ORDERED_CONVENTION, STRUCTURAL_CONVENTION)


def _generator_table(ell: int) -> dict[tuple[str, str], CyclotomicScalar]:
    s = q_half_power
    w = s(ell, -1) - s(ell, 3)
    return {
        ("a", "a"): s(ell, -1),
        ("a", "d"): s(ell, 1),
        ("d", "a"): s(ell, 1),
        ("d", "d"): s(ell, -1),
        ("b", "c"): w,
    }


def _first_letter(mono: NormalMonomial) -> tuple[str, NormalMonomial]:
    """Split a non-unit monomial as (leading generator, rest) in PBW order."""
    t, j, k = mono
    if t > 0:
        return "a", NormalMonomial(t - 1, j, k)
    if j > 0:
        return "b", NormalMonomial(t, j - 1, k)
    if k > 0:
        return "c", NormalMonomial(t, j, k - 1)
    return "d", NormalMonomial(t + 1, j, k)


@dataclass
class Pairing:
    """Memoised pairing for one algebra mode and extension convention."""

    mode: AlgebraMode
    convention: str = DEFAULT_CONVENTION
    _memo: dict[tuple[NormalMonomial, NormalMonomial], CyclotomicScalar] = field(default_factory=dict)

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown pairing convention {self.convention!r}")
        self._table = _generator_table(self.mode.ell)
        self._zero = CyclotomicScalar.zero(self.mode.ell)

    # -- public ------------------------------------------------------------

    def pair(self, x: AlgebraElement, y: AlgebraElement) -> CyclotomicScalar:
        if x.mode != self.mode or y.mode != self.mode:
            raise ValueError("pairing arguments must live in the pairing's mode")
        total = CyclotomicScalar.zero(self.mode.ell)
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                val = self.pair_monomials(m1, m2)
                if not val.is_zero():
                    total = total + c1 * c2 * val
        return total

    def pair_monomials(self, m1: NormalMonomial, m2: NormalMonomial) -> CyclotomicScalar:
        """R(m1, m2), memoised; zero at once unless m1 has no c, m2 no b,
        and m1's b-count equals m2's c-count (see the module docstring)."""
        if m1.k or m2.j or m1.j != m2.k:
            return self._zero
        cached = self._memo.get((m1, m2))
        if cached is not None:
            return cached
        value = self._compute(m1, m2)
        self._memo[(m1, m2)] = value
        return value

    # -- recursion ---------------------------------------------------------

    def _compute(self, m1: NormalMonomial, m2: NormalMonomial) -> CyclotomicScalar:
        ell = self.mode.ell
        zero = CyclotomicScalar.zero(ell)
        one = CyclotomicScalar.one(ell)
        if m1 == UNIT_MONOMIAL:
            # R(1, y) = eps(y), and symmetrically
            return one if (m2.j == 0 and m2.k == 0) else zero
        if m2 == UNIT_MONOMIAL:
            return one if (m1.j == 0 and m1.k == 0) else zero
        if m1.degree == 1 and m2.degree == 1:
            g1, _ = _first_letter(m1)
            g2, _ = _first_letter(m2)
            return self._table.get((g1, g2), zero)
        if m2.degree > 1:
            return self._peel_second(m1, m2)
        return self._peel_first(m1, m2)

    def _peel_second(self, m1: NormalMonomial, m2: NormalMonomial) -> CyclotomicScalar:
        g, rest = _first_letter(m2)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        reversed_legs = self.convention == STRUCTURAL_CONVENTION
        for (x1, x2), c in _coproduct_monomial(self.mode, m1).terms.items():
            if reversed_legs:
                # R(x, g w) = sum R(x_(1), w) R(x_(2), g)
                left = self.pair_monomials(x1, rest)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, gm)
            else:
                # R(x, g w) = sum R(x_(1), g) R(x_(2), w)
                left = self.pair_monomials(x1, gm)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, rest)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total

    def _peel_first(self, m1: NormalMonomial, m2: NormalMonomial) -> CyclotomicScalar:
        """R(u w, y) = sum R(u, y_(1)) R(w, y_(2)) over Delta(y)."""
        g, rest = _first_letter(m1)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        for (y1, y2), c in _coproduct_monomial(self.mode, m2).terms.items():
            left = self.pair_monomials(gm, y1)
            if left.is_zero():
                continue
            right = self.pair_monomials(rest, y2)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total


_PAIRINGS: dict[tuple[AlgebraMode, str], Pairing] = {}


def get_pairing(mode: AlgebraMode, convention: str = DEFAULT_CONVENTION) -> Pairing:
    key = (mode, convention)
    if key not in _PAIRINGS:
        _PAIRINGS[key] = Pairing(mode, convention)
    return _PAIRINGS[key]


def r_pair(x: AlgebraElement, y: AlgebraElement, convention: str = DEFAULT_CONVENTION) -> CyclotomicScalar:
    if x.mode != y.mode:
        raise ValueError("pairing arguments must share a mode")
    return get_pairing(x.mode, convention).pair(x, y)


# ---------------------------------------------------------------------------
# braiding matrices
# ---------------------------------------------------------------------------

def braiding_map(a: Corep, b: Corep, convention: str = DEFAULT_CONVENTION) -> ScalarMatrix:
    """Matrix of Psi_{A,B}: A (x) B -> B (x) A.

    Rows are indexed by u_i (x) u'_r (first factor major), columns by
    u'_s (x) u_j, and the entry is R(rho^B[r][s], rho^A[i][j]).

    R(x, y) vanishes unless x has no c, y has no b and x's b-count is
    y's c-count (the module docstring proves it for both conventions).  B's
    terms fill the first slot and A's the second, so with the per-corep
    b/c index ``Corep.terms_by_bc`` (built once per corep) B's terms graded
    (n, 0) meet only A's terms graded (0, n); the skipped term pairs are
    exactly zero."""
    if a.mode != b.mode:
        raise ValueError("braiding of coreps in different modes")
    pairing = get_pairing(a.mode, convention)
    out = ScalarMatrix.zeros(a.ell, a.dim * b.dim, b.dim * a.dim)
    a_index = a.terms_by_bc
    for (n, k), b_terms in b.terms_by_bc.items():
        a_terms = None if k else a_index.get((0, n))
        if not a_terms:
            continue
        for r, s, m2, c2 in b_terms:
            for i, j, m1, c1 in a_terms:
                val = pairing.pair_monomials(m2, m1)
                if not val.is_zero():
                    row, col = i * b.dim + r, s * a.dim + j
                    out.data[row][col] = out.data[row][col] + c2 * c1 * val
    return out


@dataclass
class BraidingMatrix:
    """Public braiding table between two named corepresentations.

    ``braiding_matrix(left, right)`` tabulates the braiding whose output
    lands in left (x) right, i.e. the map right (x) left -> left (x) right
    (rows index the domain, columns the codomain), which is how the
    reference tables are laid out."""

    left: Corep
    right: Corep
    row_labels: list[str]
    col_labels: list[str]
    matrix: ScalarMatrix


def braiding_matrix(left: Corep, right: Corep, convention: str = DEFAULT_CONVENTION) -> BraidingMatrix:
    m = braiding_map(right, left, convention)
    rows = [f"{x}(x){y}" for x in right.basis_labels for y in left.basis_labels]
    cols = [f"{x}(x){y}" for x in left.basis_labels for y in right.basis_labels]
    return BraidingMatrix(left, right, rows, cols, m)


def flip_matrix(ell: int, dim_a: int, dim_b: int) -> ScalarMatrix:
    """The tensor flip A (x) B -> B (x) A as a matrix."""
    out = ScalarMatrix.zeros(ell, dim_a * dim_b, dim_b * dim_a)
    one = CyclotomicScalar.one(ell)
    for i in range(dim_a):
        for r in range(dim_b):
            out.data[i * dim_b + r][r * dim_a + i] = one
    return out


def statistics_sign(a: Corep, b: Corep, convention: str = DEFAULT_CONVENTION) -> Optional[int]:
    """+1 or -1 when Psi_{A,B} is exactly that multiple of the flip, else None."""
    psi = braiding_map(a, b, convention)
    flip = flip_matrix(a.ell, a.dim, b.dim)
    for sign in (1, -1):
        scaled = flip.scale(CyclotomicScalar.from_rational(a.ell, sign))
        if psi == scaled:
            return sign
    return None


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def check_braid_relation(a: Corep, b: Corep, c: Corep, convention: str = DEFAULT_CONVENTION) -> bool:
    """(Psi_BC x 1)(1 x Psi_AC)(Psi_AB x 1) = (1 x Psi_AB)(Psi_AC x 1)(1 x Psi_BC)
    on A (x) B (x) C, both sides landing in C (x) B (x) A."""
    ell = a.ell
    psi_ab = braiding_map(a, b, convention)
    psi_ac = braiding_map(a, c, convention)
    psi_bc = braiding_map(b, c, convention)
    # matrices act on row vectors, so composition is left-to-right product
    id_a, id_b, id_c = (ScalarMatrix.identity(ell, x.dim) for x in (a, b, c))
    lhs = psi_ab.kron(id_c) * id_b.kron(psi_ac) * psi_bc.kron(id_a)
    rhs = id_a.kron(psi_bc) * psi_ac.kron(id_b) * id_c.kron(psi_ab)
    return lhs == rhs


def check_hexagon(a: Corep, b: Corep, c: Corep, convention: str = DEFAULT_CONVENTION) -> bool:
    """Both hexagon identities for the tensor-product coactions:
    Psi_{A(x)B, C} = (Psi_AC x 1)(1 x Psi_BC) and
    Psi_{A, B(x)C} = (1 x Psi_AC)(Psi_AB x 1)."""
    ell = a.ell
    ab = tensor(a, b)
    bc = tensor(b, c)
    id_a, id_b, id_c = (ScalarMatrix.identity(ell, x.dim) for x in (a, b, c))
    lhs1 = braiding_map(ab, c, convention)
    rhs1 = id_a.kron(braiding_map(b, c, convention)) * braiding_map(a, c, convention).kron(id_b)
    lhs2 = braiding_map(a, bc, convention)
    rhs2 = braiding_map(a, b, convention).kron(id_c) * id_b.kron(braiding_map(a, c, convention))
    return lhs1 == rhs1 and lhs2 == rhs2


def check_naturality(
    t: ScalarMatrix, a: Corep, a_prime: Corep, b: Corep, convention: str = DEFAULT_CONVENTION
) -> bool:
    """(1 x T) Psi_{A,B} = Psi_{A',B} (T x 1) for an intertwiner T: A -> A'."""
    ell = a.ell
    lhs = braiding_map(a, b, convention) * ScalarMatrix.identity(ell, b.dim).kron(t)
    rhs = t.kron(ScalarMatrix.identity(ell, b.dim)) * braiding_map(a_prime, b, convention)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the reference eigenstructure of the V1-V1 braiding
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    fixed_vector_ok: bool
    eigenspace_ok: bool
    eigenspace_exact: bool

    @property
    def all_ok(self) -> bool:
        return self.fixed_vector_ok and self.eigenspace_ok and self.eigenspace_exact


def eigenstructure_check_v1v1(ell: int = 3, convention: str = DEFAULT_CONVENTION) -> EigenReport:
    """a(x)c - q c(x)a is fixed by Psi and {a(x)a, q a(x)c + c(x)a, c(x)c}
    spans the exact q^-1/2 eigenspace.  This check pins the square-root
    branch: the rejected branch fails it."""
    from .corep import build_v
    from .cyclo import q_power
    from .linalg import rank

    v1 = build_v(1, ell)
    psi = braiding_map(v1, v1, convention)
    zero = CyclotomicScalar.zero(ell)
    one = CyclotomicScalar.one(ell)
    q = q_power(ell, 1)

    def apply(vec):
        return [
            sum((vec[i] * psi.data[i][j] for i in range(4)), zero)
            for j in range(4)
        ]

    fixed = [zero, one, -q, zero]  # a(x)c - q c(x)a
    fixed_ok = apply(fixed) == fixed

    lam = q_half_power(ell, -1)
    eigvecs = [
        [one, zero, zero, zero],
        [zero, q, one, zero],
        [zero, zero, zero, one],
    ]
    eig_ok = all(apply(v) == [lam * x for x in v] for v in eigvecs)

    shifted = psi - ScalarMatrix.identity(ell, 4).scale(lam)
    exact = rank(shifted) == 1  # eigenspace dimension exactly 3
    return EigenReport(fixed_ok, eig_ok, exact)
