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

Both recursions peel the first slot, once the second is a generator,
with the order-preserving rule R(u w, y) = sum R(u, y_(1)) R(w, y_(2)).
That defines the recursion; it is not an identity of the values under
both conventions.  On the 2744 triples (u, w, y) of monomials of degree
<= 2, the ``structural`` values satisfy it every time at ell 3 and 5,
and the ``ordered`` values fail it on 9 triples at each: at ell 3,
R(b^2, c^2) = 3q, where the rule gives R(b, c_(1)) R(b, c_(2)) summed
over Delta(c^2), which is -3 - 3q.

The induced braiding on corepresentations u (x) u' -> u' (x) u is

    Psi(u_i (x) u'_r) = sum_{j,s} R(rho'[r][s], rho[i][j]) u'_s (x) u_j.

Shape.  Write x = a^t b^j c^k and y = a^t' b^j' c^k' (d^-t for a^t when
t < 0) for PBW monomials.  Under both conventions

    R(x, y) = 0 unless k = 0, j' = 0 and j = k',

no c in the first slot, no b in the second, and as many b's in the first
as c's in the second: in the universal R-matrix
q^(H (x) H / 2) sum_n c_n E^n (x) F^n, E^n in one slot meets F^n in the
other.  Proof, by induction along the recursion that the rules above
define (peel the first generator of the second slot, or of the first slot
once the second is a generator):

* normal forms never lose a b or a c: every rewrite of the generic
  algebra and Fhat keeps both counts or raises them (ba = q^-1 ab,
  cb = bc, ad = 1 + q bc, da = 1 + q^-1 bc, the elimination of d in
  Fhat, a^2ell = 1), except b^ell = c^ell = 0, which kills the whole
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

Closed form.  With s = q^(1/2) (``q_half_power``), the pairs of the shape
evaluate to

    R(a^t b^n, a^t' c^n) = s^phi beta_n,
    phi = -t t' + n (|t| + |t'|) + n (n - 1)     (structural)
    phi = -t t' + n (|t| - |t'|) + n (n - 1)     (ordered)
    beta_n = (s^-1 - s^3)^n [n]_{q^-2}!,

so the two conventions differ by the factor q^(-n |t'|) and nothing else.
At n = 0 this is R(a^t, a^t') = s^(-t t'): the first-slot rule meets
Delta(a^t') = sum_r (t' r)_{q^-2} a^(t'-r) b^r (x) a^(t'-r) c^r, whose
first leg is b-free only at r = 0, so each letter of x contributes
R(a, a^t') = s^(-t'), and d flips the sign of every exponent.  beta_1 is
R(b, c).  For n >= ell, [n]_{q^-2}! has the factor [ell]_{q^-2} =
1 + q^-2 + ... + q^(-2 (ell-1)) = 0 (q^-2 is a primitive ell-th root of
unity, ell being odd), so beta_n = 0 and the grade pairs nothing.  The
recursion itself lives on in the tests as the oracle of the closed form,
compared on every shaped pair up to degree 2 ell at ell 3, 5 and 7, in the
generic algebra and Fhat, under both conventions.

So ``Pairing.pair_monomials`` evaluates beta_n times one power of s
(``q_half_power``), and ``braiding_map`` reads each corep's b/c term
index (``Corep.terms_by_bc``): a term of B's entries graded
(b, c) = (n, 0) meets only the terms of A's entries graded (0, n), and
each such term pair is one call of ``cyclo.times_half_power``, the scalar
product x y s^phi.  It reads the unit slots of the two coefficients: two
units cost a table read, a unit and a non-unit one shift, and two
non-units one convolution.

F is refused.  In F (a^ell = 1) the rules contradict each other, so no
pairing exists there: R(a a^(ell-1), a) = R(1, a) = eps(a) = 1, but the
first-slot rule gives R(a, a) R(a^(ell-1), a) = s^(-1) s^(-(ell-1)) =
s^(-ell) = -1, since s has order 2 ell.  Fhat (a^(2 ell) = 1) is the
quotient on which the half-integer powers of the table are well defined,
so ``get_pairing`` and ``braiding_map`` raise ``ValueError`` in F and name
Fhat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import AlgebraElement, AlgebraMode, NormalMonomial
from .corep import Corep, tensor
from .cyclo import CyclotomicScalar, q_half_power, q_power, times_half_power
from .linalg import ScalarMatrix

ORDERED_CONVENTION = "ordered"
STRUCTURAL_CONVENTION = "structural"
DEFAULT_CONVENTION = ORDERED_CONVENTION
CONVENTIONS = (ORDERED_CONVENTION, STRUCTURAL_CONVENTION)


_BETAS: dict[int, list[CyclotomicScalar]] = {}


def _beta(ell: int, n: int) -> CyclotomicScalar:
    """beta_n = (s^-1 - s^3)^n [n]_{q^-2}!, zero for n >= ell.  One table per
    ell, grown only to the largest n asked for: at large ell each entry costs
    two products of full-length scalars."""
    if n >= ell:
        return CyclotomicScalar.zero(ell)
    table = _BETAS.setdefault(ell, [CyclotomicScalar.one(ell)])
    while len(table) <= n:
        k = len(table)
        q_integer = sum((q_power(ell, -2 * i) for i in range(k)), CyclotomicScalar.zero(ell))  # [k]_{q^-2}
        table.append(table[-1] * (q_half_power(ell, -1) - q_half_power(ell, 3)) * q_integer)
    return table[n]


@dataclass
class Pairing:
    """The pairing of one algebra mode (generic or Fhat) under one extension
    convention, in closed form (see the module docstring).

    It holds no scalar table of its own: ``pair_monomials`` reads s^phi
    from ``q_half_power``.  ``_memo`` stays empty: evaluating the closed
    form costs less than a lookup.  It is kept because ``bench/tracer.py``
    reports its size."""

    mode: AlgebraMode
    convention: str = DEFAULT_CONVENTION
    _memo: dict[tuple[NormalMonomial, NormalMonomial], CyclotomicScalar] = field(default_factory=dict)

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown pairing convention {self.convention!r}")
        if self.mode.kind == "F":
            raise ValueError(
                "the braiding pairing is not defined on F (a^ell = 1): R(a a^(ell-1), a) = 1 there, "
                "but the first-slot rule gives R(a, a) R(a^(ell-1), a) = -1; use Fhat (a^(2 ell) = 1)"
            )
        # the sign of n |t'| in phi
        self.sign = 1 if self.convention == STRUCTURAL_CONVENTION else -1

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
        """R(m1, m2): zero unless m1 = a^t b^n and m2 = a^t' c^n, and then
        s^phi beta_n (see the module docstring)."""
        ell = self.mode.ell
        n = m1.j
        if m1.k or m2.j or n != m2.k or n >= ell:
            return CyclotomicScalar.zero(ell)
        t, t2 = m1.t, m2.t
        phi = -t * t2 + n * (abs(t) + self.sign * abs(t2) + n - 1)
        return _beta(ell, n) * q_half_power(ell, phi)


_PAIRINGS: dict[tuple[AlgebraMode, str], Pairing] = {}


def get_pairing(mode: AlgebraMode, convention: str = DEFAULT_CONVENTION) -> Pairing:
    """The pairing of ``mode`` under ``convention``; ValueError in F, which
    has none (see the module docstring)."""
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

    B's terms fill the first slot and A's the second, so by the shape rule
    (module docstring) B's terms graded (b, c) = (n, 0) in the per-corep
    index ``Corep.terms_by_bc`` meet only A's terms graded (0, n), and only
    for n < ell; the skipped term pairs are exactly zero.  Per grade,
    beta_n is multiplied once into the shorter of the two term lists.  A
    term pair then yields c2 c1 beta_n s^phi in one ``times_half_power``
    call, which gives the canonical form of that element, so the table is
    bit-identical to multiplying and shifting pair by pair.  A pair writes
    an empty cell and adds into a filled one: outside a weight basis
    several pairs land in one cell."""
    if a.mode != b.mode:
        raise ValueError("braiding of coreps in different modes")
    pairing = get_pairing(a.mode, convention)
    ell, sign = a.ell, pairing.sign
    zero = CyclotomicScalar.zero(ell)
    out = ScalarMatrix.zeros(ell, a.dim * b.dim, b.dim * a.dim)
    data = out.data
    a_index, b_index = a.terms_by_bc, b.terms_by_bc
    for (n, k), b_terms in b_index.items():
        a_terms = None if k or n >= ell else a_index.get((0, n))
        if not a_terms:
            continue
        beta = _beta(ell, n)
        # (row or column index, t, coefficient, the part of phi this slot adds)
        first = [(r, s, m.t, c, n * (abs(m.t) + n - 1)) for r, s, m, c in b_terms]
        second = [(i, j, m.t, c, n * sign * abs(m.t)) for i, j, m, c in a_terms]
        if n:
            shorter = first if len(first) <= len(second) else second
            shorter[:] = [(x, y, t, c * beta, e) for x, y, t, c, e in shorter]
        for r, s, t2, c2, e2 in first:
            for i, j, t1, c1, e1 in second:
                val = times_half_power(c2, c1, e1 + e2 - t1 * t2)
                row, col = i * b.dim + r, s * a.dim + j
                cell = data[row][col]
                data[row][col] = val if cell is zero else cell + val
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
