"""Corepresentations of the quantum SL(2) coordinate algebra.

A corepresentation is a labelled basis plus a square matrix rho of algebra
elements with the coaction convention  v_i -> sum_j rho[i][j] (x) v_j.
Three families are built directly from the coproduct:

  * Y_m  -- the span of the degree-m monomials in a and c,
  * V_m  -- Y_m for m < ell (these are irreducible),
  * W_n  -- the span of degree-n monomials in a^ell and c^ell (the
            classical integer/half-integer spin series pushed forward).

On top of the builders: tensor products, comodule-axiom verification,
irreducibility certificates by linear independence of matrix elements,
intertwiner (hom) spaces, subcomodule/quotient machinery, and a greedy
decomposition driver for every odd ell that reproduces the known tensor
product tables of the V-series.  A Corep is an immutable value: its labels and
rows are tuples, so the builders are memoised and every caller of
``build_y(m, ell)``, ``build_v`` or ``build_w`` shares one instance, with
the one term index it caches: the axis terms of rho, a^t b^j c^k with
j = 0 or k = 0 and j, k <= ell (``Corep.axis_terms``), which are all
that the torus weights, the Hom systems, the driver and the braiding
read.  ``tensor`` and ``braid.braiding_map`` are memoised on their left
factor: a corep keeps one memo of the products and braidings it is the
left factor of, keyed by the right factor's id (and the braiding's
convention) and stored with that factor, so a pair of instances is
multiplied, or braided, once and the result is shared.  The memo lives
as long as the left factor, so the products and braidings of builder
outputs, and of their products in turn, are retained for the whole
process.  Hom spaces are blocked on
integer torus weights and built from the equations of the monomials of
b/c grade (0, 0), (1, 0), (0, 1), (ell, 0) and (0, ell) only, the grades that the generators K, E, F, E^(ell), F^(ell) of
Lusztig's restricted form pair with.  The decomposition driver reads only
these grades: it reads its input once into a node (``_node_of``), the torus
weights and the matrices of the four non-torus grades, and builds no
corep below it.  Its candidates are the composition factors read off the
torus character, so input without integer torus weights raises
ValueError.  It solves no Hom system: for a
candidate X = W_n (x) V_m of highest weight lambda it solves two small
systems on the node's weight -lambda block (``_singular_vectors``), whose
solutions are the last rows of the embeddings t: X -> C and the last
columns of the projections p: C -> X.  X splits off where some t p, a
scalar by Schur's lemma, is nonzero, and the driver recurses on
C / im t, which is isomorphic to the complement ker p.  im t is spanned
by the dim X rows F^a (F^(ell))^b s, a <= m and b <= n, walked from the
singular vector s with the (0, 1) and (0, ell) maps alone
(``_image_rows``, by Steinberg's tensor product theorem).  The public
subcomodule test, restriction and quotient all read one change of basis, one elimination
of [B | I] per call; a dependent basis raises ValueError.  The driver's
quotient skips the test, since an image of a comodule map is a
subcomodule, reduces only the dim X rows that span it and maps each
grade's matrix G to G[free] R (``_quotient_by_image``); it shares the
reduction with ``quotient_corep``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .algebra import (
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    _product,
    _summed,
    pbw_coordinates,
    zero,
)
from .cyclo import CyclotomicScalar, q_power
from .hopf import _coproduct_monomial, _leg_products, coproduct, counit
from .linalg import (
    ScalarMatrix,
    SparseMatrix,
    SparseRows,
    Vector,
    _add_entry,
    _echelon,
    _null_rows,
    kernel,
    rank,
    rref,
)

MatrixTerm = tuple[int, int, NormalMonomial, CyclotomicScalar]  # (row, col, monomial, coefficient)


@dataclass(frozen=True)
class Corep:
    """A corepresentation: a labelled basis and the coaction matrix rho,
    with the convention  v_i -> sum_j rho[i][j] (x) v_j.  The comodule
    axioms (Delta rho = rho . rho entrywise, eps rho = identity) are
    checkable with ``verify_corep``.

    An immutable value: the fields are frozen, and construction stores
    ``basis_labels`` as a tuple and ``rho`` as a tuple of row tuples,
    whatever sequences were passed, and raises ValueError unless there are
    ``dim`` labels and ``dim`` rows of ``dim`` entries.  Instances are
    shared (the memoised builders, ``_irr_corep``) and cache their torus
    weights, their axis term index and the tensor products and braidings
    they are the left factor of (``tensor``, ``braid.braiding_map``), each
    with its right factor; build changed copies with
    ``dataclasses.replace``, which start with empty caches.
    The algebra elements in ``rho`` are shared too and are never
    modified."""

    mode: AlgebraMode
    dim: int
    basis_labels: tuple[str, ...]
    rho: tuple[tuple[AlgebraElement, ...], ...]
    family: str = ""

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "rho", tuple(tuple(row) for row in self.rho))
        rows = [len(row) for row in self.rho]
        if len(self.basis_labels) != self.dim or rows != [self.dim] * self.dim:
            raise ValueError(
                f"corep of dim {self.dim} has {len(self.basis_labels)} basis labels and rows of lengths {rows}"
            )

    @property
    def ell(self) -> int:
        return self.mode.ell

    def entries_flat(self) -> list[AlgebraElement]:
        return [e for row in self.rho for e in row]

    def torus_weights(self) -> Optional[tuple[int, ...]]:
        """Integer torus weights, when the basis is a weight basis.

        a -> x, d -> x^-1, b, c -> 0 is a Hopf algebra map onto C[x, x^-1]
        ((b, c) is a Hopf ideal); it sends the PBW monomial of exponents
        (t, j, k) to x^t when j = k = 0 and to 0 otherwise.  When it maps
        rho to the diagonal matrix of x^(t_i), the basis vector i has weight
        t_i and every intertwiner preserves weights.  In the quotients x has
        the order of a, so t is taken mod ell in F and mod 2 ell in Fhat.
        None when the image is not of that form.  The image is read off
        the (0, 0) grade of ``axis_terms``: it is of that form when that
        grade holds exactly one term a^t (or d^-t) of coefficient one on
        every diagonal entry and no term off the diagonal (the terms of an
        entry are distinct monomials, so none cancel).  Computed on the
        first call, then returned from the instance.
        """
        return self._torus_weights

    def weight_values(self) -> Optional[tuple[CyclotomicScalar, ...]]:
        """The weights evaluated at x = q: q^t for each torus weight t, the
        values of chi_1 o pi_F (the projection onto F followed by its
        order-one character) on the diagonal entries.  None when
        ``torus_weights`` is None."""
        return self._weight_values

    @cached_property
    def axis_terms(self) -> Mapping[tuple[int, int], tuple[MatrixTerm, ...]]:
        """The axis terms of rho graded by (b-exponent, c-exponent): the key
        (j, k), with j = 0 or k = 0 and j, k <= ell, maps to the (row, col,
        monomial, coefficient) of every term a^t b^j c^k (or its d form) of
        every entry, in row-major order.  Every reader of rho's b/c grades
        reads these only: ``torus_weights`` the (0, 0) grade, ``hom_space``
        and ``decompose`` the generator grades, up to (ell, 0) and (0, ell)
        (see ``hom_space``), and ``braid.braiding_map`` the grades (n, 0)
        against (0, n) for n < ell, the only term pairs the pairing sees
        (``braid``'s shape rule; beta_n = 0 from n = ell on).  A term with
        both a b and a c, or of a grade above ell, is invisible to all of
        them.  Computed on the first read, then read-only."""
        ell = self.ell
        index: dict[tuple[int, int], list[MatrixTerm]] = {}
        for i, row in enumerate(self.rho):
            for j, entry in enumerate(row):
                for mono, c in entry.terms.items():
                    if not (mono.j and mono.k) and mono.j <= ell and mono.k <= ell:
                        index.setdefault((mono.j, mono.k), []).append((i, j, mono, c))
        return MappingProxyType({key: tuple(terms) for key, terms in index.items()})

    @cached_property
    def _left_memo(self) -> dict[tuple, tuple[Corep, object]]:
        """The one memo of the binary corep maps with this corep as the
        left factor: ("tensor", id(b)) -> (b, self (x) b) for ``tensor`` and
        ("braid", id(b), convention) -> (b, Psi_{self,b}) for
        ``braid.braiding_map``.  Holding b keeps its id from being reused
        while the entry lives; the memo dies with this corep.  The values
        are shared and never modified."""
        return {}

    @cached_property
    def _torus_weights(self) -> Optional[tuple[int, ...]]:
        weights: list[Optional[int]] = [None] * self.dim
        period = self.mode.a_period
        for i, j, mono, c in self.axis_terms.get((0, 0), ()):
            if i != j or weights[i] is not None or not c.is_one():
                return None
            weights[i] = mono.t if period is None else mono.t % period
        return None if None in weights else tuple(weights)

    @cached_property
    def _weight_values(self) -> Optional[tuple[CyclotomicScalar, ...]]:
        weights = self.torus_weights()
        return None if weights is None else tuple(q_power(self.ell, t) for t in weights)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _corep_from_monomials(mode: AlgebraMode, monos: list[NormalMonomial], family: str) -> Corep:
    """Extract the coaction matrix on the span of the given monomials.

    Requires every second tensor leg of the coproduct of a basis monomial to
    be one of the basis monomials (exact for the Y and W spans)."""
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    rho = []
    for m in monos:
        # the coproduct's terms are distinct normal (m1, m2) pairs with
        # nonzero scalars, so each m1 lands in its cell once
        cells: list[dict] = [{} for _ in range(dim)]
        for (m1, m2), c in _coproduct_monomial(mode, m).terms.items():
            j = index.get(m2)
            if j is None:
                raise ValueError(f"coaction of {m.label()} leaves the span (hit {m2.label()})")
            cells[j][m1] = c
        rho.append([AlgebraElement(mode, cell) for cell in cells])
    return Corep(mode, dim, [m.label() for m in monos], rho, family)


@lru_cache(maxsize=None)
def build_y(m: int, ell: int) -> Corep:
    """Y_m: coaction on the span of a^(m-h) c^h, h = 0..m.  Memoised, like
    ``build_v`` and ``build_w``: one shared instance per (m, ell)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    mode = AlgebraMode.generic(ell)
    monos = [NormalMonomial(m - h, 0, h) for h in range(m + 1)]
    return _corep_from_monomials(mode, monos, f"Y{m}")


@lru_cache(maxsize=None)
def build_v(m: int, ell: int) -> Corep:
    """V_m = Y_m for 0 <= m <= ell - 1 (the irreducible fractional series)."""
    if not 0 <= m <= ell - 1:
        raise ValueError(f"V_m requires 0 <= m <= {ell - 1}")
    return replace(build_y(m, ell), family=f"V{m}")


@lru_cache(maxsize=None)
def build_w(n: int, ell: int) -> Corep:
    """W_n: coaction on degree-n monomials in alpha = a^ell, gamma = c^ell."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mode = AlgebraMode.generic(ell)
    monos = [NormalMonomial(ell * (n - i), 0, ell * i) for i in range(n + 1)]
    return _corep_from_monomials(mode, monos, f"W{n}")


def tensor(a: Corep, b: Corep) -> Corep:
    """Tensor product corepresentation, basis ordered first-factor major:
    cell (i b.dim + r, j b.dim + s) is the product a_ij b_rs.

    Memoised on the left factor: the first call for a pair builds the
    product and stores it in ``a``'s memo (``Corep._left_memo``) under
    ``("tensor", id(b))`` together with ``b`` itself, and every later call
    with the same two instances returns that one shared instance (with its
    torus weights and axis index, built once).  An equal but distinct
    ``b`` misses.  The memo holds ``b`` alive for as long as ``a`` lives.

    Each cell is the product loop of ``multiply`` (``algebra._product``)
    on the term tuples of the two entries, built once per product for B
    and once per row for A, so a cell holds the terms ``multiply`` gives in
    the same key order; every zero cell is one shared empty element."""
    if a.mode != b.mode:
        raise ValueError("tensor factors live in different modes")
    key = ("tensor", id(b))
    hit = a._left_memo.get(key)
    if hit is not None:
        return hit[1]
    mode = a.mode
    dim = a.dim * b.dim
    labels = [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels]
    empty = zero(mode)
    b_rows = [[tuple(entry.terms.items()) for entry in row] for row in b.rho]
    rho = []
    for a_row in a.rho:
        a_terms = [tuple(entry.terms.items()) for entry in a_row]
        for b_terms in b_rows:
            cells = []
            for x in a_terms:
                for y in b_terms:
                    summed = _product(mode, x, y)
                    cells.append(AlgebraElement(mode, summed) if summed else empty)
            rho.append(cells)
    name = f"{a.family or '?'}(x){b.family or '?'}"
    product = Corep(mode, dim, labels, rho, name)
    a._left_memo[key] = (b, product)
    return product


# ---------------------------------------------------------------------------
# verification and certificates
# ---------------------------------------------------------------------------

@dataclass
class CorepReport:
    comultiplicative: bool
    counital: bool
    failures: list[tuple[int, int, str]]

    @property
    def ok(self) -> bool:
        return self.comultiplicative and self.counital


def verify_corep(c: Corep) -> CorepReport:
    """Check Delta(rho_ij) = sum_k rho_ik (x) rho_kj, the leg products of
    every k summed once, and eps(rho_ij) = delta_ij."""
    failures = []
    comult = True
    one = CyclotomicScalar.one(c.ell)
    for i in range(c.dim):
        for j in range(c.dim):
            terms = chain.from_iterable(
                _leg_products(one, c.rho[i][k].terms.items(), c.rho[k][j].terms.items()) for k in range(c.dim)
            )
            if coproduct(c.rho[i][j]).terms != _summed(terms):
                comult = False
                failures.append((i, j, "coproduct"))
    zero_s = CyclotomicScalar.zero(c.ell)
    counital = True
    for i in range(c.dim):
        for j in range(c.dim):
            expected = one if i == j else zero_s
            if counit(c.rho[i][j]) != expected:
                counital = False
                failures.append((i, j, "counit"))
    return CorepReport(comult, counital, failures)


@dataclass
class Certificate:
    """The rank of the dim^2 matrix elements rho_0, ..., rho_(n-1) of a
    corep (row-major) against its expected value dim^2.  ``witness`` is set
    when they are dependent: the first relation among them, a vector x with
    sum_i x_i rho_i = 0, x_f = 1 at the first element rho_f that lies in
    the span of the ones before it, and x_i = 0 for every i > f."""

    independent: bool
    rank: int
    expected: int
    witness: Optional[Vector] = None


def irreducibility_certificate(c: Corep) -> Certificate:
    """Linear independence of the dim^2 matrix elements certifies
    irreducibility; a found relation is reported with a witness but does
    not by itself prove reducibility.  Both are read off the sparse PBW
    coordinate matrix M (row i the coordinates of rho_i) by the
    leading-entry echelon ``linalg._echelon``: the rank over the rows
    sparsest first, and the witness over the rows in their given order.

    For the witness, row i is tagged with a unit entry in column
    M.cols + i, and the echelon stops at the first row f whose coordinate
    part cancels.  The rows reduced into it are earlier rows, so what
    remains is its tag part x: sum_i x_i rho_i = 0, x_f = 1 (no earlier row
    carries tag f, so no scaling is needed) and x_i = 0 for i > f.  The
    rows before f all joined the basis, so rho_0, ..., rho_(f-1) are
    independent and this is the only relation with x_f = 1 and x_i = 0
    for i > f.  The smallest free column of RREF(M^T) is f as well (a
    column is free exactly when rho_i lies in the span of the earlier
    ones), and its kernel vector has 1 at f, 0 at the later free columns
    and, since every column before f pivots, is supported on 0..f; so the
    witness equals ``kernel(M.transpose())[0]`` exactly, without reducing
    all of M^T."""
    matrix, _ = pbw_coordinates(c.entries_flat())
    r = rank(matrix)
    expected = c.dim * c.dim
    if r == expected:
        return Certificate(True, r, expected)
    one = CyclotomicScalar.one(c.ell)
    tagged = ({**row, matrix.cols + i: one} for i, row in enumerate(matrix.data))
    relation = _echelon(tagged, matrix.cols)[1]
    zero_s = CyclotomicScalar.zero(c.ell)
    witness = [relation.get(matrix.cols + i, zero_s) for i in range(matrix.rows)]
    return Certificate(False, r, expected, witness)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def _generator_grades(ell: int) -> tuple[tuple[int, int], ...]:
    """The b/c grades (j, k) of the monomials a^t b^j c^k that the
    generators K, E, F, E^(ell), F^(ell) of Lusztig's restricted form pair
    with (see ``hom_space``)."""
    return ((0, 0), (1, 0), (0, 1), (ell, 0), (0, ell))


def hom_space(a: Corep, b: Corep) -> list[ScalarMatrix]:
    """Basis of {Z : rho^A Z = Z rho^B}, i.e. comodule maps A -> B written
    on rows (v_i maps to sum_j Z[i][j] w_j).

    When both coreps have torus weights, Z[i][k] is an unknown only for
    equal weights t_i = t_k: the torus image of the equation is
    x^(t_i) Z[i][k] = Z[i][k] x^(t_k), so every other entry vanishes.  All
    unknowns are kept when either side has no torus weights.

    Equations.  Each PBW monomial of each entry (i, k) of
    rho^A Z - Z rho^B gives one linear equation in the unknowns; only the
    monomials a^t b^j c^k (or their d forms) of b/c grade
    (j, k) in {(0,0), (1,0), (0,1), (ell,0), (0,ell)} are written, read off
    the axis term index of A and B (``Corep.axis_terms``).  They give the
    same kernel as the full system:

    * a matrix of algebra elements is zero exactly when every functional of
      a separating set vanishes on it, and Lusztig's restricted form U_res
      is such a set; at an odd root of unity it is generated by E, F,
      E^(ell), F^(ell) and K^+-1 (Lusztig, "Quantum groups at roots of 1",
      Geom. Dedicata 35, 1990), and Z is a comodule map exactly when it
      commutes with the action of each generator;
    * E^(r) pairs only with the monomials a^t b^r and F^(r) only with
      a^t c^r: the argument of the "Shape" proof in ``braid``, from
      eps(b) = eps(c) = 0.  The torus (K) sees the (0, 0) grade, the image
      under a -> x, b, c -> 0;
    * so each generator's equation is a combination of the per-monomial
      equations of its grade, and the five grades imply the equations of
      every generator, hence of U_res, hence the full system; the full
      system implies them in turn;
    * in F and Fhat, b^ell = c^ell = 0, so the (ell, 0) and (0, ell) grades
      are empty and the same rule holds: one rule covers every mode.

    When both coreps have torus weights the (0, 0) grade is skipped too:
    there the (0, 0) part of rho^A is diag(a^(t_i)) and that of rho^B is
    diag(a^(t_k)), so the torus equation of a kept unknown reads
    a^(t_i) Z[i][k] - Z[i][k] a^(t_k) = 0 with t_i = t_k, and every (0, 0)
    row cancels; the weight blocking has already solved those equations.

    The kernel is the same subspace, and ``kernel`` returns its unique
    reduced echelon basis, so the matrices equal those of the full system.
    Row order: every nonzero equation goes to ``kernel`` as a sparse row of
    the coefficients that did not cancel, in output-cell order, (i, k)-major,
    each cell's monomials grade by grade; ``kernel`` inserts them into its
    echelon sparsest first, ties in this order, so this order decides its
    fill-in.  Equal equations are not merged: they span the same row space,
    and a repeated row cancels to zero in the echelon.  A system with no
    unknowns, or with no equation left, needs no case of its own:
    ``kernel`` returns [] for the first and the unit basis, in unknown
    order, for the second."""
    if a.mode != b.mode:
        raise ValueError("hom_space of coreps in different modes")
    ell = a.ell

    wa = a.torus_weights()
    wb = b.torus_weights()
    keep: list[tuple[int, int]] = []
    for i in range(a.dim):
        for k in range(b.dim):
            if wa is not None and wb is not None and wa[i] != wb[k]:
                continue
            keep.append((i, k))
    unknown_index = {pair: n for n, pair in enumerate(keep)}

    # the unknowns Z[j][k] by row j, and Z[i][j] by column j
    by_row: list[list[tuple[int, int]]] = [[] for _ in range(a.dim)]
    by_col: list[list[tuple[int, int]]] = [[] for _ in range(b.dim)]
    for (i, k), n in unknown_index.items():
        by_row[i].append((k, n))
        by_col[k].append((i, n))

    # sum_j rho^A[i][j] Z[j][k] - sum_j Z[i][j] rho^B[j][k] = 0, per cell (i, k)
    cells: dict[tuple[int, int], dict[NormalMonomial, dict[int, CyclotomicScalar]]] = {}
    grades = _generator_grades(ell)
    if wa is not None and wb is not None:
        grades = grades[1:]  # the (0, 0) rows cancel on the weight blocks
    for grade in grades:
        for i, j, mono, coeff in a.axis_terms.get(grade, ()):
            for k, idx in by_row[j]:
                _add_entry(cells.setdefault((i, k), {}).setdefault(mono, {}), idx, coeff)
        for j, k, mono, coeff in b.axis_terms.get(grade, ()):
            if not by_col[j]:
                continue
            negated = -coeff  # once per term, for every unknown of its column
            for i, idx in by_col[j]:
                _add_entry(cells.setdefault((i, k), {}).setdefault(mono, {}), idx, negated)

    # a cancelled coefficient left its row; a row whose every coefficient cancelled is empty
    rows: SparseRows = [entries for cell in sorted(cells) for entries in cells[cell].values() if entries]

    result = []
    for sol in kernel(SparseMatrix(ell, len(rows), len(keep), rows)):
        z = ScalarMatrix.zeros(ell, a.dim, b.dim)
        for (i, k), n in unknown_index.items():
            z.data[i][k] = sol[n]
        result.append(z)
    return result


# ---------------------------------------------------------------------------
# subcomodules and quotients
# ---------------------------------------------------------------------------

def _times(
    mode: AlgebraMode, rows: Sequence[Sequence[AlgebraElement]], matrix: SparseRows, width: int
) -> list[list[AlgebraElement]]:
    """Algebra-valued rows times a scalar matrix given by its rows of nonzero
    entries {column: value}: out[i][n] = sum_j rows[i][j] matrix[j][n].
    Zero entries are skipped and every cell without a contribution is one
    shared zero."""
    empty = zero(mode)
    out = []
    for row in rows:
        parts: dict[int, list[tuple[NormalMonomial, CyclotomicScalar]]] = {}
        for entry, scalars in zip(row, matrix):
            if entry.terms:
                for n, s in scalars.items():
                    parts.setdefault(n, []).extend((mono, coeff * s) for mono, coeff in entry.terms.items())
        out.append([AlgebraElement(mode, _summed(parts[n])) if n in parts else empty for n in range(width)])
    return out


def _reduction(red: SparseMatrix, pivots: list[int], dim: int, k: int) -> tuple[list[int], SparseRows]:
    """The free columns of k basis rows B in C (dim C = dim) and the
    reduction R onto them (``linalg._null_rows``), read off a reduced
    echelon form whose first dim columns are those of B's.  ValueError when
    B is dependent: fewer than k pivots lie in B's columns."""
    rank_b = sum(p < dim for p in pivots)
    if rank_b < k:
        raise ValueError(f"the {k} basis vectors are dependent (rank {rank_b})")
    return _null_rows(red, pivots, dim)


def _subquotient(
    c: Corep, basis: list[Vector]
) -> Optional[tuple[list[tuple[AlgebraElement, ...]], SparseRows, list[int], SparseRows]]:
    """P rho P^-1 = [[tau, 0], [*, quotient]] for P = [B; E]: B the k basis
    rows, E the unit rows on the free columns of B's echelon form.

    One reduction of [B | I_k] gives P^-1: B is independent exactly when
    every pivot lies in B's columns, and then P^-1's row at the r-th pivot
    column is row r of the right block (G^-1, G = B on its pivot columns),
    then minus the free entries of row r; a free row is a unit row
    (``_reduction``).  Returns None when span(B) is not a subcomodule, else
    (B rho, P^-1[:, :k], free, P^-1[:, k:]); only ``restrict_corep`` forms
    tau = (B rho) P^-1[:, :k].  ValueError when B is dependent."""
    k, dim = len(basis), c.dim
    if any(len(v) != dim for v in basis):
        raise ValueError(f"basis vectors must have length {dim}")
    one = CyclotomicScalar.one(c.ell)
    augmented = [{j: x for j, x in enumerate(v) if x} for v in basis]
    for r, row in enumerate(augmented):
        row[dim + r] = one
    red, pivots = rref(SparseMatrix(c.ell, k, dim + k, augmented))
    free, right = _reduction(red, pivots, dim, k)
    left: SparseRows = [{} for _ in range(dim)]
    for row, p in zip(red.data, pivots):
        left[p] = {j - dim: x for j, x in row.items() if j >= dim}
    # B rho as (rho^T B^T)^T: row r is the coaction of basis[r]
    basis_columns = [{r: v[i] for r, v in enumerate(basis) if v[i]} for i in range(dim)]
    coactions = list(zip(*_times(c.mode, list(zip(*c.rho)), basis_columns, k)))
    if any(x for row in _times(c.mode, coactions, right, dim - k) for x in row):
        return None
    return coactions, left, free, right


def subcomodule_check(c: Corep, basis: list[Vector]) -> bool:
    """True iff the coaction maps span(basis) into A (x) span(basis), for
    independent row vectors ``basis``.  One elimination; a dependent basis
    raises ValueError."""
    return _subquotient(c, basis) is not None


def restrict_corep(c: Corep, basis: list[Vector]) -> Corep:
    """The coaction tau on span(basis) in that basis (B rho = tau B), from
    one elimination.  ValueError for a non-subcomodule or a dependent basis."""
    parts = _subquotient(c, basis)
    if parts is None:
        raise ValueError("not a subcomodule")
    coactions, left, _, _ = parts
    tau = _times(c.mode, coactions, left, len(basis))
    labels = [f"s{r}" for r in range(len(basis))]
    return Corep(c.mode, len(basis), labels, tau, f"{c.family}|sub")


def quotient_corep(c: Corep, basis: list[Vector]) -> Corep:
    """The induced corepresentation on C / span(basis), on the basis vectors
    at the free columns of the basis's echelon form, from the same
    elimination that tests the subcomodule.  ValueError for a
    non-subcomodule, the whole space or a dependent basis."""
    parts = _subquotient(c, basis)
    if parts is None:
        raise ValueError("cannot form the quotient by a non-subcomodule")
    _, _, free, reduction = parts  # the coaction is rho[free] R (see ``_reduction``)
    if not free:
        raise ValueError("quotient by the whole space")
    rho = _times(c.mode, [c.rho[i] for i in free], reduction, len(free))
    labels = [c.basis_labels[j] for j in free]
    return Corep(c.mode, len(free), labels, rho, f"{c.family}/sub")


def span_of_basis_indices(c: Corep, indices: Sequence[int]) -> list[Vector]:
    """The unit vectors of c at ``indices``, a basis of their span."""
    zero_s = CyclotomicScalar.zero(c.ell)
    one = CyclotomicScalar.one(c.ell)
    basis = []
    for i in indices:
        v = [zero_s] * c.dim
        v[i] = one
        basis.append(v)
    return basis


def standard_y_subspace_indices(m: int, ell: int) -> list[int]:
    """Indices h with h mod ell <= m mod ell: the span that carries the
    maximal subcomodule of Y_m when m >= ell."""
    m0 = m % ell
    return [h for h in range(m + 1) if h % ell <= m0]


# ---------------------------------------------------------------------------
# decomposition driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Irr:
    """Label W_n (x) V_m of an irreducible; n = 0 gives the V series and
    m = 0 the W series (V0 = W0 is the trivial one)."""

    n: int
    m: int

    @property
    def dim(self) -> int:
        return (self.n + 1) * (self.m + 1)

    @property
    def name(self) -> str:
        if self.n == 0 and self.m == 0:
            return "V0"
        if self.n == 0:
            return f"V{self.m}"
        if self.m == 0:
            return f"W{self.n}"
        return f"W{self.n}*V{self.m}"


@dataclass(frozen=True)
class Leaf:
    irr: Irr

    @property
    def dim(self) -> int:
        return self.irr.dim

    def notation(self) -> str:
        return self.irr.name


@dataclass(frozen=True)
class DirectSum:
    children: tuple

    @property
    def dim(self) -> int:
        return sum(ch.dim for ch in self.children)

    def notation(self) -> str:
        return " (+) ".join(
            ch.notation() if isinstance(ch, Leaf) else f"[{ch.notation()}]" for ch in self.children
        )


@dataclass(frozen=True)
class Extension:
    """sub (/) quotient: the left part is a subcomodule, the right part is a
    comodule only after quotienting it out."""

    sub: object
    quotient: object

    @property
    def dim(self) -> int:
        return self.sub.dim + self.quotient.dim

    def notation(self) -> str:
        parts = []
        node = self
        while isinstance(node, Extension):
            parts.append(node.sub)
            node = node.quotient
        parts.append(node)
        rendered = []
        for p in parts:
            if isinstance(p, Leaf):
                rendered.append(p.notation())
            elif isinstance(p, DirectSum) and all(isinstance(ch, Leaf) for ch in p.children):
                rendered.append("(" + " (+) ".join(ch.notation() for ch in p.children) + ")")
            else:
                rendered.append(f"[{p.notation()}]")
        return " (/) ".join(rendered)


DecompositionTree = Union[Leaf, DirectSum, Extension]


def tree_flag(tree: DecompositionTree) -> list[str]:
    """One composition series read off the tree, bottom (subcomodule) first.
    Children of a direct sum are traversed in the stored canonical order."""
    if isinstance(tree, Leaf):
        return [tree.irr.name]
    if isinstance(tree, Extension):
        return tree_flag(tree.sub) + tree_flag(tree.quotient)
    out: list[str] = []
    for child in tree.children:
        out.extend(tree_flag(child))
    return out


def tree_layers(tree: DecompositionTree) -> list[list[str]]:
    """Greedy layers of the tree: subcomodule layers before quotient layers,
    direct sums merged layerwise, so equivalent trees give equal layers.
    They are not the socle series: V2 (x) V2 at ell = 3 has layers
    [V0], [V2, W1*V1], [V0], but socle V0 (+) V2."""
    if isinstance(tree, Leaf):
        return [[tree.irr.name]]
    if isinstance(tree, Extension):
        return tree_layers(tree.sub) + tree_layers(tree.quotient)
    layers: list[list[str]] = []
    for child in tree.children:
        for depth, names in enumerate(tree_layers(child)):
            while len(layers) <= depth:
                layers.append([])
            layers[depth].extend(names)
    return [sorted(layer) for layer in layers]


def character_peel(c: Corep) -> Optional[list[Irr]]:
    """The composition factors of c, read off its torus character.

    W_n (x) V_m has the character ch_n(x^ell) ch_m(x), where
    ch_k(x) = x^k + x^(k-2) + ... + x^-k, and highest weight ell n + m
    with 0 <= m < ell (the Steinberg tensor product pattern).  The peel
    takes the highest weight left, subtracts the character of the
    irreducible it names and repeats; factors come out highest weight
    first.  None when c has no integer torus weights (no weight basis, or
    a quotient mode, where weights are residues).  Raises ValueError when
    a subtraction goes negative: the weights are then not a character.
    """
    weights = c.torus_weights()
    return None if weights is None or c.mode.is_quotient else _peel(weights, c.ell, c.family)


def _peel(weights: Sequence[int], ell: int, family: str) -> list[Irr]:
    """``character_peel`` on integer torus weights; ``family`` names the
    corep in its errors."""
    left = Counter(weights)
    factors = []
    while left:
        top = max(left)
        if top < 0:
            raise ValueError(f"the torus weights of {family or 'the corep'} are not a character: highest weight {top}")
        irr = Irr(*divmod(top, ell))
        for i in range(irr.n + 1):
            for j in range(irr.m + 1):
                w = ell * (irr.n - 2 * i) + irr.m - 2 * j
                if not left[w]:
                    raise ValueError(
                        f"the torus weights of {family or 'the corep'} are not a character: "
                        f"removing {irr.name} leaves weight {w} below zero"
                    )
                left[w] -= 1
                if not left[w]:
                    del left[w]
        factors.append(irr)
    return factors


@lru_cache(maxsize=None)
def _irr_corep(irr: Irr, ell: int) -> Corep:
    if irr.n == 0:
        return build_v(irr.m, ell)
    if irr.m == 0:
        return build_w(irr.n, ell)
    return replace(tensor(build_w(irr.n, ell), build_v(irr.m, ell)), family=irr.name)


@dataclass(frozen=True)
class _Node:
    """What the decomposition driver reads of a corep C with integer torus
    weights: the weights, and for each non-torus generator grade (1, 0),
    (0, 1), (ell, 0) and (0, ell) the (row, col, coefficient) terms of that
    grade in rho, row-major (``Corep.axis_terms`` without the monomials).
    In a weight basis rho[i][k] has left weight w_i and right weight w_k,
    so its term of a grade is one monomial, a^t with t = (w_i + w_k) / 2,
    times the grade's b and c powers: each grade's terms are the matrix of
    the action of E, F, E^(ell) or F^(ell) up to nonzero scalars."""

    ell: int
    weights: tuple[int, ...]
    family: str
    actions: Mapping[tuple[int, int], tuple[tuple[int, int, CyclotomicScalar], ...]]


def decompose(c: Corep) -> DecompositionTree:
    """Greedy decomposition, at every odd ell.

    The candidates are the distinct composition factors X = W_n (x) V_m
    named by ``character_peel``, tried by ascending dimension (W grade
    before V grade at equal dimension); no other irreducible maps into the
    corep.  A candidate with an embedding t: X -> C and a projection
    p: C -> X whose composite t p is invertible is split off as a direct
    summand, and the driver recurses on the quotient C / im t: C = im t (+)
    ker p, so C / im t is isomorphic to the complement ker p (the proof is
    in ``_decompose_node``).  An embedding without such a projection
    contributes an extension node, and the driver recurses on the quotient
    by its image.  Both Hom spaces are read off one weight block of the
    node, as singular vectors (``_singular_vectors``): no candidate corep
    is built and no Hom system is solved.  ValueError when the corep has no
    integer torus weights (no weight basis, or a quotient mode).

    The driver reads c once, into a node (``_node_of``): the torus weights,
    which the peel reads, and the matrices of the four non-torus generator
    grades, which the singular vectors and the images read.  Each quotient
    maps the node on (``_quotient_by_image``), so no corep is built below c.
    """
    if c.torus_weights() is None or c.mode.is_quotient:
        raise ValueError(
            f"{c.family or 'the corep'} has no integer torus weights (no weight basis, or a quotient mode): "
            "the decomposition driver reads its candidates off the torus character"
        )
    return _decompose_node(_node_of(c))


decompose_l3 = decompose  # the name the benchmark workloads and tracer call


def _node_of(c: Corep) -> _Node:
    """The node of c, read off ``Corep.axis_terms``: the torus weights and,
    per non-torus generator grade, its (row, col, coefficient) terms in
    row-major order."""
    actions = {g: tuple((i, k, x) for i, k, _, x in c.axis_terms.get(g, ())) for g in _generator_grades(c.ell)[1:]}
    return _Node(c.ell, c.torus_weights(), c.family, actions)


def _grade_map(
    node: _Node, grade: tuple[int, int], vectors: dict[int, dict[int, CyclotomicScalar]], rows: bool
) -> dict[int, dict[int, CyclotomicScalar]]:
    """Vectors times the scalar matrix G of one b/c grade, G[i][k] the
    coefficient of the term of that grade in rho[i][k] (``_Node``): v G on
    rows, G v on columns.  The vectors are stored by coordinate,
    {index: {vector: entry}}, so one pass over the grade's terms maps them
    all; the result has the same form."""
    out: dict[int, dict[int, CyclotomicScalar]] = {}
    for i, k, x in node.actions.get(grade, ()):
        src, dst = (i, k) if rows else (k, i)
        for n, y in vectors.get(src, {}).items():
            _add_entry(out.setdefault(dst, {}), n, x if y.is_one() else y * x)
    return {k: entries for k, entries in out.items() if entries}


def _walk(
    node: _Node, grade: tuple[int, int], vectors: dict[int, dict[int, CyclotomicScalar]], rows: bool, steps: int
) -> list[dict[int, dict[int, CyclotomicScalar]]]:
    """The vectors and their images under the first ``steps`` powers of one
    grade's map (``_grade_map``): [v, v G, ..., v G^steps] on rows,
    [v, G v, ..., G^steps v] on columns."""
    path = [vectors]
    for _ in range(steps):
        path.append(_grade_map(node, grade, path[-1], rows))
    return path


def _singular_vectors(node: _Node, irr: Irr, rows: bool) -> tuple[list[int], list[Vector]]:
    """Hom(X, C) (rows) or Hom(C, X) (columns) for X = W_n (x) V_m of
    highest weight lambda = n ell + m, read on one weight block: the indices
    of C's basis vectors of torus weight -lambda, the weight of X's last
    basis vector, and the ``kernel`` basis of a system on that block.

    * Rows: the unknowns are s, the last row of t: X -> C on the block,
      and the equations say that s rho has no terms of b/c grade (1, 0) or
      (ell, 0); for n >= 1 and m < ell - 1, also that the (0, 1) map
      (``_grade_map``), applied m + 1 times, kills s.
    * Columns: u, the last column of p: C -> X on the block; rho u has no
      terms of grade (0, 1) or (0, ell), and for n >= 1 and m < ell - 1
      the (1, 0) map, applied m + 1 times, kills u.

    Why.  U_res is generated by K, E, F, E^(ell) and F^(ell), and each
    pairs only with its own grade (see ``hom_space``).  For a weight
    vector the terms of one grade at one target weight share one monomial,
    so a grade's map is its generator's action up to a nonzero scalar
    (``_Node``).  X is generated by its last basis vector, and a map out
    of X is fixed by that vector's image:
    Hom(Delta(lambda), C) is the space of vectors of weight -lambda (the
    library's sign) that E and E^(ell) kill, Delta(lambda) the Weyl
    module (Lusztig, "Quantum groups at roots of 1", Geom. Dedicata 35,
    1990).  SL_2 Weyl modules at a root of unity have length <= 2, and for
    n >= 1 and m < ell - 1 the radical is generated by F^(m+1) v_lambda;
    F^(m+1) = [m+1]! F^((m+1)) with [m+1]! != 0 for m + 1 < ell.  So
    Hom(X, C) = Hom(Delta(lambda) / radical, C) is the row system.  The
    column system is the same argument for the transposed action, where
    the grades of E and F trade places.

    The row solutions are exactly the last rows of ``hom_space(X, C)``, in
    its order, restricted to the block: X's last row holds the last
    unknowns of its (i, k)-major order, and t -> t[last] is injective (t is
    injective).  So every vector of that kernel ends in the last row, and
    its reduced basis, the one ``kernel`` returns (reduced at the last
    nonzero entries), restricts to the reduced basis of this kernel.  The
    column solutions span the last columns of ``hom_space(C, X)``."""
    ell = node.ell
    weight = -(ell * irr.n + irr.m)
    block = [i for i, w in enumerate(node.weights) if w == weight]
    kills, radical = (((1, 0), (ell, 0)), (0, 1)) if rows else (((0, 1), (0, ell)), (1, 0))
    paths = [(grade, 1) for grade in kills]
    if irr.n and irr.m < ell - 1:
        paths.append((radical, irr.m + 1))
    one = CyclotomicScalar.one(ell)
    units = {i: {n: one} for n, i in enumerate(block)}
    equations = [row for grade, steps in paths for row in _walk(node, grade, units, rows, steps)[-1].values()]
    if not equations:  # every vector of the block, with no elimination
        zero_s = CyclotomicScalar.zero(ell)
        return block, [[one if k == n else zero_s for k in range(len(block))] for n in range(len(block))]
    return block, kernel(SparseMatrix(ell, len(equations), len(block), equations))


def _decompose_node(node: _Node) -> DecompositionTree:
    """One node of the driver (see ``decompose``).  For each candidate X
    it solves two systems on C's weight -lambda block
    (``_singular_vectors``): the row solutions s, the last rows of the
    embeddings t: X -> C, and the column solutions u, the last columns of
    the projections p: C -> X.  Its two invertibility tests need no rank,
    by Schur's lemma: each candidate X is irreducible and End X is the
    scalars.

    * A nonzero intertwiner t: X -> C is injective, since its kernel is a
      subcomodule of X other than X.  So when dim X = dim C, the first
      embedding is an isomorphism and C is the Leaf X.
    * t p: X -> C -> X lies in End X, so t p = lambda id_X, and it is
      invertible exactly when it is nonzero.  lambda is the last diagonal
      entry of t p, sum_i s_i u_i, and the split embedding is the first s
      with a nonzero sum against some u: the u span the last columns of
      the projections, so this is the first t of ``hom_space(X, C)`` with a
      p such that t p != 0.

    Both branches recurse on one quotient, C / im t.  Where t p =
    lambda id_X with lambda != 0, C = im t (+) ker p: maps act on rows, so
    every v in C is v p t / lambda + (v - v p t / lambda), the second part
    in ker p since v p t p = lambda v p; and x t in ker p means
    lambda x = x t p = 0, so im t meets ker p in 0.  ker p is a
    subcomodule, p being a comodule map.  The quotient map C -> C / im t is
    a comodule map; restricted to ker p it is injective between spaces of
    equal dimension, so C / im t is isomorphic to ker p and X splits off:
    DirectSum(X, tree of C / im t).  Otherwise the first embedding gives
    Extension(X, tree of C / im t).

    im t is spanned by the dim X rows that ``_image_rows`` walks from s.
    Quotienting by im t eliminates them, with no subcomodule test
    (``_quotient_by_image``); they span the image of the t that
    ``hom_space`` gives, so the quotient and the tree are the same.
    """
    for irr in sorted(set(_peel(node.weights, node.ell, node.family)), key=lambda irr: (irr.dim, irr.m, irr.n)):
        block, into = _singular_vectors(node, irr, rows=True)
        if not into:
            continue
        if irr.dim == len(node.weights):
            return Leaf(irr)
        _, out_of = _singular_vectors(node, irr, rows=False)
        # t p = lambda id_X, and lambda is the last diagonal entry sum_i s_i u_i
        split = next((s for s in into if any(sum(x * y for x, y in zip(s, u)) for u in out_of)), None)
        s = into[0] if split is None else split
        rest = _decompose_node(_quotient_by_image(node, _image_rows(node, irr, block, s)))
        if split is None:
            return Extension(Leaf(irr), rest)
        children = [Leaf(irr), *(rest.children if isinstance(rest, DirectSum) else (rest,))]
        children.sort(key=lambda ch: (ch.dim, ch.notation()))
        return DirectSum(tuple(children))
    raise ValueError(f"no irreducible constituent found in {node.family} (dim {len(node.weights)})")


def _image_rows(node: _Node, irr: Irr, block: list[int], s: Vector) -> SparseRows:
    """Rows that span im t for the embedding t: X -> C whose last row is s
    on the weight block ``block`` (``_singular_vectors``), X = W_n (x) V_m:
    the dim X rows F^a (F^(ell))^b s for 0 <= b <= n and 0 <= a <= m,
    b-major, walked with the maps of the grades (0, 1) and (0, ell) only.

    Why they span.  X is isomorphic to V_m (x) W_n, W_n the Frobenius
    pullback of the classical spin n/2 module (Steinberg's tensor product
    theorem; Lusztig, "Quantum groups at roots of 1", Geom. Dedicata 35,
    1990), and s is the image of v_m (x) w_n, the vector that E and
    E^(ell) kill.  E, F and F^(r) for 0 < r < ell act as zero on W_n, and
    F^(ell) as zero on V_m (m < ell), so in the coproduct F acts on the V_m
    factor only and F^(ell) on the W_n factor only, each up to the torus's
    nonzero scalars: F^a (F^(ell))^b (v_m (x) w_n) is a nonzero multiple of
    F^a v_m (x) f^b w_n, which is nonzero for a <= m and b <= n.  A
    grade's map is its generator's action up to a nonzero scalar on a
    weight vector (``_Node``), so each row is a nonzero multiple of the
    image under t of such a vector.  Their weights differ (a < ell), each
    weight space of X is a line, and t is injective: the dim X rows are
    independent and span im t.  A row that is zero, which the argument
    rules out on the node of a corep, raises ValueError."""
    start = {i: {0: x} for i, x in zip(block, s) if x}  # one vector, the 0 of _grade_map's form
    heads = _walk(node, (0, node.ell), start, True, irr.n)
    path = [v for head in heads for v in _walk(node, (0, 1), head, True, irr.m)]
    if not all(path):  # a zero vector maps to zero, so the nonzero ones are the dimension reached
        raise ValueError(f"the image of {irr.name} in {node.family} closes at dim {sum(map(bool, path))}, not {irr.dim}")
    return [{i: entries[0] for i, entries in v.items()} for v in path]


def _quotient_by_image(node: _Node, rows: SparseRows) -> _Node:
    """The node of C / im t for a nonzero comodule map t: X -> C out of a
    simple X, given by rows that span im t, with no subcomodule test: im t
    is a subcomodule (rho^X t = t rho^C), and t is injective (its kernel is
    a subcomodule of the simple X), so the k = dim X rows are independent.
    One ``rref`` of them gives the free columns and the reduction R
    (``_reduction``) that ``_subquotient`` reads off the reduced
    [rows | I_k]; they depend on im t only, not on the rows spanning it.

    The quotient coaction is rho[free] R.  A scalar change of basis keeps
    every term's b/c grade, and a weight basis has one monomial per cell
    and grade, so the quotient's action of a grade is G[free] R.  R's rows
    at the free columns are unit rows, so its weights are those of the
    free columns.  ValueError when the rows are dependent (fewer than k
    pivots), which never happens on a basis of an image."""
    dim = len(node.weights)
    red, pivots = rref(SparseMatrix(node.ell, len(rows), dim, rows))
    free, reduction = _reduction(red, pivots, dim, len(rows))
    position = {j: n for n, j in enumerate(free)}
    actions = {}
    for grade, terms in node.actions.items():
        out: dict[int, dict[int, CyclotomicScalar]] = {}
        for i, k, x in terms:
            if i in position:
                for n, s in reduction[k].items():
                    _add_entry(out.setdefault(position[i], {}), n, x if s.is_one() else x * s)
        actions[grade] = tuple((i, n, x) for i, row in sorted(out.items()) for n, x in sorted(row.items()))
    return _Node(node.ell, tuple(node.weights[j] for j in free), f"{node.family}/sub", actions)
