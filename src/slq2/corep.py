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
decomposition driver for ell = 3 that reproduces the known tensor product
tables of the V-series.  A Corep is an immutable value: its labels and
rows are tuples, so the builders are memoised and every caller of
``build_y(m, ell)``, ``build_v`` or ``build_w`` shares one instance, with
the gradings it caches.  Hom spaces are blocked on integer torus weights
and built from the equations of the monomials of b/c grade (0, 0), (1, 0),
(0, 1), (ell, 0) and (0, ell) only, the grades that the generators K, E,
F, E^(ell), F^(ell) of Lusztig's restricted form pair with.  The
driver's candidates are the composition factors read off the torus
character, so input without integer torus weights raises ValueError; a
candidate X splits off where an embedding t: X -> C and a projection
p: C -> X compose to an invertible t p, with complement ker p.  The
subcomodule test, the restriction and the quotient all read one change of
basis, one elimination per call; a dependent basis raises ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .algebra import (
    AlgebraElement,
    AlgebraMode,
    NormalMonomial,
    multiply,
    pbw_coordinates,
    zero,
)
from .cyclo import CyclotomicScalar, q_power
from .hopf import _coproduct_monomial, coproduct, counit
from .linalg import (
    ScalarMatrix,
    SparseMatrix,
    is_invertible,
    kernel,
    rank,
    rref,
)

Vector = list[CyclotomicScalar]
SparseRows = list[dict[int, CyclotomicScalar]]  # one {column: nonzero entry} dict per row
MatrixTerm = tuple[int, int, NormalMonomial, CyclotomicScalar]  # (row, col, monomial, coefficient)


@dataclass(frozen=True)
class Corep:
    """A corepresentation: a labelled basis and the coaction matrix rho,
    with the convention  v_i -> sum_j rho[i][j] (x) v_j.  The comodule
    axioms (Delta rho = rho . rho entrywise, eps rho = identity) are
    checkable with ``verify_corep``.

    An immutable value: the fields are frozen, and construction stores
    ``basis_labels`` as a tuple and ``rho`` as a tuple of row tuples,
    whatever sequences were passed.  Instances are shared (the memoised
    builders, ``_irr_corep``) and cache their torus weights and their b/c
    term index; build changed copies with ``dataclasses.replace``.  The
    algebra elements in ``rho`` are shared too and are never modified."""

    mode: AlgebraMode
    dim: int
    basis_labels: tuple[str, ...]
    rho: tuple[tuple[AlgebraElement, ...], ...]
    family: str = ""

    def __post_init__(self):
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        object.__setattr__(self, "rho", tuple(tuple(row) for row in self.rho))

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
        None when the image is not of that form.  Computed on the first
        call, then returned from the instance.
        """
        return self._torus_weights

    def weight_values(self) -> Optional[tuple[CyclotomicScalar, ...]]:
        """The weights evaluated at x = q: q^t for each torus weight t, the
        values of chi_1 o pi_F (the projection onto F followed by its
        order-one character) on the diagonal entries.  None when
        ``torus_weights`` is None."""
        return self._weight_values

    @cached_property
    def terms_by_bc(self) -> Mapping[tuple[int, int], tuple[MatrixTerm, ...]]:
        """The terms of rho graded by (b-exponent, c-exponent): the key
        (j, k) maps to the (row, col, monomial, coefficient) of every term
        a^t b^j c^k (or its d form) of every entry, in row-major order.
        The b/c grading of the matrix elements, next to the a/d grading of
        ``torus_weights``; computed on the first read, then read-only."""
        index: dict[tuple[int, int], list[MatrixTerm]] = {}
        for i, row in enumerate(self.rho):
            for j, entry in enumerate(row):
                for mono, c in entry.terms.items():
                    index.setdefault((mono.j, mono.k), []).append((i, j, mono, c))
        return MappingProxyType({key: tuple(terms) for key, terms in index.items()})

    @cached_property
    def _torus_weights(self) -> Optional[tuple[int, ...]]:
        period = self.mode.a_period
        one = CyclotomicScalar.one(self.ell)
        weights = []
        for i, row in enumerate(self.rho):
            for j, entry in enumerate(row):
                image: dict[int, CyclotomicScalar] = {}
                for mono, c in entry.terms.items():
                    if not (mono.j or mono.k):
                        t = mono.t if period is None else mono.t % period
                        image[t] = image[t] + c if t in image else c
                image = {t: c for t, c in image.items() if not c.is_zero()}
                if i != j:
                    if image:
                        return None
                elif list(image.values()) == [one]:
                    weights.append(next(iter(image)))
                else:
                    return None
        return tuple(weights)

    @cached_property
    def _weight_values(self) -> Optional[tuple[CyclotomicScalar, ...]]:
        weights = self.torus_weights()
        return None if weights is None else tuple(q_power(self.ell, t) for t in weights)


@dataclass
class Subspace:
    """A subspace of a corepresentation, given by independent row vectors."""

    ambient: Corep
    basis: list[Vector]

    @property
    def dim(self) -> int:
        return len(self.basis)


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
    """Tensor product corepresentation, basis ordered first-factor major."""
    if a.mode != b.mode:
        raise ValueError("tensor factors live in different modes")
    dim = a.dim * b.dim
    labels = [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels]
    rho = [[zero(a.mode) for _ in range(dim)] for _ in range(dim)]
    for i in range(a.dim):
        for r in range(b.dim):
            for j in range(a.dim):
                aij = a.rho[i][j]
                if aij.is_zero():
                    continue
                for s in range(b.dim):
                    brs = b.rho[r][s]
                    if brs.is_zero():
                        continue
                    rho[i * b.dim + r][j * b.dim + s] = multiply(aij, brs)
    name = f"{a.family or '?'}(x){b.family or '?'}"
    return Corep(a.mode, dim, labels, rho, name)


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
    """Check Delta(rho_ij) = sum_k rho_ik (x) rho_kj and eps(rho_ij) = delta_ij."""
    from .hopf import TensorElement, tensor_of

    failures = []
    comult = True
    for i in range(c.dim):
        for j in range(c.dim):
            lhs = coproduct(c.rho[i][j])
            rhs = TensorElement(c.mode, 2, {})
            for k in range(c.dim):
                left, right = c.rho[i][k], c.rho[k][j]
                if left.is_zero() or right.is_zero():
                    continue
                rhs = rhs + tensor_of(left, right)
            if lhs != rhs:
                comult = False
                failures.append((i, j, "coproduct"))
    one = CyclotomicScalar.one(c.ell)
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
    independent: bool
    rank: int
    expected: int
    witness: Optional[Vector] = None  # a kernel vector when dependent


def irreducibility_certificate(c: Corep) -> Certificate:
    """Linear independence of the dim^2 matrix elements certifies
    irreducibility; a found relation is reported with a witness but does
    not by itself prove reducibility.  The rank and the witness (the first
    kernel vector of the transpose) are read off the sparse PBW coordinate
    matrix."""
    matrix, _ = pbw_coordinates(c.entries_flat())
    r = rank(matrix)
    expected = c.dim * c.dim
    if r == expected:
        return Certificate(True, r, expected)
    witness = kernel(matrix.transpose())[0] if r < matrix.rows else None
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
    the b/c term index of A and B (``Corep.terms_by_bc``).  They give the
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
    Row order: the distinct equations go to ``kernel`` as sparse rows in
    output-cell order, (i, k)-major, each cell's monomials grade by grade;
    the elimination pivots on the first row that holds a column, so this
    order decides its fill-in."""
    if a.mode != b.mode:
        raise ValueError("hom_space of coreps in different modes")
    ell = a.ell
    zero_s = CyclotomicScalar.zero(ell)

    wa = a.torus_weights()
    wb = b.torus_weights()
    keep: list[tuple[int, int]] = []
    for i in range(a.dim):
        for k in range(b.dim):
            if wa is not None and wb is not None and wa[i] != wb[k]:
                continue
            keep.append((i, k))
    unknown_index = {pair: n for n, pair in enumerate(keep)}
    nunk = len(keep)
    if nunk == 0:
        return []

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
        for i, j, mono, coeff in a.terms_by_bc.get(grade, ()):
            for k, idx in by_row[j]:
                slot = cells.setdefault((i, k), {}).setdefault(mono, {})
                slot[idx] = slot[idx] + coeff if idx in slot else coeff
        for j, k, mono, coeff in b.terms_by_bc.get(grade, ()):
            for i, idx in by_col[j]:
                slot = cells.setdefault((i, k), {}).setdefault(mono, {})
                slot[idx] = slot[idx] - coeff if idx in slot else -coeff

    rows: SparseRows = []
    seen: set[tuple] = set()
    for cell in sorted(cells):
        for entries in cells[cell].values():
            # dedup on the nonzero (unknown, coefficient) pairs
            key = tuple(sorted((idx, coeff) for idx, coeff in entries.items() if coeff))
            if not key or key in seen:
                continue
            seen.add(key)
            rows.append(dict(key))

    if not rows:
        solutions = [[CyclotomicScalar.one(ell) if n == m else zero_s for n in range(nunk)] for m in range(nunk)]
    else:
        solutions = kernel(SparseMatrix(ell, len(rows), nunk, rows))

    result = []
    for sol in solutions:
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
    entries {column: value}: out[i][n] = sum_j rows[i][j] matrix[j][n]."""
    out = []
    for row in rows:
        cells: list[dict[NormalMonomial, CyclotomicScalar]] = [{} for _ in range(width)]
        for entry, scalars in zip(row, matrix):
            for n, s in scalars.items():
                cell = cells[n]
                for mono, coeff in entry.terms.items():
                    product = coeff * s
                    cell[mono] = cell[mono] + product if mono in cell else product
        out.append([AlgebraElement(mode, {m: c for m, c in cell.items() if c}) for cell in cells])
    return out


def _subquotient(c: Corep, basis: list[Vector]) -> tuple[Optional[list[list[AlgebraElement]]], list[int], SparseRows]:
    """P rho P^-1 = [[tau, 0], [*, quotient]] for P = [B; E]: B the k basis
    rows, E the unit rows on the free columns of B's echelon form.

    One reduction of [B | I_k], pivoting in B's columns, gives P^-1: its row
    at the r-th pivot column is row r of the right block (G^-1, G = B on its
    pivot columns), then minus the free entries of row r; a free row is a
    unit row.  Returns (tau, free, P^-1[:, k:]), tau None when span(B) is not
    a subcomodule.  ValueError when B is dependent."""
    k, dim = len(basis), c.dim
    if any(len(v) != dim for v in basis):
        raise ValueError(f"basis vectors must have length {dim}")
    one = CyclotomicScalar.one(c.ell)
    augmented = [{j: x for j, x in enumerate(v) if x} for v in basis]
    for r, row in enumerate(augmented):
        row[dim + r] = one
    red, pivots = rref(SparseMatrix(c.ell, k, dim + k, augmented), pivot_cols=dim)
    if len(pivots) < k:
        raise ValueError(f"the {k} basis vectors are dependent (rank {len(pivots)})")
    free = sorted(set(range(dim)) - set(pivots))
    left: SparseRows = [{} for _ in range(dim)]
    right: SparseRows = [{} for _ in range(dim)]
    for n, j in enumerate(free):
        right[j] = {n: one}
    for row, p in zip(red.data, pivots):
        left[p] = {j - dim: x for j, x in row.items() if j >= dim}
        right[p] = {n: -row[j] for n, j in enumerate(free) if j in row}
    # B rho as (rho^T B^T)^T: row r is the coaction of basis[r]
    basis_columns = [{r: v[i] for r, v in enumerate(basis) if v[i]} for i in range(dim)]
    coactions = list(zip(*_times(c.mode, list(zip(*c.rho)), basis_columns, k)))
    if any(x for row in _times(c.mode, coactions, right, dim - k) for x in row):
        return None, free, right
    return _times(c.mode, coactions, left, k), free, right


def subcomodule_check(c: Corep, s: Subspace) -> bool:
    """True iff the coaction maps span(s) into A (x) span(s).  One
    elimination; a dependent basis raises ValueError."""
    return _subquotient(c, s.basis)[0] is not None


def restrict_corep(c: Corep, s: Subspace, family: str = "") -> Corep:
    """The coaction tau on span(s) in the basis s.basis (B rho = tau B), from
    one elimination.  ValueError for a non-subcomodule or a dependent basis."""
    tau = _subquotient(c, s.basis)[0]
    if tau is None:
        raise ValueError("not a subcomodule")
    labels = [f"s{r}" for r in range(len(s.basis))]
    return Corep(c.mode, len(s.basis), labels, tau, family or f"{c.family}|sub")


def quotient_corep(c: Corep, s: Subspace, family: str = "") -> Corep:
    """The induced corepresentation on C / span(s), on the basis vectors at
    the free columns of s.basis's echelon form, from the same elimination
    that tests the subcomodule.  ValueError for a non-subcomodule, the whole
    space or a dependent basis."""
    tau, free, reduction = _subquotient(c, s.basis)
    if tau is None:
        raise ValueError("cannot form the quotient by a non-subcomodule")
    if not free:
        raise ValueError("quotient by the whole space")
    rho = _times(c.mode, [c.rho[i] for i in free], reduction, len(free))
    labels = [c.basis_labels[j] for j in free]
    return Corep(c.mode, len(free), labels, rho, family or f"{c.family}/sub")


def span_of_basis_indices(c: Corep, indices: Sequence[int]) -> Subspace:
    zero_s = CyclotomicScalar.zero(c.ell)
    one = CyclotomicScalar.one(c.ell)
    basis = []
    for i in indices:
        v = [zero_s] * c.dim
        v[i] = one
        basis.append(v)
    return Subspace(c, basis)


def standard_y_subspace_indices(m: int, ell: int) -> list[int]:
    """Indices h with h mod ell <= m mod ell: the span that carries the
    maximal subcomodule of Y_m when m >= ell."""
    m0 = m % ell
    return [h for h in range(m + 1) if h % ell <= m0]


# ---------------------------------------------------------------------------
# decomposition driver (ell = 3)
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
    if weights is None or c.mode.is_quotient:
        return None
    ell = c.ell
    left = Counter(weights)
    factors = []
    while left:
        top = max(left)
        if top < 0:
            raise ValueError(f"the torus weights of {c.family or 'the corep'} are not a character: highest weight {top}")
        irr = Irr(*divmod(top, ell))
        for i in range(irr.n + 1):
            for j in range(irr.m + 1):
                w = ell * (irr.n - 2 * i) + irr.m - 2 * j
                if not left[w]:
                    raise ValueError(
                        f"the torus weights of {c.family or 'the corep'} are not a character: "
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


def decompose_l3(c: Corep) -> DecompositionTree:
    """Greedy decomposition at ell = 3.

    The candidates are the distinct composition factors W_n (x) V_m named
    by ``character_peel``, tried by ascending dimension (W grade before V
    grade at equal dimension); no other irreducible maps into the corep.
    A candidate X with an embedding t: X -> C and a projection p: C -> X
    whose composite t p is invertible is split off as a direct summand,
    and the driver recurses on the complement ker p.  An embedding without
    such a projection contributes an extension node, and the driver
    recurses on the quotient.  ValueError when ell != 3, and when the corep
    has no integer torus weights (no weight basis, or a quotient mode).
    """
    if c.ell != 3:
        raise ValueError("the automatic decomposition driver supports ell = 3 only")
    return _decompose(c)


def _decompose(c: Corep) -> DecompositionTree:
    ell = c.ell
    peel = character_peel(c)
    if peel is None:
        raise ValueError(
            f"{c.family or 'the corep'} has no integer torus weights (no weight basis, or a quotient mode): "
            "the decomposition driver reads its candidates off the torus character"
        )
    for irr in sorted(set(peel), key=lambda irr: (irr.dim, irr.m, irr.n)):
        x = _irr_corep(irr, ell)
        into = hom_space(x, c)
        if not into:
            continue
        if irr.dim == c.dim:
            for t in into:
                if is_invertible(t):
                    return Leaf(irr)
        out_of = hom_space(c, x)
        for t in into:
            for p in out_of:
                if not is_invertible(t * p):  # X -> C -> X
                    continue
                # t p invertible: C = im t (+) ker p, and ker p is a subcomodule
                complement = Subspace(c, kernel(p.transpose()))
                rest = restrict_corep(c, complement)
                branch = _decompose(rest)
                children: list[DecompositionTree] = [Leaf(irr)]
                if isinstance(branch, DirectSum):
                    children.extend(branch.children)
                else:
                    children.append(branch)
                children.sort(key=lambda ch: (ch.dim, ch.notation()))
                return DirectSum(tuple(children))
        # embeds but does not split: extension with the first embedding
        t = into[0]
        image = Subspace(c, [list(row) for row in t.data])
        quotient = quotient_corep(c, image)
        return Extension(Leaf(irr), _decompose(quotient))
    raise ValueError(f"no irreducible constituent found in {c.family} (dim {c.dim})")
