"""Exact linear algebra over CyclotomicScalar.

One format for computation: sparse rows (``SparseRows``).  A
``SparseMatrix`` holds one {column: nonzero entry} dict per row, and every
operation works on those rows: elimination, the product (row i sums
x * other[k] over its entries x) and the Kronecker product.  Two row
updates, both here, add into a row and drop the entries that cancel:
``_add_multiple`` adds a multiple of another row (the elimination and
the product), and ``_add_entry`` adds one entry (the equations and
quotients of ``corep``, the braiding maps of ``braid``).  No other module
updates a row.  So the work scales with the fill, not with rows x cols; the
intertwiner systems and PBW coordinate matrices that ``corep`` builds,
the braiding maps of ``braid`` and the images of
``hopf.FRepresentation`` are sparse from the start.  Every routine below
takes a ``SparseMatrix``, and ``rref`` and ``inverse`` return one; a
``ScalarMatrix`` with an entry raises ``TypeError``, since its rows are
lists, not dicts.  The dense ``ScalarMatrix``, with the same ``ell``,
``rows`` and ``cols``, only holds values: it is the type of the public
tables (hom spaces, ``braid.BraidingMatrix.matrix``, the reference
tables), read through its ``data`` rows and ``==``, and has no
arithmetic.  ``SparseMatrix.from_dense`` and ``SparseMatrix.dense``
convert at that boundary.

One elimination, the leading-entry echelon ``_echelon``, serves every
routine: rows go one at a time into a basis keyed by leading column and are
reduced only at their leading entry.  ``rank`` (and ``is_invertible``)
counts the basis; ``rref`` back-substitutes it into the reduced echelon
form, which ``kernel``, ``solve_many``, ``inverse`` and the subquotients
of ``corep`` read; ``corep.irreducibility_certificate`` reads the first
relation among the rows of a matrix off the same routine.  One reader, ``_null_rows``,
reads the free columns and the reduction R onto them off a reduced
echelon form: ``kernel`` returns R's columns, and the quotients of
``corep`` multiply by R.

``rank`` and ``kernel`` first sort the rows stably by nonzero count,
sparsest first.  Hom-space systems are tall and redundant (End of
V2 (x) V2 at ell >= 5 is 32 equations in 19 unknowns, of rank 16, and
``corep.hom_space`` passes repeated equations too); taking short rows
first keeps the redundant rows from filling in before they cancel.  Row
order cannot change the row space, hence neither the rank nor the kernel,
and the reduced echelon form of a row space is unique, so the results are
the same exact values as without the sort.

Entries are exact ``CyclotomicScalar`` values (integer numerators over one
denominator), so ranks, kernels and solutions are bit-identical across
runs.  ``solve_many``, and through it ``solve``, reduces [M | b1 ... bk]
once for every right-hand side; ``inverse`` reduces [M | I] once, I
as sparse rows too, and reads M^-1 off the right block.  The public
subquotients of ``corep`` read a change of basis off one reduced
[B | I]; the decomposition driver's quotient by an image reads the free columns and
R (``_null_rows``) off the reduced B alone, and multiplies only scalar
matrices, its node's generator actions G, into G[free] R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .cyclo import CyclotomicScalar

Vector = list[CyclotomicScalar]
SparseRows = list[dict[int, CyclotomicScalar]]  # one {column: nonzero entry} dict per row


class LinAlgError(Exception):
    pass


class SingularMatrixError(LinAlgError):
    pass


class NoSolutionError(LinAlgError):
    pass


@dataclass
class ScalarMatrix:
    ell: int
    rows: int
    cols: int
    data: list[list[CyclotomicScalar]]

    @staticmethod
    def from_rows(ell: int, rows: list[list[CyclotomicScalar]]) -> "ScalarMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return ScalarMatrix(ell, nrows, ncols, [list(r) for r in rows])

    @staticmethod
    def zeros(ell: int, rows: int, cols: int) -> "ScalarMatrix":
        z = CyclotomicScalar.zero(ell)
        return ScalarMatrix(ell, rows, cols, [[z] * cols for _ in range(rows)])

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)


@dataclass
class SparseMatrix:
    """A matrix stored as one {column: nonzero entry} dict per row, with the
    same ``ell``, ``rows`` and ``cols`` as the dense matrix it stands for."""

    ell: int
    rows: int
    cols: int
    data: SparseRows

    @staticmethod
    def from_dense(matrix: ScalarMatrix) -> "SparseMatrix":
        return SparseMatrix(
            matrix.ell, matrix.rows, matrix.cols,
            [{j: x for j, x in enumerate(row) if x} for row in matrix.data],
        )

    @staticmethod
    def identity(ell: int, n: int) -> "SparseMatrix":
        one = CyclotomicScalar.one(ell)
        return SparseMatrix(ell, n, n, [{i: one} for i in range(n)])

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """The matrix product, row by row: row i sums x * other[k] over the
        entries x = self[i][k]."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for row in self.data:
            acc: dict[int, CyclotomicScalar] = {}
            for k, x in row.items():
                _add_multiple(acc, x, other.data[k])
            out.append(acc)
        return SparseMatrix(self.ell, self.rows, other.cols, out)

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """Kronecker product; entry (i, k) of self times entry (j, l) of
        other lands at row i*other.rows + j, column k*other.cols + l."""
        return SparseMatrix(
            self.ell, self.rows * other.rows, self.cols * other.cols,
            [
                {k * other.cols + l: x * y for k, x in row.items() for l, y in other_row.items()}
                for row in self.data for other_row in other.data
            ],
        )

    def dense(self) -> ScalarMatrix:
        zero = CyclotomicScalar.zero(self.ell)
        data = []
        for row in self.data:
            out = [zero] * self.cols
            for j, x in row.items():
                out[j] = x
            data.append(out)
        return ScalarMatrix(self.ell, self.rows, self.cols, data)

    def transpose(self) -> "SparseMatrix":
        out: SparseRows = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out[j][i] = x
        return SparseMatrix(self.ell, self.cols, self.rows, out)


def _sparsest_first(matrix: SparseMatrix) -> SparseMatrix:
    """The rows of ``matrix``, stably sorted by their number of nonzero
    entries.  Row order changes neither the row space nor, therefore, the
    rank, the kernel or the reduced echelon form."""
    return SparseMatrix(matrix.ell, matrix.rows, matrix.cols, sorted(matrix.data, key=len))


def _add_entry(row: dict[int, CyclotomicScalar], j: int, x: CyclotomicScalar) -> None:
    """row[j] += x for a nonzero x, in place, dropping the entry when it
    cancels."""
    if j not in row:
        row[j] = x
    elif value := row[j] + x:
        row[j] = value
    else:
        del row[j]


def _add_multiple(
    row: dict[int, CyclotomicScalar], factor: CyclotomicScalar, other: dict[int, CyclotomicScalar]
) -> None:
    """row += factor * other, in place, dropping the entries that cancel.
    The loop is ``_add_entry`` written out, without a call per entry: it
    is the inner loop of every elimination and product."""
    for j, y in other.items():
        x = row.get(j)
        value = factor * y if x is None else x + factor * y
        if value:
            row[j] = value
        else:
            del row[j]


def _normalised(entry: list) -> dict[int, CyclotomicScalar]:
    """The entries of a basis row [pivot, entries] after its leading entry,
    divided by the pivot; the division happens once, and the pivot is then
    set to None."""
    if entry[0] is not None:
        inv = entry[0].inverse()
        entry[:] = [None, {j: inv * y for j, y in entry[1].items()}]
    return entry[1]


def _echelon(
    rows: Iterable[dict[int, CyclotomicScalar]], width: int
) -> tuple[dict[int, list], Optional[dict[int, CyclotomicScalar]]]:
    """Insert the rows one at a time into an echelon basis keyed by leading
    column (the smallest column of a nonzero entry); the input rows are left
    unchanged.

    A row is reduced only at its leading entry, by the basis row that leads
    there: row -= row[lead] * basis_row, with the basis row normalised to a
    leading 1 the first time another row meets it.  That repeats until the
    row leads at a new column and joins the basis, or cancels completely
    and adds nothing.  So the basis spans the rows inserted so far and has
    one row per independent one.

    Returns the basis, {lead: [pivot, other entries]} with pivot None once
    normalised, and None; or stops at the first row whose entries in the
    columns below ``width`` all cancel while entries at or beyond ``width``
    remain, and returns the basis so far and what remains of that row."""
    basis: dict[int, list] = {}
    for given in rows:
        row = dict(given)
        while row:
            lead = min(row)
            if lead >= width:
                return basis, row
            entry = basis.get(lead)
            if entry is None:
                basis[lead] = [row.pop(lead), row]
                break
            _add_multiple(row, -row.pop(lead), _normalised(entry))
    return basis, None


def rref(matrix: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.  The
    ``_echelon`` basis of the rows is back-substituted from the last pivot
    up: each basis row is normalised, then cleared at the later pivot
    columns by the rows already reduced.  The reduced echelon form of a row
    space is unique, so row order changes only the work."""
    basis = _echelon(matrix.data, matrix.cols)[0]
    pivots = sorted(basis)
    reduced: dict[int, dict[int, CyclotomicScalar]] = {}
    for lead in reversed(pivots):
        row = _normalised(basis[lead])
        for p in [j for j in row if j in reduced]:
            _add_multiple(row, -row.pop(p), reduced[p])
        reduced[lead] = row
    one = CyclotomicScalar.one(matrix.ell)
    data = [{lead: one, **reduced[lead]} for lead in pivots]
    data += [{} for _ in range(matrix.rows - len(pivots))]
    return SparseMatrix(matrix.ell, matrix.rows, matrix.cols, data), pivots


def rank(matrix: SparseMatrix) -> int:
    """The number of independent rows: the size of the ``_echelon`` basis
    of the rows, taken sparsest first."""
    return len(_echelon(_sparsest_first(matrix).data, matrix.cols)[0])


def _null_rows(
    red: SparseMatrix, pivots: list[int], width: int
) -> tuple[list[int], SparseRows]:
    """The free columns among the first ``width`` columns of a reduced
    echelon form whose pivots all lie there, and the reduction R onto them:
    R's row at the n-th free column is the unit row n, and its row at the
    r-th pivot is minus the free entries of row r."""
    one = CyclotomicScalar.one(red.ell)
    free = sorted(set(range(width)) - set(pivots))
    reduction: SparseRows = [{} for _ in range(width)]
    for n, j in enumerate(free):
        reduction[j] = {n: one}
    for row, p in zip(red.data, pivots):
        reduction[p] = {n: -row[j] for n, j in enumerate(free) if j in row}
    return free, reduction


def kernel(matrix: SparseMatrix) -> list[Vector]:
    """Basis of {x : M x = 0}: the columns of the reduction R onto the free
    columns (``_null_rows``), each with its free coordinate 1."""
    free, reduction = _null_rows(*rref(_sparsest_first(matrix)), matrix.cols)
    zero = CyclotomicScalar.zero(matrix.ell)
    return [[row.get(n, zero) for row in reduction] for n in range(len(free))]


def solve_many(matrix: SparseMatrix, columns: list[Vector]) -> list[Vector]:
    """One exact solution of M x = b for each right-hand side b, from one
    reduction of [M | b1 ... bk]; NoSolutionError when a pivot lands in
    the b columns, since then some b is not in the column space of M."""
    n = matrix.cols
    if any(len(b) != matrix.rows for b in columns):
        raise ValueError("rhs length mismatch")
    aug = SparseMatrix(matrix.ell, matrix.rows, n + len(columns), [
        {**row, **{n + k: b[i] for k, b in enumerate(columns) if b[i]}} for i, row in enumerate(matrix.data)
    ])
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        raise NoSolutionError("inconsistent linear system")
    zero = CyclotomicScalar.zero(matrix.ell)
    solutions = [[zero] * n for _ in columns]
    for row, pcol in zip(red.data, pivots):
        for j, value in row.items():
            if j >= n:
                solutions[j - n][pcol] = value
    return solutions


def solve(matrix: SparseMatrix, rhs: Vector) -> Vector:
    """One exact solution of M x = b, or NoSolutionError."""
    return solve_many(matrix, [rhs])[0]


def inverse(matrix: SparseMatrix) -> SparseMatrix:
    """M^-1, read off the right block of the reduced [M | I]: M is
    invertible exactly when the pivots are the columns 0..n-1 of M, and
    then row i of the reduced form is e_i followed by row i of M^-1.
    SingularMatrixError when M is not square or not invertible."""
    n = matrix.rows
    if n != matrix.cols:
        raise SingularMatrixError("inverse of non-square matrix")
    one = CyclotomicScalar.one(matrix.ell)
    augmented = [{**row, n + i: one} for i, row in enumerate(matrix.data)]
    red, pivots = rref(SparseMatrix(matrix.ell, n, 2 * n, augmented))
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return SparseMatrix(matrix.ell, n, n, [{j - n: x for j, x in row.items() if j >= n} for row in red.data])


def is_invertible(matrix: SparseMatrix) -> bool:
    """Square and of full rank.  The rank is read before the shape, so a
    dense matrix is refused whatever its shape."""
    return rank(matrix) == matrix.rows == matrix.cols
