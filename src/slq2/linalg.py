"""Exact linear algebra over CyclotomicScalar.

Matrices are dense ``ScalarMatrix`` values, but ``rref`` works on the
nonzero entries only: it turns each row into a dict {column: entry} once,
pivots on the first row holding the column, eliminates by walking the
pivot row's entries, and writes the dense result back.  The intertwiner
systems it mostly serves are 5-20 % nonzero.  Entries are exact
``CyclotomicScalar`` values (integer numerators over one denominator) and
the reduced echelon form is unique, so ranks, kernels and solutions are
bit-identical across runs.  ``solve_many``, and through it ``solve`` and
``inverse``, reduce [M | b1 ... bk] once for every right-hand side; the
subquotients of ``corep`` read a change of basis off one [B | I].
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import CyclotomicScalar

Vector = list[CyclotomicScalar]


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

    @staticmethod
    def identity(ell: int, n: int) -> "ScalarMatrix":
        m = ScalarMatrix.zeros(ell, n, n)
        one = CyclotomicScalar.one(ell)
        for i in range(n):
            m.data[i][i] = one
        return m

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __setitem__(self, idx, value):
        i, j = idx
        self.data[i][j] = value

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.ell, self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def scale(self, c: CyclotomicScalar) -> "ScalarMatrix":
        return ScalarMatrix(self.ell, self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ScalarMatrix(
            self.ell, self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return self + other.scale(CyclotomicScalar.from_rational(self.ell, -1))

    def __mul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        zero = CyclotomicScalar.zero(self.ell)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                a = row[k]
                if a.is_zero():
                    continue
                brow = other.data[k]
                orow = out[i]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return ScalarMatrix(self.ell, self.rows, other.cols, out)

    def kron(self, other: "ScalarMatrix") -> "ScalarMatrix":
        """Kronecker product; row (i,j) maps to i*other.rows + j."""
        out = ScalarMatrix.zeros(self.ell, self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.data[i][k]
                if a.is_zero():
                    continue
                for j in range(other.rows):
                    for l in range(other.cols):
                        b = other.data[j][l]
                        if not b.is_zero():
                            out.data[i * other.rows + j][k * other.cols + l] = a * b
        return out

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)


def rref(matrix: ScalarMatrix, *, pivot_cols: int | None = None) -> tuple[ScalarMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns, with pivots
    sought only among the first ``pivot_cols`` columns (default: all).

    Rows are eliminated as dicts of their nonzero entries, so the work
    scales with the fill, not with rows x cols."""
    one = CyclotomicScalar.one(matrix.ell)
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix.data]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(matrix.cols if pivot_cols is None else pivot_cols):
        sel = next((r for r in range(pivot_row, len(rows)) if col in rows[r]), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = rows[pivot_row].pop(col).inverse()
        items = [(j, inv * y) for j, y in rows[pivot_row].items()]
        for row in rows:
            factor = row.pop(col, None)
            if factor is None:
                continue
            for j, y in items:
                x = row.get(j)
                value = -(factor * y) if x is None else x - factor * y
                if value:
                    row[j] = value
                else:
                    del row[j]
        rows[pivot_row] = dict(items)
        rows[pivot_row][col] = one
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    zero = CyclotomicScalar.zero(matrix.ell)
    data = []
    for row in rows:
        dense = [zero] * matrix.cols
        for j, x in row.items():
            dense[j] = x
        data.append(dense)
    return ScalarMatrix(matrix.ell, matrix.rows, matrix.cols, data), pivots


def rank(matrix: ScalarMatrix) -> int:
    return len(rref(matrix)[1])


def kernel(matrix: ScalarMatrix) -> list[Vector]:
    """Basis of {x : M x = 0}; each free column contributes one vector
    with the free coordinate normalised to 1."""
    red, pivots = rref(matrix)
    ell = matrix.ell
    zero = CyclotomicScalar.zero(ell)
    one = CyclotomicScalar.one(ell)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [zero] * matrix.cols
        vec[free] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -red.data[prow][free]
        basis.append(vec)
    return basis


def solve_many(matrix: ScalarMatrix, columns: list[Vector]) -> list[Vector]:
    """One exact solution of M x = b for each right-hand side b, from one
    reduction of [M | b1 ... bk] that pivots only in M's columns (a pivot in
    an inconsistent b would alter the later ones); else NoSolutionError."""
    n = matrix.cols
    if any(len(b) != matrix.rows for b in columns):
        raise ValueError("rhs length mismatch")
    aug = ScalarMatrix(
        matrix.ell, matrix.rows, n + len(columns),
        [row + [b[i] for b in columns] for i, row in enumerate(matrix.data)],
    )
    red, pivots = rref(aug, pivot_cols=n)
    if any(not x.is_zero() for row in red.data[len(pivots):] for x in row[n:]):
        raise NoSolutionError("inconsistent linear system")
    zero = CyclotomicScalar.zero(matrix.ell)
    solutions = [[zero] * n for _ in columns]
    for prow, pcol in enumerate(pivots):
        for x, value in zip(solutions, red.data[prow][n:]):
            x[pcol] = value
    return solutions


def solve(matrix: ScalarMatrix, rhs: Vector) -> Vector:
    """One exact solution of M x = b, or NoSolutionError."""
    return solve_many(matrix, [rhs])[0]


def inverse(matrix: ScalarMatrix) -> ScalarMatrix:
    if matrix.rows != matrix.cols:
        raise SingularMatrixError("inverse of non-square matrix")
    try:
        columns = solve_many(matrix, ScalarMatrix.identity(matrix.ell, matrix.rows).data)
    except NoSolutionError:
        raise SingularMatrixError("matrix is singular") from None
    return ScalarMatrix.from_rows(matrix.ell, columns).transpose()


def is_invertible(matrix: ScalarMatrix) -> bool:
    return matrix.rows == matrix.cols and rank(matrix) == matrix.rows

