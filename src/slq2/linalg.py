"""Exact dense linear algebra over CyclotomicScalar.

Gauss-Jordan elimination with pivoting on the first nonzero entry, on
entries that are exact ``CyclotomicScalar`` values (integer numerators
over one denominator); everything is deterministic so ranks, kernels and
solutions are reproducible across runs.  Dimensions here stay small (a
few hundred at most), so no sparsity or modular tricks are needed.
``solve_many`` is the only code that eliminates an augmented system: one
reduction of [M | b1 ... bk] serves every right-hand side, and ``solve``
and ``inverse`` go through it.
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

    def copy(self) -> "ScalarMatrix":
        return ScalarMatrix(self.ell, self.rows, self.cols, [list(r) for r in self.data])

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
    sought only among the first ``pivot_cols`` columns (default: all)."""
    m = matrix.copy()
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols if pivot_cols is None else pivot_cols):
        sel = None
        for r in range(pivot_row, m.rows):
            if not m.data[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        m.data[pivot_row], m.data[sel] = m.data[sel], m.data[pivot_row]
        inv = m.data[pivot_row][col].inverse()
        m.data[pivot_row] = [inv * x for x in m.data[pivot_row]]
        for r in range(m.rows):
            if r == pivot_row:
                continue
            factor = m.data[r][col]
            if factor.is_zero():
                continue
            m.data[r] = [x - factor * y for x, y in zip(m.data[r], m.data[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return m, pivots


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

