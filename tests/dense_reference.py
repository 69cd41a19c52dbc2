"""Textbook dense matrix arithmetic, the reference that the tests check the
sparse rows of ``slq2.linalg`` against: Gauss-Jordan for the leading-entry
elimination, and the entry-by-entry product and Kronecker product for the
row-by-row ones, with the identity and the transpose that the tests build
dense matrices from.  It shares no code with the library."""

from slq2.cyclo import CyclotomicScalar
from slq2.linalg import ScalarMatrix


def dense_rref(m, pivot_cols=None):
    """Reduced row echelon form of a ``ScalarMatrix`` and its pivot columns,
    with pivots sought among the first ``pivot_cols`` columns (default: all):
    pivot on the first nonzero entry at or below the current row, scale the
    pivot row, clear the column in every other row."""
    data = [list(row) for row in m.data]
    pivots, pivot_row = [], 0
    for col in range(m.cols if pivot_cols is None else pivot_cols):
        sel = next((r for r in range(pivot_row, m.rows) if not data[r][col].is_zero()), None)
        if sel is None:
            continue
        data[pivot_row], data[sel] = data[sel], data[pivot_row]
        inv = data[pivot_row][col].inverse()
        data[pivot_row] = [inv * x for x in data[pivot_row]]
        for r in range(m.rows):
            if r != pivot_row and not data[r][col].is_zero():
                factor = data[r][col]
                data[r] = [x - factor * y for x, y in zip(data[r], data[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return ScalarMatrix(m.ell, m.rows, m.cols, data), pivots


def dense_product(a, b):
    """The product of two ``ScalarMatrix`` values: entry (i, j) sums
    a[i][k] * b[k][j] over the k where both are nonzero."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    out = [[CyclotomicScalar.zero(a.ell)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            x = a.data[i][k]
            if x.is_zero():
                continue
            for j in range(b.cols):
                y = b.data[k][j]
                if not y.is_zero():
                    out[i][j] = out[i][j] + x * y
    return ScalarMatrix(a.ell, a.rows, b.cols, out)


def dense_kron(a, b):
    """The Kronecker product of two ``ScalarMatrix`` values: entry
    (i*b.rows + j, k*b.cols + l) is a[i][k] * b[j][l]."""
    return ScalarMatrix(
        a.ell, a.rows * b.rows, a.cols * b.cols,
        [
            [a.data[i][k] * b.data[j][l] for k in range(a.cols) for l in range(b.cols)]
            for i in range(a.rows) for j in range(b.rows)
        ],
    )


def dense_identity(ell, n):
    """The n x n identity as a ``ScalarMatrix``."""
    zero, one = CyclotomicScalar.zero(ell), CyclotomicScalar.one(ell)
    return ScalarMatrix(ell, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])


def dense_transpose(m):
    """The transpose of a ``ScalarMatrix``."""
    return ScalarMatrix(m.ell, m.cols, m.rows, [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)])


def is_zero_matrix(m):
    """True iff every entry of a ``ScalarMatrix`` is zero."""
    return all(x.is_zero() for row in m.data for x in row)
