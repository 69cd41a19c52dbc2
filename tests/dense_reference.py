"""Textbook dense Gauss-Jordan, the reference that the tests check the
sparse leading-entry elimination of ``slq2.linalg`` against.  It shares no
code with the library."""

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
