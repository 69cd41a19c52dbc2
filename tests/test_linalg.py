from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slq2.cyclo import CyclotomicScalar, q_power
from slq2.linalg import (
    NoSolutionError,
    ScalarMatrix,
    SingularMatrixError,
    SparseMatrix,
    inverse,
    is_invertible,
    kernel,
    rank,
    rref,
    solve,
    solve_many,
)

from dense_reference import dense_identity, dense_kron, dense_product, dense_rref, dense_transpose

ELL = 3


def s(v):
    return CyclotomicScalar.from_rational(ELL, v)


def small_matrices(rows, cols):
    entry = st.integers(min_value=-3, max_value=3).map(s)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: ScalarMatrix.from_rows(ELL, data))


def test_rank_identity():
    assert rank(SparseMatrix.identity(ELL, 4)) == 4


def test_kernel_single_relation():
    q = q_power(ELL, 1)
    m = ScalarMatrix.from_rows(ELL, [[CyclotomicScalar.one(ELL), q]])
    basis = kernel(SparseMatrix.from_dense(m))
    assert len(basis) == 1
    assert basis[0] == [-q, CyclotomicScalar.one(ELL)]


def test_solve_and_no_solution():
    m = SparseMatrix.from_dense(ScalarMatrix.from_rows(ELL, [[s(1), s(0)], [s(1), s(0)]]))
    x = solve(m, [s(2), s(2)])
    assert x[0] == 2
    with pytest.raises(NoSolutionError):
        solve(m, [s(1), s(2)])


def test_inverse_errors():
    singular = SparseMatrix.from_dense(ScalarMatrix.from_rows(ELL, [[s(1), s(1)], [s(1), s(1)]]))
    with pytest.raises(SingularMatrixError):
        inverse(singular)


def test_inverse_exact():
    q = q_power(ELL, 1)
    m = ScalarMatrix.from_rows(ELL, [[q, s(1)], [s(0), q**2]])
    assert dense_product(m, inverse(SparseMatrix.from_dense(m)).dense()) == dense_identity(ELL, 2)


def test_kron_shapes_and_values():
    a = ScalarMatrix.from_rows(ELL, [[s(1), s(2)]])
    b = ScalarMatrix.from_rows(ELL, [[s(3)], [s(4)]])
    k = SparseMatrix.from_dense(a).kron(SparseMatrix.from_dense(b))
    assert (k.rows, k.cols) == (2, 2)
    assert k.data[0][0] == 3 and k.data[1][1] == 8


@given(m=small_matrices(3, 4))
def test_rref_idempotent_and_rank_transpose(m):
    red, pivots = rref(SparseMatrix.from_dense(m))
    again, pivots2 = rref(red)
    assert red == again and pivots == pivots2
    assert rank(SparseMatrix.from_dense(m)) == rank(SparseMatrix.from_dense(dense_transpose(m)))


@given(m=small_matrices(3, 4))
def test_kernel_vectors_annihilate(m):
    zero = CyclotomicScalar.zero(ELL)
    sparse = SparseMatrix.from_dense(m)
    for vec in kernel(sparse):
        for row in m.data:
            acc = zero
            for entry, x in zip(row, vec):
                acc = acc + entry * x
            assert acc.is_zero()
    assert rank(sparse) + len(kernel(sparse)) == m.cols


@given(m=small_matrices(3, 3), data=st.data())
def test_solve_recovers_consistent_rhs(m, data):
    entry = st.integers(min_value=-3, max_value=3).map(s)
    x = data.draw(st.lists(entry, min_size=3, max_size=3))
    rhs = []
    for row in m.data:
        acc = CyclotomicScalar.zero(ELL)
        for a, b in zip(row, x):
            acc = acc + a * b
        rhs.append(acc)
    got = solve(SparseMatrix.from_dense(m), rhs)
    check = []
    for row in m.data:
        acc = CyclotomicScalar.zero(ELL)
        for a, b in zip(row, got):
            acc = acc + a * b
        check.append(acc)
    assert check == rhs


@given(m=st.one_of(small_matrices(3, 3), small_matrices(3, 2)), data=st.data())
def test_solve_many_matches_solve_per_column(m, data):
    entry = st.integers(min_value=-3, max_value=3).map(s)
    bs = data.draw(st.lists(st.lists(entry, min_size=3, max_size=3), max_size=4))
    m = SparseMatrix.from_dense(m)
    try:
        expected = [solve(m, b) for b in bs]
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            solve_many(m, bs)
        return
    assert solve_many(m, bs) == expected


def test_solve_many_raises_on_any_inconsistent_column():
    m = SparseMatrix.from_dense(ScalarMatrix.from_rows(ELL, [[s(1), s(0)], [s(1), s(0)]]))
    consistent, inconsistent = [s(2), s(2)], [s(1), s(2)]
    assert solve_many(m, [consistent, [s(3), s(3)]]) == [[s(2), s(0)], [s(3), s(0)]]
    for bs in ([inconsistent, consistent], [consistent, inconsistent], [inconsistent]):
        with pytest.raises(NoSolutionError):
            solve_many(m, bs)


# -- differential test of the sparse rref against plain dense Gauss-Jordan ---

SHAPES = [(12, 4), (5, 5), (4, 9)]


def sparse_entries(ell):
    """About 70 % zeros; the rest have several nonzero powers of zeta over
    a small denominator, so most entries are not rational."""
    coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=ell, max_size=ell)
    nonzero = st.builds(
        lambda cs, den: CyclotomicScalar.from_coeff_list(ell, [Fraction(c, den) for c in cs]),
        coeffs, st.integers(min_value=1, max_value=3),
    )
    zero = CyclotomicScalar.zero(ell)
    return st.integers(min_value=0, max_value=9).flatmap(lambda k: st.just(zero) if k < 7 else nonzero)


@st.composite
def sparse_matrices(draw):
    ell = draw(st.sampled_from([5, 9]))
    rows, cols = draw(st.sampled_from(SHAPES))
    entry = sparse_entries(ell)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return ScalarMatrix.from_rows(ell, data)


def dense_kernel(m):
    red, pivots = dense_rref(m)
    zero, one = CyclotomicScalar.zero(m.ell), CyclotomicScalar.one(m.ell)
    basis = []
    for free in (j for j in range(m.cols) if j not in pivots):
        vec = [zero] * m.cols
        vec[free] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -red.data[prow][free]
        basis.append(vec)
    return basis


def dense_solve_many(m, columns):
    aug = ScalarMatrix(m.ell, m.rows, m.cols + len(columns),
                       [row + [b[i] for b in columns] for i, row in enumerate(m.data)])
    red, pivots = dense_rref(aug, pivot_cols=m.cols)
    if any(not x.is_zero() for row in red.data[len(pivots):] for x in row[m.cols:]):
        raise NoSolutionError("inconsistent")
    zero = CyclotomicScalar.zero(m.ell)
    solutions = [[zero] * m.cols for _ in columns]
    for prow, pcol in enumerate(pivots):
        for x, value in zip(solutions, red.data[prow][m.cols:]):
            x[pcol] = value
    return solutions


def dense_inverse(m):
    """The right block of the Gauss-Jordan reduced [M | I], pivoting in M's
    columns only; SingularMatrixError when one of them has no pivot."""
    n = m.rows
    aug = ScalarMatrix(m.ell, n, 2 * n, [row + unit for row, unit in zip(m.data, dense_identity(m.ell, n).data)])
    red, pivots = dense_rref(aug, pivot_cols=n)
    if len(pivots) < n:
        raise SingularMatrixError("singular")
    return ScalarMatrix(m.ell, n, n, [row[n:] for row in red.data])


@given(m=sparse_matrices())
def test_sparse_rref_matches_dense_reference(m):
    red, pivots = rref(SparseMatrix.from_dense(m))
    assert (red.dense(), pivots) == dense_rref(m)


@given(m=sparse_matrices(), data=st.data())
def test_sparse_kernel_and_solve_many_match_dense_reference(m, data):
    """kernel, solve_many and, on a square matrix of side 1 to 5 whose
    entries are drawn the same way, inverse: the same values as the dense
    reference, or the same error."""
    sparse = SparseMatrix.from_dense(m)
    assert kernel(sparse) == dense_kernel(m)
    entry = sparse_entries(m.ell)
    side = data.draw(st.integers(min_value=1, max_value=5))
    square = ScalarMatrix.from_rows(m.ell, data.draw(st.lists(
        st.lists(entry, min_size=side, max_size=side), min_size=side, max_size=side
    )))
    try:
        expected = dense_inverse(square)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            inverse(SparseMatrix.from_dense(square))
    else:
        assert inverse(SparseMatrix.from_dense(square)).dense() == expected
    columns = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        x = data.draw(st.lists(entry, min_size=m.cols, max_size=m.cols))
        column = dense_transpose(dense_product(m, ScalarMatrix(m.ell, m.cols, 1, [[v] for v in x]))).data[0]
        if data.draw(st.booleans()):  # perturb: usually inconsistent when tall
            column[data.draw(st.integers(min_value=0, max_value=m.rows - 1))] += 1
        columns.append(column)
    try:
        expected = dense_solve_many(m, columns)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            solve_many(sparse, columns)
        return
    assert solve_many(sparse, columns) == expected


# -- the sparse format, and row order in kernel and rank ---------------------

@given(m=sparse_matrices(), data=st.data())
def test_kernel_and_rank_ignore_format_and_row_order(m, data):
    """rref inserts rows in the given order, kernel and rank sparsest
    first; row order and repeated rows cannot change the row space, so
    every permutation and repetition of the sparse rows gives the dense
    reference's answer (a repeated row adds one zero row to the reduced
    form)."""
    order = data.draw(st.permutations(range(m.rows)))
    permuted = ScalarMatrix(m.ell, m.rows, m.cols, [m.data[i] for i in order])
    repeats = data.draw(st.lists(st.sampled_from(order), min_size=1, max_size=m.rows))
    repeated = ScalarMatrix(m.ell, m.rows + len(repeats), m.cols, permuted.data + [m.data[i] for i in repeats])
    expected_rref = dense_rref(m)
    expected_kernel = dense_kernel(m)
    for variant in (SparseMatrix.from_dense(x) for x in (m, permuted, repeated)):
        red, pivots = rref(variant)
        red = red.dense()
        zero_rows = [[CyclotomicScalar.zero(m.ell)] * m.cols] * (variant.rows - m.rows)
        assert (red.data, pivots) == (expected_rref[0].data + zero_rows, expected_rref[1])
        assert kernel(variant) == expected_kernel
        assert rank(variant) == len(expected_rref[1])


@given(m=sparse_matrices())
def test_sparse_rref_densifies_to_dense_rref(m):
    red, pivots = rref(SparseMatrix.from_dense(m))
    assert isinstance(red, SparseMatrix)
    assert all(x for row in red.data for x in row.values())
    assert (red.dense(), pivots) == dense_rref(m)


@given(m=sparse_matrices())
def test_sparse_transpose_matches_dense(m):
    sparse = SparseMatrix.from_dense(m)
    assert sparse.transpose() == SparseMatrix.from_dense(dense_transpose(m))
    assert sparse.transpose().dense() == dense_transpose(m)
    assert sparse.dense() == m
    assert (sparse.rows, sparse.cols) == (m.rows, m.cols)


def test_rref_leaves_a_sparse_input_unchanged():
    m = SparseMatrix(ELL, 2, 2, [{0: s(2), 1: s(1)}, {0: s(1)}])
    before = [dict(row) for row in m.data]
    rref(m)
    kernel(m)
    assert m.data == before


# -- rank by the leading-entry echelon, against the Gauss-Jordan pivot count ---

def rref_rank(m):
    """The pivot count of the dense Gauss-Jordan reference, which shares no
    code with the echelon that ``rank`` and ``rref`` run."""
    return len(dense_rref(m)[1])


def rank_entries(ell, dense):
    """Zero, a unit +-zeta^k, or a general scalar with several powers of
    zeta over a small denominator (a non-unit leading entry needs a real
    inverse); zero is rare in dense rows and usual in sparse ones."""
    zero = st.just(CyclotomicScalar.zero(ell))
    unit = st.builds(lambda k, sign: sign * q_power(ell, k), st.integers(0, ell - 1), st.sampled_from([1, -1]))
    general = st.builds(
        lambda cs, den: CyclotomicScalar.from_coeff_list(ell, [Fraction(c, den) for c in cs]),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=ell, max_size=ell),
        st.integers(min_value=1, max_value=3),
    )
    zeros, units = (1, 4) if dense else (7, 8)
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda k: zero if k < zeros else unit if k < units else general
    )


@st.composite
def rank_matrices(draw):
    """Random rows plus up to three rows that cancel completely against
    them (a zero row, a repeated row, a combination of two rows), inserted
    anywhere; square, tall, wide and empty shapes."""
    ell = draw(st.sampled_from([3, 5, 7, 9, 15]))
    base = draw(st.integers(min_value=0, max_value=6))
    extra = draw(st.integers(min_value=0, max_value=3))
    square = draw(st.booleans())
    cols = base + extra if square else draw(st.integers(min_value=0, max_value=7))
    entry = rank_entries(ell, draw(st.booleans()))
    nonzero = entry.filter(bool)
    data = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(base)]
    for _ in range(extra):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not data:
            row = [CyclotomicScalar.zero(ell)] * cols
        else:
            i = draw(st.integers(min_value=0, max_value=len(data) - 1))
            j = draw(st.integers(min_value=0, max_value=len(data) - 1))
            a, b = draw(nonzero), draw(nonzero)
            row = list(data[i]) if kind == "repeat" else [a * x + b * y for x, y in zip(data[i], data[j])]
        data.insert(draw(st.integers(min_value=0, max_value=len(data))), row)
    return ScalarMatrix(ell, len(data), cols, data)


@settings(max_examples=200)
@given(m=rank_matrices(), data=st.data())
def test_rank_and_is_invertible_match_rref_oracle(m, data):
    expected = rref_rank(m)
    sparse = SparseMatrix.from_dense(m)
    # the same rows with their entries stored in another column order
    reordered = SparseMatrix(
        m.ell, m.rows, m.cols, [dict(data.draw(st.permutations(list(row.items())))) for row in sparse.data]
    )
    for variant in (sparse, reordered):
        assert rank(variant) == expected
    assert is_invertible(sparse) == (m.rows == m.cols == expected)
    assert sparse == SparseMatrix.from_dense(m)  # the input rows are left as they were


def test_rank_needs_the_inverse_of_a_non_unit_leading_entry():
    # row 2 reduces by (1/2) row 1; without the inverse it keeps an entry
    assert rank(SparseMatrix.from_dense(ScalarMatrix.from_rows(ELL, [[s(2), s(4)], [s(1), s(2)]]))) == 1
    assert rank(SparseMatrix.from_dense(ScalarMatrix.from_rows(ELL, [[s(2), s(1)], [s(1), s(1)]]))) == 2
    assert rank(SparseMatrix.from_dense(ScalarMatrix(ELL, 0, 3, []))) == 0
    assert rank(SparseMatrix.from_dense(ScalarMatrix(ELL, 2, 0, [[], []]))) == 0


# -- the sparse product and Kronecker product, against the dense reference ---

@st.composite
def matrix_pairs(draw, compatible):
    """Two matrices of up to 4 x 4, with 0-row and 0-column shapes among
    them; n x k and k x m when ``compatible``, of independent shapes
    otherwise."""
    ell = draw(st.sampled_from([3, 5, 9]))
    n, k, r, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(4))
    entry = rank_entries(ell, draw(st.booleans()))

    def matrix(rows, cols):
        return ScalarMatrix(ell, rows, cols, [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)])

    return matrix(n, k), matrix(k if compatible else r, m)


@given(pair=matrix_pairs(compatible=True))
def test_sparse_product_matches_dense_reference(pair):
    a, b = pair
    sa, sb = SparseMatrix.from_dense(a), SparseMatrix.from_dense(b)
    assert sa * sb == SparseMatrix.from_dense(dense_product(a, b))  # no stored zero either
    assert SparseMatrix.identity(a.ell, a.rows) * sa == sa == sa * SparseMatrix.identity(a.ell, a.cols)
    assert SparseMatrix.identity(a.ell, a.rows).dense() == dense_identity(a.ell, a.rows)


@given(pair=matrix_pairs(compatible=False))
def test_sparse_kron_matches_dense_reference(pair):
    a, b = pair
    assert SparseMatrix.from_dense(a).kron(SparseMatrix.from_dense(b)) == SparseMatrix.from_dense(dense_kron(a, b))


@given(pair=matrix_pairs(compatible=False))
def test_sparse_product_refuses_a_shape_mismatch(pair):
    a, b = pair
    if a.cols == b.rows:
        b = ScalarMatrix(b.ell, b.rows + 1, b.cols, b.data + [[CyclotomicScalar.zero(b.ell)] * b.cols])
    with pytest.raises(ValueError, match="shape mismatch"):
        SparseMatrix.from_dense(a) * SparseMatrix.from_dense(b)
    with pytest.raises(ValueError, match="shape mismatch"):
        dense_product(a, b)


# -- one format: every entry point refuses a dense matrix -------------------

@st.composite
def dense_inputs(draw):
    """A ``ScalarMatrix`` of 1 to 3 rows and 1 to 3 columns; square when
    drawn for ``inverse``, which refuses a non-square matrix as singular
    before it reads a row."""
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=3))
    return draw(small_matrices(rows, cols)), draw(small_matrices(rows, rows))


@given(pair=dense_inputs())
def test_every_entry_point_refuses_a_dense_matrix(pair):
    m, square = pair
    rhs = [s(1)] * m.rows
    for call in (
        lambda: rref(m), lambda: rank(m), lambda: kernel(m), lambda: is_invertible(m),
        lambda: solve(m, rhs), lambda: solve_many(m, [rhs]), lambda: inverse(square),
    ):
        with pytest.raises(TypeError):
            call()
