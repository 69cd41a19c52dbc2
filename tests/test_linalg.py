import pytest
from hypothesis import given, strategies as st

from slq2.cyclo import CyclotomicScalar, q_power
from slq2.linalg import (
    NoSolutionError,
    ScalarMatrix,
    SingularMatrixError,
    inverse,
    kernel,
    rank,
    rref,
    solve,
    solve_many,
)

ELL = 3


def s(v):
    return CyclotomicScalar.from_rational(ELL, v)


def small_matrices(rows, cols):
    entry = st.integers(min_value=-3, max_value=3).map(s)
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: ScalarMatrix.from_rows(ELL, data))


def test_rank_identity():
    assert rank(ScalarMatrix.identity(ELL, 4)) == 4


def test_kernel_single_relation():
    q = q_power(ELL, 1)
    m = ScalarMatrix.from_rows(ELL, [[CyclotomicScalar.one(ELL), q]])
    basis = kernel(m)
    assert len(basis) == 1
    assert basis[0] == [-q, CyclotomicScalar.one(ELL)]


def test_solve_and_no_solution():
    m = ScalarMatrix.from_rows(ELL, [[s(1), s(0)], [s(1), s(0)]])
    x = solve(m, [s(2), s(2)])
    assert x[0] == 2
    with pytest.raises(NoSolutionError):
        solve(m, [s(1), s(2)])


def test_inverse_errors():
    singular = ScalarMatrix.from_rows(ELL, [[s(1), s(1)], [s(1), s(1)]])
    with pytest.raises(SingularMatrixError):
        inverse(singular)


def test_inverse_exact():
    q = q_power(ELL, 1)
    m = ScalarMatrix.from_rows(ELL, [[q, s(1)], [s(0), q**2]])
    assert m * inverse(m) == ScalarMatrix.identity(ELL, 2)


def test_kron_shapes_and_values():
    a = ScalarMatrix.from_rows(ELL, [[s(1), s(2)]])
    b = ScalarMatrix.from_rows(ELL, [[s(3)], [s(4)]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.data[0][0] == 3 and k.data[1][1] == 8


@given(m=small_matrices(3, 4))
def test_rref_idempotent_and_rank_transpose(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert red == again and pivots == pivots2
    assert rank(m) == rank(m.transpose())


@given(m=small_matrices(3, 4))
def test_kernel_vectors_annihilate(m):
    zero = CyclotomicScalar.zero(ELL)
    for vec in kernel(m):
        for row in m.data:
            acc = zero
            for entry, x in zip(row, vec):
                acc = acc + entry * x
            assert acc.is_zero()
    assert rank(m) + len(kernel(m)) == m.cols


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
    got = solve(m, rhs)
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
    try:
        expected = [solve(m, b) for b in bs]
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            solve_many(m, bs)
        return
    assert solve_many(m, bs) == expected


def test_solve_many_raises_on_any_inconsistent_column():
    m = ScalarMatrix.from_rows(ELL, [[s(1), s(0)], [s(1), s(0)]])
    consistent, inconsistent = [s(2), s(2)], [s(1), s(2)]
    assert solve_many(m, [consistent, [s(3), s(3)]]) == [[s(2), s(0)], [s(3), s(0)]]
    for bs in ([inconsistent, consistent], [consistent, inconsistent], [inconsistent]):
        with pytest.raises(NoSolutionError):
            solve_many(m, bs)
