import dataclasses

import pytest
from hypothesis import given, strategies as st

from slq2 import corep
from slq2.algebra import AlgebraMode, from_word, generators, is_central, multiply, pbw_coordinates, project, unit, zero
from slq2.corep import (
    Corep,
    DirectSum,
    Extension,
    Irr,
    Leaf,
    _irr_corep,
    build_v,
    build_w,
    build_y,
    decompose,
    hom_space,
    irreducibility_certificate,
    quotient_corep,
    restrict_corep,
    span_of_basis_indices,
    standard_y_subspace_indices,
    subcomodule_check,
    tensor,
    tree_flag,
    tree_layers,
    verify_corep,
)
from slq2.cyclo import CyclotomicScalar, q_power
from slq2.hopf import character, counit, evaluate_character
from slq2.linalg import ScalarMatrix, SparseMatrix, is_invertible, kernel

from dense_reference import dense_rref

GEN3 = AlgebraMode.generic(3)


def el(*word):
    return from_word(GEN3, [(g, 1) for g in word])


# -- builders ----------------------------------------------------------------

def test_v1_matrix_is_the_generator_matrix():
    v1 = build_v(1, 3)
    a, b, c, d = generators(GEN3)
    assert v1.rho == ((a, b), (c, d))
    assert v1.basis_labels == ("a", "c")


def test_y0_is_trivial():
    y0 = build_y(0, 3)
    assert y0.dim == 1 and y0.rho == ((unit(GEN3),),)


def test_v2_matrix_matches_reference():
    v2 = build_v(2, 3)
    q = q_power(3, 1)
    a, b, c, d = generators(GEN3)
    # reference layout: [[a^2, -q^2 ab, b^2], [ac, ad + q^-1 bc, bd], [c^2, -q^2 cd, d^2]]
    assert v2.rho[0][0] == multiply(a, a)
    assert v2.rho[0][1] == multiply(a, b).scale(-(q**2))
    assert v2.rho[0][2] == multiply(b, b)
    assert v2.rho[1][0] == multiply(a, c)
    assert v2.rho[1][1] == multiply(a, d) + multiply(b, c).scale(q.inverse())
    assert v2.rho[1][2] == multiply(b, d)
    assert v2.rho[2][0] == multiply(c, c)
    assert v2.rho[2][1] == multiply(c, d).scale(-(q**2))
    assert v2.rho[2][2] == multiply(d, d)


def test_w1_matrix_is_the_cube_matrix():
    w1 = build_w(1, 3)
    assert w1.rho[0][0] == from_word(GEN3, [("a", 3)])
    assert w1.rho[0][1] == from_word(GEN3, [("b", 3)])
    assert w1.rho[1][0] == from_word(GEN3, [("c", 3)])
    assert w1.rho[1][1] == from_word(GEN3, [("d", 3)])


def test_w_entries_are_central_with_counit_pattern():
    w2 = build_w(2, 3)
    one = CyclotomicScalar.one(3)
    for i in range(w2.dim):
        for j in range(w2.dim):
            assert is_central(w2.rho[i][j])
            assert counit(w2.rho[i][j]) == (one if i == j else CyclotomicScalar.zero(3))


def test_build_v_range_checked():
    with pytest.raises(ValueError):
        build_v(3, 3)


# -- verification ---------------------------------------------------------------

@pytest.mark.parametrize("factory", [lambda: build_y(4, 3), lambda: build_w(3, 5), lambda: build_v(3, 5)])
def test_verify_corep_passes(factory):
    assert verify_corep(factory()).ok


def test_verify_corep_detects_corruption():
    y = build_y(2, 3)
    rows = [list(row) for row in y.rho]
    rows[0][1], rows[1][0] = rows[1][0], rows[0][1]
    assert not verify_corep(dataclasses.replace(y, rho=rows)).ok


def test_verify_corep_reports_counit_failures():
    """Doubling rho[0][0] of V1 = ((a, b), (c, d)) makes eps(rho[0][0]) = 2:
    the counit fails at (0, 0) alone, and the coproduct fails too."""
    v1 = build_v(1, 3)
    rows = [list(row) for row in v1.rho]
    rows[0][0] = 2 * rows[0][0]
    report = verify_corep(dataclasses.replace(v1, rho=rows))
    assert not report.counital and not report.comultiplicative and not report.ok
    assert [f for f in report.failures if f[2] == "counit"] == [(0, 0, "counit")]


def test_corep_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        build_v(1, 3).family = "X"


def test_weight_values_computed_once():
    c = tensor(build_v(1, 3), build_v(2, 3))
    first = c.weight_values()
    assert first is not None and len(first) == c.dim
    assert c.weight_values() is first
    assert tensor(build_v(1, 3), build_v(2, 3)).weight_values() == first


def _weights_by_projection(c):
    """The weights by their definition: project every entry onto F and
    evaluate the order-one character there; None when off-diagonal."""
    fmode = AlgebraMode.quotient_f(c.ell)
    chi = character(fmode, 1)
    values = []
    for i, row in enumerate(c.rho):
        for j, entry in enumerate(row):
            val = evaluate_character(chi, project(fmode, entry))
            if i == j:
                values.append(val)
            elif not val.is_zero():
                return None
    return tuple(values)


def _weight_oracle_cases(ell):
    y = build_y(ell + 1, ell)
    sub = span_of_basis_indices(y, standard_y_subspace_indices(ell + 1, ell))
    v1v1 = tensor(build_v(1, ell), build_v(1, ell))
    zero_s, one = CyclotomicScalar.zero(ell), CyclotomicScalar.one(ell)
    # the whole space on a basis that mixes two weight vectors
    mixed = [[one if j in (i, i + 1) else zero_s for j in range(4)] for i in range(3)] + [
        [one if j == 3 else zero_s for j in range(4)]
    ]
    return {
        "V": build_v(ell - 1, ell),
        "W": build_w(2, ell),
        "Y": y,
        "Y_sub": restrict_corep(y, sub),
        "Y_quot": quotient_corep(y, sub),
        "V(x)W": tensor(build_v(1, ell), build_w(1, ell)),
        "V(x)V(x)V": tensor(v1v1, build_v(2, ell)),
        "mixed_basis": restrict_corep(v1v1, mixed),
    }


@pytest.mark.parametrize("ell", [3, 5])
def test_weight_values_match_character_of_projection(ell):
    cases = _weight_oracle_cases(ell)
    for name, c in cases.items():
        assert c.weight_values() == _weights_by_projection(c), name
    assert cases["mixed_basis"].weight_values() is None
    assert cases["Y"].weight_values() is not None


@pytest.mark.parametrize("irr", [Irr(0, 0), Irr(0, 2), Irr(2, 0), Irr(1, 1)])
def test_irr_corep_family_is_irr_name(irr):
    assert _irr_corep(irr, 3).family == irr.name


factors = st.one_of(
    st.tuples(st.just(build_v), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just(build_w), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just(build_y), st.integers(min_value=0, max_value=4)),
)


@given(ell=st.sampled_from([3, 5, 7]), left=factors, right=factors)
def test_tensor_cells_are_products_of_entries(ell, left, right):
    a, b = (build(index, ell) for build, index in (left, right))
    t = tensor(a, b)
    for i in range(a.dim):
        for j in range(a.dim):
            for r in range(b.dim):
                for s in range(b.dim):
                    cell = t.rho[i * b.dim + r][j * b.dim + s]
                    # values and key order are those of multiply
                    assert list(cell.terms.items()) == list(multiply(a.rho[i][j], b.rho[r][s]).terms.items())


def test_tensor_corep_satisfies_axioms():
    t = tensor(build_v(1, 3), build_w(1, 3))
    assert verify_corep(t).ok
    assert t.dim == 4


# -- certificates ------------------------------------------------------------------

def test_certificates():
    assert irreducibility_certificate(build_v(1, 3)).rank == 4
    y3 = build_y(3, 3)
    cert = irreducibility_certificate(y3)
    assert not cert.independent and cert.witness is not None
    assert irreducibility_certificate(build_y(5, 3)).independent
    assert irreducibility_certificate(build_y(8, 3)).independent  # Y_{l-1+l m1} for m1 = 2


WITNESS_CASES = [("Y3", 3)] + [
    (f"V{m}*V{m2}", ell) for ell in (3, 5, 7) for m, m2 in ((1, 1), (1, 2), (2, 1), (2, 2))
] + [("V1*V3", ell) for ell in (5, 7, 9, 15)]


def _witness_corep(name, ell):
    if name[0] == "Y":
        return build_y(int(name[1:]), ell)
    left, right = name.split("*")
    return tensor(build_v(int(left[1:]), ell), build_v(int(right[1:]), ell))


def _first_dependent(matrix):
    """The smallest f with rho_f in the span of rho_0, ..., rho_(f-1): the
    first prefix of rows whose rank under the dense Gauss-Jordan reference
    falls short of its length (binary search; the shortfall persists in
    every longer prefix)."""
    dense = matrix.dense()

    def short(n):
        return len(dense_rref(ScalarMatrix(dense.ell, n, dense.cols, dense.data[:n]))[1]) < n

    lo, hi = 1, matrix.rows
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if short(mid) else (mid + 1, hi)
    return lo - 1


def _check_first_relation(c):
    cert = irreducibility_certificate(c)
    assert not cert.independent
    matrix, _ = pbw_coordinates(c.entries_flat())
    x = cert.witness
    # bit for bit the first kernel vector of the transpose
    expected = kernel(matrix.transpose())[0]
    assert [(v.num, v.den) for v in x] == [(v.num, v.den) for v in expected]
    # an exact relation among the matrix elements
    total = zero(c.mode)
    for xi, rho_i in zip(x, c.entries_flat()):
        total = total + rho_i.scale(xi)
    assert total.is_zero()
    # normalised at the first dependent element, zero after it
    f = _first_dependent(matrix)
    assert x[f].is_one()
    assert all(v.is_zero() for v in x[f + 1:])


@pytest.mark.parametrize("name,ell", WITNESS_CASES)
def test_certificate_witness_is_the_first_relation(name, ell):
    _check_first_relation(_witness_corep(name, ell))


def test_certificate_witness_follows_the_order_of_the_elements():
    # rho_2 = b = rho_0 - rho_1 comes first in the given order; taken
    # sparsest first, a + b would be the first dependent element instead
    rows = [[el("a") + el("b"), el("a")], [el("b"), el("d")]]
    _check_first_relation(Corep(GEN3, 2, ["u", "v"], rows))


def test_schur_property():
    for c in (build_v(1, 3), build_v(2, 3), build_w(1, 3), build_w(2, 3)):
        assert len(hom_space(c, c)) == 1


# -- hom spaces ---------------------------------------------------------------------

def test_hom_space_examples():
    v0, v1 = build_v(0, 3), build_v(1, 3)
    w1 = build_w(1, 3)
    assert len(hom_space(v0, tensor(v1, v1))) == 1
    assert hom_space(v1, w1) == []
    homs = hom_space(build_y(5, 3), tensor(w1, build_v(2, 3)))
    assert len(homs) == 1 and is_invertible(SparseMatrix.from_dense(homs[0]))


def test_hom_space_with_no_equation_left_is_the_unit_basis():
    """Every unknown kept and no equation written: ``kernel`` of the empty
    system gives the unit basis, in unknown order.  On one-dimensional
    coreps of weight 0 that is [[1]]; on the trivial corep of dimension 2
    (every entry of grade (0, 0), skipped on weight blocks) it is the four
    unit matrices, row-major."""
    for a, b in ((build_v(0, 3), build_v(0, 3)), (build_w(0, 5), build_v(0, 5))):
        one = CyclotomicScalar.one(a.ell)
        assert hom_space(a, b) == [ScalarMatrix.from_rows(a.ell, [[one]])]
    one, nil = unit(GEN3), zero(GEN3)
    trivial = Corep(GEN3, 2, ["u", "v"], [[one, nil], [nil, one]])
    assert trivial.torus_weights() == (0, 0)
    zero_s, one_s = CyclotomicScalar.zero(3), CyclotomicScalar.one(3)
    assert hom_space(trivial, trivial) == [
        ScalarMatrix.from_rows(3, [[one_s if (i, k) == cell else zero_s for k in range(2)] for i in range(2)])
        for cell in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


def test_invariant_vector_of_v1_v1():
    v0 = build_v(0, 3)
    t = hom_space(v0, tensor(build_v(1, 3), build_v(1, 3)))[0]
    q = q_power(3, 1)
    row = t.data[0]
    # the quantum determinant direction a(x)c - q c(x)a, up to scale
    assert row[0].is_zero() and row[3].is_zero()
    assert row[2] == -(q * row[1])


# -- subcomodules and quotients -------------------------------------------------------

def test_y3_filtration():
    y3 = build_y(3, 3)
    assert standard_y_subspace_indices(3, 3) == [0, 3]
    sub = span_of_basis_indices(y3, [0, 3])
    assert subcomodule_check(y3, sub)
    restricted = restrict_corep(y3, sub)
    assert restricted.rho == build_w(1, 3).rho
    quotient = quotient_corep(y3, sub)
    homs = hom_space(quotient, build_v(1, 3))
    assert any(is_invertible(SparseMatrix.from_dense(t)) for t in homs)


def test_bad_subspace_rejected():
    y3 = build_y(3, 3)
    bad = span_of_basis_indices(y3, [0])
    assert not subcomodule_check(y3, bad)
    with pytest.raises(ValueError):
        quotient_corep(y3, bad)


def test_y4_filtration():
    y4 = build_y(4, 3)
    assert standard_y_subspace_indices(4, 3) == [0, 1, 3, 4]
    sub = span_of_basis_indices(y4, [0, 1, 3, 4])
    assert subcomodule_check(y4, sub)
    restricted = restrict_corep(y4, sub)
    model = tensor(build_w(1, 3), build_v(1, 3))
    assert restricted.rho == model.rho
    quotient = quotient_corep(y4, sub)
    assert quotient.dim == 1
    assert quotient.rho == ((unit(GEN3),),)


# -- decomposition ----------------------------------------------------------------------

def test_decompose_v1_v1():
    tree = decompose(tensor(build_v(1, 3), build_v(1, 3)))
    assert tree == DirectSum((Leaf(Irr(0, 0)), Leaf(Irr(0, 2))))


def test_decompose_v1_v2():
    tree = decompose(tensor(build_v(1, 3), build_v(2, 3)))
    assert tree == Extension(Leaf(Irr(0, 1)), Extension(Leaf(Irr(1, 0)), Leaf(Irr(0, 1))))
    assert tree_flag(tree) == ["V1", "W1", "V1"]


def test_decompose_w_ladder():
    tree = decompose(tensor(build_w(1, 3), build_w(1, 3)))
    assert tree_layers(tree) == [["V0", "W2"]]


def test_decompose_l3_is_the_driver():
    # the benchmark workloads call the driver by its former name
    assert corep.decompose_l3 is decompose


def test_opposite_orders_equivalent():
    for m, mp in [(1, 2), (2, 1), (2, 2)]:
        one = tree_layers(decompose(tensor(build_v(m, 3), build_v(mp, 3))))
        two = tree_layers(decompose(tensor(build_v(mp, 3), build_v(m, 3))))
        assert one == two


# -- ell = 5 spot checks -------------------------------------------------------------

def test_y7_filtration_ell5():
    ell = 5
    y7 = build_y(7, ell)  # m0 = 2, m1 = 1
    indices = standard_y_subspace_indices(7, ell)
    sub = span_of_basis_indices(y7, indices)
    assert subcomodule_check(y7, sub)
    restricted = restrict_corep(y7, sub)
    model = tensor(build_w(1, ell), build_v(2, ell))
    assert restricted.rho == model.rho
    quotient = quotient_corep(y7, sub)
    homs = hom_space(quotient, build_v(1, ell))
    assert any(is_invertible(SparseMatrix.from_dense(t)) for t in homs)
