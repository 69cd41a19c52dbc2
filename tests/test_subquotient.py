"""Oracle tests for the subcomodule test, the restriction and the quotient.

All three read one change of basis P = [B; E] (``corep._subquotient``);
the decomposition driver's quotient of a node by an image, which skips the
test (``corep._quotient_by_image``), is checked against the node of
``quotient_corep``'s quotient.
The three are checked entry for entry against the solvers they replaced,
copied below as a reference: the restriction solved B^T x = (coaction
rows, one right-hand side per basis row and monomial) and the quotient
reduced the ambient basis modulo a separate echelon form of B.  Every
output is also checked against the defining identities B rho = tau B and
rho R = R rho_quotient (R the reduction onto the quotient), and against
the comodule axioms.
"""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from slq2 import corep
from slq2.algebra import monomial_element, zero
from slq2.corep import (
    _irr_corep,
    _quotient_by_image,
    build_v,
    build_w,
    build_y,
    character_peel,
    decompose,
    hom_space,
    quotient_corep,
    restrict_corep,
    span_of_basis_indices,
    standard_y_subspace_indices,
    subcomodule_check,
    tensor,
    verify_corep,
)
from slq2.cyclo import CyclotomicScalar
from driver_replay import node_of
from dense_reference import dense_product
from slq2.linalg import (
    NoSolutionError,
    ScalarMatrix,
    SingularMatrixError,
    SparseMatrix,
    inverse,
    kernel,
    rref,
    solve_many,
)


# -- the solvers as they were before the change of basis --------------------------

def _reference_coaction_rows(c, vec):
    """For v = sum v_i e_i return w_j = sum_i v_i rho[i][j]."""
    out = [zero(c.mode) for _ in range(c.dim)]
    for i, vi in enumerate(vec):
        if vi.is_zero():
            continue
        for j in range(c.dim):
            entry = c.rho[i][j]
            if not entry.is_zero():
                out[j] = out[j] + entry.scale(vi)
    return out


def _reference_restriction(c, basis):
    """The coaction matrix on span(basis); None if it is not a subcomodule."""
    k = len(basis)
    targets = []
    columns = []
    for r in range(k):
        per_mono = {}
        for j, el in enumerate(_reference_coaction_rows(c, basis[r])):
            for mono, coeff in el.terms.items():
                per_mono.setdefault(mono, [CyclotomicScalar.zero(c.ell)] * c.dim)[j] = coeff
        targets.extend((r, mono) for mono in per_mono)
        columns.extend(per_mono.values())
    try:
        solutions = solve_many(SparseMatrix.from_dense(ScalarMatrix.from_rows(c.ell, basis)).transpose(), columns)
    except NoSolutionError:
        return None
    tau = [[zero(c.mode) for _ in range(k)] for _ in range(k)]
    for (r, mono), x in zip(targets, solutions):
        for rp in range(k):
            if not x[rp].is_zero():
                tau[r][rp] = tau[r][rp] + monomial_element(c.mode, mono, x[rp])
    return tau


def _reference_quotient(c, basis):
    """The quotient coaction, its labels and the reduction table R (row j:
    the class of basis vector j in quotient coordinates), for a subcomodule."""
    red, pivots = rref(SparseMatrix.from_dense(ScalarMatrix.from_rows(c.ell, basis)))
    red = red.dense()
    pivot_set = set(pivots)
    free = [j for j in range(c.dim) if j not in pivot_set]
    zero_s = CyclotomicScalar.zero(c.ell)
    reduction = [[zero_s] * len(free) for _ in range(c.dim)]
    free_index = {j: n for n, j in enumerate(free)}
    for j in free:
        reduction[j][free_index[j]] = CyclotomicScalar.one(c.ell)
    for prow, pcol in enumerate(pivots):
        for n, j in enumerate(free):
            reduction[pcol][n] = -red.data[prow][j]
    rho = [[zero(c.mode) for _ in range(len(free))] for _ in range(len(free))]
    for new_i, i in enumerate(free):
        for j in range(c.dim):
            entry = c.rho[i][j]
            if entry.is_zero():
                continue
            for n in range(len(free)):
                coef = reduction[j][n]
                if not coef.is_zero():
                    rho[new_i][n] = rho[new_i][n] + entry.scale(coef)
    return rho, [c.basis_labels[j] for j in free], reduction


# -- products for the defining identities -------------------------------------------

def _scalars_times(mode, scalars, algebra):
    """out[r][j] = sum_i scalars[r][i] algebra[i][j]."""
    width = len(algebra[0]) if algebra else 0
    out = [[zero(mode) for _ in range(width)] for _ in scalars]
    for r, row in enumerate(scalars):
        for i, s in enumerate(row):
            for j in range(width):
                out[r][j] = out[r][j] + algebra[i][j].scale(s)
    return out


def _times_scalars(mode, algebra, scalars):
    """out[i][n] = sum_j algebra[i][j] scalars[j][n]."""
    width = len(scalars[0]) if scalars else 0
    out = [[zero(mode) for _ in range(width)] for _ in algebra]
    for i, row in enumerate(algebra):
        for j, entry in enumerate(row):
            for n in range(width):
                out[i][n] = out[i][n] + entry.scale(scalars[j][n])
    return out


def _check_against_reference(c, basis) -> bool:
    """Compare the three public readers with the reference on span(basis);
    True when it is a subcomodule."""
    tau = _reference_restriction(c, basis)
    assert subcomodule_check(c, basis) == (tau is not None)
    if tau is None:
        with pytest.raises(ValueError, match="not a subcomodule"):
            restrict_corep(c, basis)
        with pytest.raises(ValueError, match="non-subcomodule"):
            quotient_corep(c, basis)
        return False
    sub = restrict_corep(c, basis)
    assert sub.dim == len(basis)
    assert sub.rho == tuple(map(tuple, tau))
    assert _scalars_times(c.mode, basis, c.rho) == _times_scalars(c.mode, sub.rho, basis)
    assert verify_corep(sub).ok
    if len(basis) == c.dim:
        with pytest.raises(ValueError, match="whole space"):
            quotient_corep(c, basis)
        return True
    rho, labels, reduction = _reference_quotient(c, basis)
    quot = quotient_corep(c, basis)
    assert quot.rho == tuple(map(tuple, rho))
    assert quot.basis_labels == tuple(labels)
    assert _times_scalars(c.mode, c.rho, reduction) == _scalars_times(c.mode, reduction, quot.rho)
    assert verify_corep(quot).ok
    return True


# -- inputs ---------------------------------------------------------------------------

def _named(ell, names):
    builders = {"V": build_v, "W": build_w}
    return reduce(tensor, [builders[name[0]](int(name[1:]), ell) for name in names])


def _embeddings_and_complements(c):
    """Images of every intertwiner X -> C from a composition factor X, and the
    complements ker(e^T) of every split idempotent e = P (T P)^-1 T."""
    images, complements = [], []
    for irr in sorted(set(character_peel(c)), key=lambda irr: (irr.n, irr.m)):
        x = _irr_corep(irr, c.ell)
        into = hom_space(x, c)
        images.extend([list(row) for row in t.data] for t in into)
        for t in into:
            for p in hom_space(c, x):
                try:
                    inverse_composite = inverse(SparseMatrix.from_dense(dense_product(t, p))).dense()
                except SingularMatrixError:
                    continue
                e = dense_product(dense_product(p, inverse_composite), t)
                complements.append(kernel(SparseMatrix.from_dense(e).transpose()))
    return images, complements


@pytest.mark.parametrize("ell,ms", [(3, range(3, 9)), (5, range(5, 12))])
def test_y_filtrations_match_the_reference(ell, ms):
    for m in ms:
        y = build_y(m, ell)
        assert _check_against_reference(y, span_of_basis_indices(y, standard_y_subspace_indices(m, ell)))
        for indices in ([0], [0, m], range(m // 2 + 1), range(m // 2, m + 1), range(m + 1)):
            _check_against_reference(y, span_of_basis_indices(y, indices))


@pytest.mark.parametrize(
    "ell,names",
    [
        (3, ["V1", "V1"]),
        (3, ["V1", "V2"]),
        (3, ["V2", "V2"]),
        (3, ["V1", "V1", "V1"]),
        (3, ["W1", "V1"]),
        (3, ["V2", "W1"]),
        (5, ["V1", "V3"]),
        (5, ["V2", "V3"]),
        (5, ["V4", "V1"]),
    ],
)
def test_images_and_complements_match_the_reference(ell, names):
    c = _named(ell, names)
    images, complements = _embeddings_and_complements(c)
    assert images
    for basis in images + complements:
        assert _check_against_reference(c, basis)


def test_one_elimination_per_call(monkeypatch):
    calls = []

    def counting_rref(matrix):
        calls.append(matrix.rows)
        return rref(matrix)

    monkeypatch.setattr(corep, "rref", counting_rref)
    y = build_y(4, 3)
    sub = span_of_basis_indices(y, standard_y_subspace_indices(4, 3))
    for fn in (subcomodule_check, restrict_corep, quotient_corep):
        calls.clear()
        fn(y, sub)
        assert calls == [4]


# -- dependent and empty bases ----------------------------------------------------------

@pytest.mark.parametrize("fn", [subcomodule_check, restrict_corep, quotient_corep])
def test_dependent_basis_is_rejected(fn):
    y3 = build_y(3, 3)
    basis = span_of_basis_indices(y3, [0, 3])
    with pytest.raises(ValueError, match=r"dependent \(rank 2\)"):
        fn(y3, basis * 2)


def test_empty_basis():
    y3 = build_y(3, 3)
    empty = []
    assert subcomodule_check(y3, empty)
    assert restrict_corep(y3, empty).dim == 0
    quot = quotient_corep(y3, empty)
    assert quot.rho == y3.rho
    assert quot.basis_labels == y3.basis_labels


# -- decomposition trees through the extension branch, recorded before the change ------

@pytest.mark.parametrize(
    "ell,names,notation",
    [
        (3, ["V1", "V1", "V1", "V1"], "V0 (+) [V0 (/) [V2 (+) V2 (+) V2 (+) [W1*V1 (/) V0]]]"),
        (3, ["V1", "V2", "V2"], "V1 (/) W1 (/) [V1 (+) [V1 (/) W1 (/) (V1 (+) W1*V2)]]"),
        (5, ["V3", "V4"], "V1 (/) V3 (/) W1 (/) [V3 (+) [W1*V2 (/) V1]]"),
    ],
)
def test_recorded_decompositions(ell, names, notation):
    assert decompose(_named(ell, names)).notation() == notation


# -- the driver's quotient by an image, without the subcomodule test --------------------

@given(names=st.lists(st.sampled_from(["V1", "V2", "W1"]), min_size=2, max_size=3))
def test_quotient_by_image_matches_the_checked_quotient(names):
    """The quotient of a corep's node by the image of every embedding of
    every composition factor is the node of ``quotient_corep``'s quotient
    (its weights and its generator actions, term for term and in order);
    the next corep is the quotient by the first embedding, down to a
    simple."""
    c = _named(3, names)
    while True:
        first = None
        for irr in sorted(set(character_peel(c)), key=lambda irr: (irr.dim, irr.m, irr.n)):
            for t in hom_space(_irr_corep(irr, 3), c):
                image = [list(row) for row in t.data]
                if irr.dim == c.dim:
                    with pytest.raises(ValueError, match="whole space"):
                        quotient_corep(c, image)
                    continue
                checked = quotient_corep(c, image)
                assert _quotient_by_image(node_of(c), SparseMatrix.from_dense(t).data) == node_of(checked)
                first = first or checked
        if first is None:
            return
        c = first


def test_quotient_by_image_rejects_dependent_rows():
    v1 = build_v(1, 3)
    c = tensor(v1, v1)
    rows = SparseMatrix.from_dense(hom_space(build_v(2, 3), c)[0]).data
    with pytest.raises(ValueError, match=r"the 6 basis vectors are dependent \(rank 3\)"):
        _quotient_by_image(node_of(c), rows + rows)


@pytest.mark.parametrize(
    "names,notation",
    [
        (["V1", "V1", "V1", "V1"], "V0 (+) [V0 (/) [V2 (+) V2 (+) V2 (+) [W1*V1 (/) V0]]]"),
        (["V1", "V2", "V2"], "V1 (/) W1 (/) [V1 (+) [V1 (/) W1 (/) (V1 (+) W1*V2)]]"),
    ],
)
def test_the_driver_never_runs_the_subcomodule_test(monkeypatch, names, notation):
    def refuse(*args):
        raise AssertionError("the driver ran the subcomodule test")

    monkeypatch.setattr(corep, "_subquotient", refuse)
    assert decompose(_named(3, names)).notation() == notation
