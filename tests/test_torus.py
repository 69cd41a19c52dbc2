"""Integer torus weights: hom spaces against the all-monomial unblocked solve,
the character peel against the decompositions, pinned trees, and the
driver's split test against the idempotent it replaced."""

import pytest
from hypothesis import given, strategies as st

from slq2 import corep, verify
from slq2.algebra import AlgebraMode, NormalMonomial, monomial_element, project, unit, zero
from slq2.corep import Corep, Irr, _irr_corep, build_v, build_w, decompose, hom_space, tensor, tree_flag
from slq2.cyclo import CyclotomicScalar, q_power
from slq2.linalg import ScalarMatrix, SingularMatrixError, SparseMatrix, inverse, is_invertible, kernel
from driver_replay import replayed_nodes
from dense_reference import dense_product, is_zero_matrix
from test_corep import _weights_by_projection


def _word(ell, factors):
    """Tensor product of named factors such as ("V", 2) or ("W", 1)."""
    build = {"V": build_v, "W": build_w}
    out = None
    for family, index in factors:
        c = build[family](index, ell)
        out = c if out is None else tensor(out, c)
    return out


def _candidates(ell, max_dim):
    """Every irreducible W_n (x) V_m of dimension at most max_dim, by
    ascending dimension, W grade before V grade: the reference enumeration
    the character peel is checked against."""
    out = []
    for m in range(ell):
        n = 0
        while (n + 1) * (m + 1) <= max_dim:
            out.append(Irr(n, m))
            n += 1
    out.sort(key=lambda irr: (irr.dim, irr.m, irr.n))
    return out


# -- pinned decompositions (recorded before torus blocking and pruning) --------

PINNED = [
    (5, [("V", 3), ("V", 3)], "V0 (+) [V2 (/) W1*V1 (/) (V2 (+) V4)]"),
    (5, [("V", 4), ("V", 4)], "V0 (/) V2 (/) W1*V1 (/) [V2 (+) V4 (+) [W1*V3 (/) V0]]"),
    (7, [("V", 2), ("V", 3)], "V1 (+) V3 (+) V5"),
    (3, [("W", 4), ("W", 3)], "W1 (+) W3 (+) W5 (+) W7"),
    (3, [("W", 10)], "W10"),
]


@pytest.mark.parametrize("ell,factors,notation", PINNED)
def test_pinned_decompositions(ell, factors, notation):
    assert decompose(_word(ell, factors)).notation() == notation


# -- hom spaces against the all-monomial, unblocked reference ------------------------

def _hom_reference(a: Corep, b: Corep) -> list:
    """Kernel of the full system rho^A Z = Z rho^B: every Z[i][k] is an
    unknown (index i * b.dim + k), one equation per monomial of each entry,
    whatever its b/c grade."""
    zero_s = CyclotomicScalar.zero(a.ell)
    nunk = a.dim * b.dim
    rows = []
    for i in range(a.dim):
        for k in range(b.dim):
            per_mono: dict = {}
            for j in range(a.dim):
                for mono, coeff in a.rho[i][j].terms.items():
                    row = per_mono.setdefault(mono, [zero_s] * nunk)
                    row[j * b.dim + k] = row[j * b.dim + k] + coeff
            for j in range(b.dim):
                for mono, coeff in b.rho[j][k].terms.items():
                    row = per_mono.setdefault(mono, [zero_s] * nunk)
                    row[i * b.dim + j] = row[i * b.dim + j] - coeff
            rows.extend(per_mono.values())
    return kernel(SparseMatrix.from_dense(ScalarMatrix.from_rows(a.ell, rows)))


def _project_corep(c: Corep, mode: AlgebraMode) -> Corep:
    rho = [[project(mode, e) for e in row] for row in c.rho]
    return Corep(mode, c.dim, c.basis_labels, rho, f"{c.family}|{mode.kind}")


def _without_weight_basis() -> Corep:
    """V1 (x) V1 at ell = 3 restricted to a unitriangular, non-weight basis."""
    v1v1 = tensor(build_v(1, 3), build_v(1, 3))
    one, zero_s = CyclotomicScalar.one(3), CyclotomicScalar.zero(3)
    mixed = [[one if j in (i, i + 1) else zero_s for j in range(4)] for i in range(3)]
    mixed.append([zero_s, zero_s, zero_s, one])
    return corep.restrict_corep(v1v1, mixed)


def _hom_cases():
    cases = []
    for ell in (3, 5):
        v1, v2, w1 = build_v(1, ell), build_v(2, ell), build_w(1, ell)
        cases += [
            (f"V1->V1V1@{ell}", v1, tensor(v1, v1)),
            (f"V1V1->V1V1@{ell}", tensor(v1, v1), tensor(v1, v1)),
            (f"W1->V1V2@{ell}", w1, tensor(v1, v2)),
            (f"V1V2->V2V1@{ell}", tensor(v1, v2), tensor(v2, v1)),
            (f"W1V1->W1V1@{ell}", tensor(w1, v1), tensor(v1, w1)),
        ]
    # W and mixed products, where E and F alone leave the kernel too large
    for ell in (3, 5, 7):
        v0, w2 = build_v(0, ell), build_w(2, ell)
        w1w1 = _word(ell, [("W", 1), ("W", 1)])
        w1v1w2 = _word(ell, [("W", 1), ("V", 1), ("W", 2)])
        w3v1 = _word(ell, [("W", 3), ("V", 1)])
        cases += [
            (f"V0->W1W1@{ell}", v0, w1w1),
            (f"W1W1->V0@{ell}", w1w1, v0),
            (f"W2->W1W1@{ell}", w2, w1w1),
            (f"W1W1->W2@{ell}", w1w1, w2),
            (f"W3V1->W1V1W2@{ell}", w3v1, w1v1w2),
            (f"W1V1W2->W3V1@{ell}", w1v1w2, w3v1),
        ]
    v1v3 = _word(7, [("V", 1), ("V", 3)])
    cases += [
        ("V2->V1V3@7", build_v(2, 7), v1v3),
        ("V1V3->V4@7", v1v3, build_v(4, 7)),
        ("V1V3->V1V3@7", v1v3, v1v3),
    ]
    # the quotients F and Fhat, where b^ell = c^ell = 0 empties the ell grades
    for ell in (3, 5):
        for mode in (AlgebraMode.quotient_f(ell), AlgebraMode.quotient_fhat(ell)):
            v1v2 = _project_corep(tensor(build_v(1, ell), build_v(2, ell)), mode)
            cases.append((f"V1V2->V1V2@{mode.kind}{ell}", v1v2, v1v2))
            cases.append((f"V1->V1V2@{mode.kind}{ell}", _project_corep(build_v(1, ell), mode), v1v2))
    # no weight basis: every Z[i][k] is an unknown
    mixed = _without_weight_basis()
    cases.append(("mixed->V1V1@3", mixed, tensor(build_v(1, 3), build_v(1, 3))))
    cases.append(("V2->mixed@3", build_v(2, 3), mixed))
    # two terms of one equation add into one coefficient, and the sum is nonzero
    v1v1 = tensor(build_v(1, 3), build_v(1, 3))
    rows = [(1, 0, 0, 2), (0, 1, 1, 0), (0, 0, 1, 0), (1, 0, 0, 1)]
    sheared = corep.restrict_corep(v1v1, [[CyclotomicScalar.from_rational(3, x) for x in row] for row in rows])
    cases.append(("sheared->sheared@3", sheared, sheared))
    # and only the torus grade (0, 0) tells 1 from the grouplike a^3 of Fhat
    fhat = AlgebraMode.quotient_fhat(3)
    one, zero_s = CyclotomicScalar.one(3), CyclotomicScalar.zero(3)
    diagonal = Corep(fhat, 2, ["1", "a^3"], [[unit(fhat), zero(fhat)], [zero(fhat), monomial_element(fhat, NormalMonomial(3, 0, 0))]])
    skew = corep.restrict_corep(diagonal, [[one, one], [zero_s, one]])
    v0 = _project_corep(build_v(0, 3), fhat)
    cases.append(("V0->skew@Fhat3", v0, skew))
    cases.append(("skew->V0@Fhat3", skew, v0))
    return cases


def _flat(matrices) -> list:
    return [[x for row in z.data for x in row] for z in matrices]


@pytest.mark.parametrize("name,a,b", _hom_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_hom_space_matches_unblocked_solve(name, a, b):
    # the same kernel, so the same reduced echelon basis, matrix for matrix
    assert _flat(hom_space(a, b)) == _hom_reference(a, b)


def test_hom_space_needs_the_ell_grades(monkeypatch):
    """Without the grades (ell, 0) and (0, ell) of E^(ell) and F^(ell), the
    Hom space into W1 (x) W1 is too large; V1 (x) V1 does not notice."""
    ell = 3
    v0, v1 = build_v(0, ell), build_v(1, ell)
    w1w1, v1v1 = _word(ell, [("W", 1), ("W", 1)]), tensor(v1, v1)
    assert len(hom_space(v0, w1w1)) == 1
    monkeypatch.setattr(corep, "_generator_grades", lambda ell: ((0, 0), (1, 0), (0, 1)))
    assert len(hom_space(v0, w1w1)) == 2
    assert _flat(hom_space(v0, w1w1)) != _hom_reference(v0, w1w1)
    for a, b in ((v1, v1v1), (v1v1, v1v1), (v0, v1v1)):
        assert _flat(hom_space(a, b)) == _hom_reference(a, b)


# -- the character peel ------------------------------------------------------------

def test_torus_weights_of_named_coreps():
    assert build_v(2, 5).torus_weights() == (2, 0, -2)
    assert build_w(2, 3).torus_weights() == (6, 0, -6)
    assert tensor(build_w(1, 3), build_v(1, 3)).torus_weights() == (4, 2, -2, -4)


def test_torus_weights_reduce_mod_the_order_of_a():
    v2 = tensor(build_v(1, 3), build_v(2, 3))
    f = _project_corep(v2, AlgebraMode.quotient_f(3))
    fhat = _project_corep(v2, AlgebraMode.quotient_fhat(3))
    assert f.torus_weights() == tuple(t % 3 for t in v2.torus_weights())
    assert fhat.torus_weights() == tuple(t % 6 for t in v2.torus_weights())
    # residues are no character: the peel needs integer weights
    assert corep.character_peel(f) is None


def test_character_peel_lists_composition_factors():
    names = sorted(irr.name for irr in corep.character_peel(_word(3, [("V", 2), ("V", 2)])))
    assert names == ["V0", "V0", "V2", "W1*V1"]
    assert corep.character_peel(build_w(4, 3)) == [corep.Irr(4, 0)]


def test_character_peel_rejects_a_non_character():
    v1 = build_v(1, 3)
    # weights 1 and 1: the peel of x^1 leaves x^-1 with multiplicity -1
    doubled = Corep(v1.mode, 2, ["a", "a'"], [[v1.rho[0][0], v1.rho[0][1]], [v1.rho[0][1], v1.rho[0][0]]])
    assert doubled.torus_weights() == (1, 1)
    with pytest.raises(ValueError, match="not a character"):
        corep.character_peel(doubled)
    # a lone negative weight names no irreducible at all
    lowest = Corep(v1.mode, 1, ["c"], [[v1.rho[1][1]]])
    assert lowest.torus_weights() == (-1,)
    with pytest.raises(ValueError, match="not a character"):
        corep.character_peel(lowest)


def test_character_peel_needs_torus_weights():
    c = _without_weight_basis()
    assert c.torus_weights() is None
    assert corep.character_peel(c) is None


def test_decompose_needs_torus_weights():
    with pytest.raises(ValueError, match="no integer torus weights"):
        decompose(_without_weight_basis())


def test_decompose_rejects_a_quotient_mode():
    c = _project_corep(tensor(build_v(1, 3), build_v(2, 3)), AlgebraMode.quotient_f(3))
    assert c.torus_weights() is not None  # residues mod ell, not integer weights
    with pytest.raises(ValueError, match="torus weights"):
        decompose(c)


@st.composite
def tensor_words(draw):
    """A V/W tensor word at ell 3, 5 or 7 of dimension at most 16."""
    ell = draw(st.sampled_from([3, 5, 7]))
    budget = 16
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        options = [("V", m) for m in range(1, ell) if m + 1 <= budget]
        options += [("W", n) for n in range(1, 4) if n + 1 <= budget]
        if not options:
            break
        family, index = draw(st.sampled_from(options))
        factors.append((family, index))
        budget //= index + 1
    return ell, factors


def _nodes_reached(run) -> list[Corep]:
    """The full corep of every node ``corep.decompose`` reaches while
    ``run()`` runs (``driver_replay``)."""
    return [full for _, full in replayed_nodes(run)]


@given(tensor_words())
def test_character_peel_is_the_composition_series(word):
    ell, factors = word
    c = _word(ell, factors)
    trees = []
    reached = _nodes_reached(lambda: trees.append(corep.decompose(c)))
    peel = corep.character_peel(c)
    assert sorted(tree_flag(trees[0])) == sorted(irr.name for irr in peel)
    for node in reached:
        weights = node.torus_weights()
        assert weights is not None, node.family
        # the weights read off the (0, 0) grade are those of the definition
        assert tuple(q_power(ell, t) for t in weights) == _weights_by_projection(node), node.family
        factors_here = set(corep.character_peel(node))
        # soundness of the pruning: every candidate that maps into the node
        # is one of its composition factors
        for irr in _candidates(ell, node.dim):
            if irr not in factors_here:
                assert hom_space(_irr_corep(irr, ell), node) == [], (node.family, irr.name)


@given(tensor_words())
def test_decompose_on_the_generator_part(word):
    """Every node the driver reaches is the generator part of the full
    quotient it stands for: the node of ``quotient_corep`` replayed on the
    full corep with the driver's rows (``driver_replay``).  The driver
    peels one irreducible per node, so there is one node per factor."""
    c = _word(*word)
    trees = []
    pairs = replayed_nodes(lambda: trees.append(corep.decompose(c)))
    assert len(pairs) == len(tree_flag(trees[0]))


# -- the split test against the idempotent it replaced ------------------------------

def _reached_nodes() -> list[Corep]:
    """Every node corep ``decompose`` reaches on the pinned words and on the
    ell = 3 products of the tensor-decomposition-l3 claim."""

    def run():
        for ell, factors, _ in PINNED:
            corep.decompose(_word(ell, factors))
        assert verify.claim_tensor_decomposition_l3().passed

    return _nodes_reached(run)


def test_split_by_the_kernel_of_the_projection():
    """At every node and every candidate pair (t: X -> C, p: C -> X), t p is
    invertible exactly when the old ``inverse(t * p)`` succeeds, and then
    ker p equals the kernel of the idempotent e = p (t p)^-1 t."""
    splits = singular = 0
    for node in _reached_nodes():
        for irr in set(corep.character_peel(node)):
            x = _irr_corep(irr, node.ell)
            into, out_of = hom_space(x, node), hom_space(node, x)
            for t in into:
                for p in out_of:
                    tp = SparseMatrix.from_dense(dense_product(t, p))
                    try:
                        inverse_composite = inverse(tp).dense()
                    except SingularMatrixError:
                        assert not is_invertible(tp)
                        singular += 1
                        continue
                    assert is_invertible(tp)
                    e = dense_product(dense_product(p, inverse_composite), t)
                    assert kernel(SparseMatrix.from_dense(p).transpose()) == kernel(SparseMatrix.from_dense(e).transpose())
                    splits += 1
    assert splits and singular


@given(tensor_words())
def test_schur_replaces_the_rank_tests(word):
    """The driver's tests without a rank agree with the rank at every node
    it reaches: an embedding of a candidate of the node's dimension is
    invertible, and t p is invertible exactly when it is nonzero (Schur's
    lemma, see ``_decompose_node``)."""
    c = _word(*word)
    for node in _nodes_reached(lambda: corep.decompose(c)):
        for irr in set(corep.character_peel(node)):
            x = _irr_corep(irr, node.ell)
            into = hom_space(x, node)
            if irr.dim == node.dim:
                assert all(is_invertible(SparseMatrix.from_dense(t)) for t in into)
            for t in into:
                for p in hom_space(node, x):
                    tp = dense_product(t, p)
                    assert is_invertible(SparseMatrix.from_dense(tp)) == (not is_zero_matrix(tp))
