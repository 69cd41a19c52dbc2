"""Hom from singular vectors (``corep._singular_vectors``) against ``hom_space``.

For a candidate X = W_n (x) V_m of highest weight lambda = n ell + m, the
row solutions on C's weight -lambda block are exactly the last rows of the
``hom_space(X, C)`` basis, in its order, and the column solutions span the
last columns of ``hom_space(C, X)``.  Checked at every node the driver
reaches on tensor words at ell 3, 5 and 7 (against the full corep that
``driver_replay`` replays), and on Y_m for ell <= m <= 2 ell,
where Hom(X, Y_m) and Hom(Y_m, X) differ.  At the same nodes, the rows
that ``corep._image_rows`` walks from each row solution span the image of
its ``hom_space`` map.  Without the (ell, 0) or (0, ell)
grade the systems count too many maps, and without the F^(m+1) condition
(E^(m+1) for columns) they count Hom out of the Weyl module instead.
"""

from dataclasses import replace

import pytest
from hypothesis import given

from slq2 import corep
from slq2.corep import Irr, _image_rows, _irr_corep, _singular_vectors, build_v, build_y, hom_space, tensor
from slq2.linalg import ScalarMatrix, SparseMatrix, rank, rref
from driver_replay import node_of, replayed_nodes
from test_torus import _word, tensor_words


def _check(c, irr, node=None):
    """Rows on the node of c (default: read off c) equal the last rows of
    hom_space(X, C) on the block, and the columns span the last columns of
    hom_space(C, X) there; both Hom bases vanish off the block."""
    node = node_of(c) if node is None else node
    x = _irr_corep(irr, c.ell)
    block, rows = _singular_vectors(node, irr, rows=True)
    off = [i for i in range(c.dim) if i not in block]
    into = hom_space(x, c)
    assert all(not t.data[-1][i] for t in into for i in off)
    assert rows == [[t.data[-1][i] for i in block] for t in into]
    _, columns = _singular_vectors(node, irr, rows=False)
    out_of = hom_space(c, x)
    assert all(not p.data[i][-1] for p in out_of for i in off)
    last = [[p.data[i][-1] for i in block] for p in out_of]
    assert len(columns) == len(last)
    if columns:
        assert rank(SparseMatrix.from_dense(ScalarMatrix.from_rows(c.ell, columns + last))) == len(columns)
    return len(rows), len(columns)


@given(tensor_words())
def test_singular_vectors_at_every_node(word):
    c = _word(*word)
    for node, full in replayed_nodes(lambda: corep.decompose(c)):
        for irr in set(corep.character_peel(full)):
            _check(full, irr, node)


@given(tensor_words())
def test_image_rows_span_the_images_of_hom_space(word):
    """At every node, for every candidate X and every row solution s, the
    rows ``_image_rows`` walks from s span the image of the map of
    ``hom_space(X, C)`` whose last row s is (the solutions are those last
    rows, in order): their reduced echelon forms are equal."""
    c = _word(*word)
    for node, full in replayed_nodes(lambda: corep.decompose(c)):
        for irr in set(corep.character_peel(full)):
            block, into = _singular_vectors(node, irr, rows=True)
            maps = hom_space(_irr_corep(irr, full.ell), full)
            assert len(into) == len(maps)
            for s, t in zip(into, maps):
                rows = _image_rows(node, irr, block, s)
                assert len(rows) == irr.dim
                assert rref(SparseMatrix(full.ell, irr.dim, full.dim, rows)) == rref(SparseMatrix.from_dense(t))


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_singular_vectors_of_y(ell):
    """Every X whose block is not empty, on Y_m."""
    differ = 0
    for m in range(ell, 2 * ell + 1):
        y = build_y(m, ell)
        for lam in range(m % 2, m + 1, 2):
            irr = Irr(*divmod(lam, ell))
            into, out_of = _check(y, irr)
            differ += into != out_of
    assert differ


def _without(c, grade):
    """The node of c without the action of one grade."""
    node = node_of(c)
    return replace(node, actions={g: terms for g, terms in node.actions.items() if g != grade})


def test_singular_vectors_need_the_ell_grades():
    """Without the (ell, 0) rows, V0 has two singular vectors in W1 (x) W1
    where it has one embedding, and without the (0, ell) rows two column
    solutions.  The driver on W1 (x) W1 read with three grades still builds
    V0 (+) W2: the first of the two vectors splits, and W2 is then a leaf,
    which needs no image, so the loss shows only here."""
    c, v0 = _word(3, [("W", 1), ("W", 1)]), Irr(0, 0)
    assert len(_singular_vectors(node_of(c), v0, rows=True)[1]) == len(hom_space(build_v(0, 3), c)) == 1
    assert len(_singular_vectors(node_of(c), v0, rows=False)[1]) == len(hom_space(c, build_v(0, 3))) == 1
    assert len(_singular_vectors(_without(c, (3, 0)), v0, rows=True)[1]) == 2
    assert len(_singular_vectors(_without(c, (0, 3)), v0, rows=False)[1]) == 2


@pytest.mark.parametrize("factors,irr", [((1, 2), Irr(1, 0)), ((2, 2), Irr(1, 1))])
def test_rows_need_the_radical_condition(factors, irr):
    """W1 (x) V_j does not embed in V_a (x) V_b at ell 3, but a vector of
    its weight that E and E^(ell) kill does: without the (0, 1) grade, the
    F^(j+1) condition is gone and the row system counts it."""
    c = tensor(*(build_v(m, 3) for m in factors))
    assert len(_singular_vectors(node_of(c), irr, rows=True)[1]) == len(hom_space(_irr_corep(irr, 3), c)) == 0
    assert len(_singular_vectors(_without(c, (0, 1)), irr, rows=True)[1]) == 1


@pytest.mark.parametrize("ell", [3, 5])
def test_columns_need_the_radical_condition(ell):
    """No W1 (x) V_(m - ell) is a quotient of Y_m (ell <= m < 2 ell - 1):
    without the (1, 0) grade the E^(j+1) condition is gone and the column
    system counts one."""
    for m in range(ell, 2 * ell - 1):
        y, irr = build_y(m, ell), Irr(1, m - ell)
        assert len(_singular_vectors(node_of(y), irr, rows=False)[1]) == len(hom_space(y, _irr_corep(irr, ell))) == 0
        assert len(_singular_vectors(_without(y, (1, 0)), irr, rows=False)[1]) == 1
