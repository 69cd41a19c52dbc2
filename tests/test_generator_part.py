"""The generator part of a corep: the node the decomposition driver reads.

``corep.decompose`` reads its input once into a node (``corep._Node``): the
torus weights and rho cut to the terms of b/c grade (1, 0), (0, 1),
(ell, 0) and (0, ell), the actions of E, F, E^(ell) and F^(ell) up to
nonzero scalars.  It builds no corep below its input.  The node's quotient
by a subcomodule (an image of a map X -> C or a kernel of a map C -> X) is
the node of the full quotient; every node the driver reaches is the node of
the full quotient it stands for (``driver_replay``, checked under
hypothesis in ``test_torus``), and a quotient that forgets the reduction
fails that check.  Without the ell grades the driver fails.
"""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from slq2 import corep
from slq2.corep import (
    Corep,
    _generator_grades,
    _irr_corep,
    _quotient_by_image,
    build_v,
    build_w,
    character_peel,
    decompose,
    hom_space,
    quotient_corep,
    tensor,
)
from slq2.linalg import SparseMatrix, kernel, rref
from driver_replay import node_of, recorded_chains, replay


def _named(ell, names):
    builders = {"V": build_v, "W": build_w}
    return reduce(tensor, [builders[name[0]](int(name[1:]), ell) for name in names])


# -- the node itself ------------------------------------------------------------------

@pytest.mark.parametrize("ell,names", [(3, ["V1", "V1"]), (3, ["W1", "V2"]), (5, ["V2", "V3"]), (7, ["W1", "W1"])])
def test_the_cut_keeps_exactly_the_generator_grades(ell, names):
    """The root node holds the torus weights and, for each non-torus
    generator grade, that grade's terms of rho without their monomials."""
    c = _named(ell, names)
    [(_, chain)] = recorded_chains(lambda: corep.decompose(c))
    root = chain[0][0]
    assert (root.ell, root.weights, root.family) == (ell, c.torus_weights(), c.family)
    assert list(root.actions) == list(_generator_grades(ell)[1:])
    for grade, terms in root.actions.items():
        assert terms == tuple((i, k, x) for i, k, _, x in c.axis_terms.get(grade, ()))


@pytest.mark.parametrize(
    "ell,names", [(3, ["V1", "V1", "V1", "V1"]), (3, ["V1", "V2", "V2"]), (5, ["V3", "V4"]), (7, ["V6", "V6"])]
)
def test_decompose_builds_no_corep(ell, names, monkeypatch):
    """No ``Corep`` is constructed after the input: the count of
    ``Corep.__post_init__`` calls inside ``decompose`` is 0, while the same
    count sees the quotient that ``quotient_corep`` builds."""
    c = _named(ell, names)
    built = []
    post_init = Corep.__post_init__

    def counting(self):
        built.append(self.family)
        post_init(self)

    monkeypatch.setattr(Corep, "__post_init__", counting)
    tree = decompose(c)
    assert built == [] and tree.dim == c.dim
    quotient_corep(c, [])
    assert built == [f"{c.family}/sub"]


@st.composite
def _words(draw):
    """A V/W tensor word at ell 3, 5 or 7 of dimension at most 12."""
    ell = draw(st.sampled_from([3, 5, 7]))
    budget, names = 12, []
    for _ in range(draw(st.integers(1, 3))):
        options = [f"V{m}" for m in range(1, ell) if m + 1 <= budget]
        options += [f"W{n}" for n in (1, 2) if n + 1 <= budget]
        if not options:
            break
        names.append(draw(st.sampled_from(options)))
        budget //= int(names[-1][1:]) + 1
    return _named(ell, names)


def _hom_maps(c, into: bool):
    """The Hom basis X -> C (into) or C -> X over the composition factors X."""
    maps = []
    for irr in sorted(set(character_peel(c)), key=lambda irr: (irr.n, irr.m)):
        x = _irr_corep(irr, c.ell)
        maps.extend(hom_space(x, c) if into else hom_space(c, x))
    return maps


@st.composite
def _hom_subspaces(draw):
    """A corep and the image of a map X -> C or the kernel of a map C -> X."""
    c = draw(_words())
    into = draw(st.booleans())
    t = draw(st.sampled_from(_hom_maps(c, into)))
    return c, [list(row) for row in t.data] if into else kernel(SparseMatrix.from_dense(t).transpose())


@given(_hom_subspaces())
def test_images_and_kernels_on_the_cut(case):
    """The node's quotient maps each action G to G[free] R for any
    subcomodule, not only for the images of simples that the driver
    quotients by: it is the node of ``quotient_corep``'s quotient."""
    c, basis = case
    if len(basis) == c.dim:
        return  # an isomorphism onto C: no quotient
    rows = [{j: x for j, x in enumerate(v) if x} for v in basis]
    assert _quotient_by_image(node_of(c), rows) == node_of(quotient_corep(c, basis))


def _quotient_without_reduction(node, rows):
    """The mutant: each action G becomes G[free][:, free], G[free] without
    the reduction R, so the terms at the pivot columns are dropped."""
    dim = len(node.weights)
    _, pivots = rref(SparseMatrix(node.ell, len(rows), dim, rows))
    position = {j: n for n, j in enumerate(j for j in range(dim) if j not in pivots)}
    actions = {
        grade: tuple((position[i], position[k], x) for i, k, x in terms if i in position and k in position)
        for grade, terms in node.actions.items()
    }
    return corep._Node(node.ell, tuple(node.weights[j] for j in position), f"{node.family}/sub", actions)


@pytest.mark.parametrize("ell,names", [(3, ["V1", "V1"]), (3, ["W1", "V1", "V1"])])
def test_the_replay_needs_the_reduction(ell, names, monkeypatch):
    """The driver still builds a tree with the mutant quotient, and the
    replay check finds its first quotient node wrong."""
    c = _named(ell, names)
    replay(recorded_chains(lambda: corep.decompose(c)))
    monkeypatch.setattr(corep, "_quotient_by_image", _quotient_without_reduction)
    calls = recorded_chains(lambda: corep.decompose(c))
    with pytest.raises(AssertionError, match="differs from that of"):
        replay(calls)


# -- the driver without the ell grades --------------------------------------------------

PARENT_TREES = [
    (["W1", "V1", "V1"], "W1 (+) W1*V2"),
    (["V2", "V2"], "V0 (/) [V2 (+) [W1*V1 (/) V0]]"),
    (["V1", "V1", "V1"], "V1 (+) [V1 (/) W1 (/) V1]"),
    (["V1", "V1", "V1", "V1"], "V0 (+) [V0 (/) [V2 (+) V2 (+) V2 (+) [W1*V1 (/) V0]]]"),
]


@pytest.mark.parametrize("names,notation", PARENT_TREES)
def test_the_driver_needs_the_ell_grades(names, notation, monkeypatch):
    """Read with (0, 0), (1, 0) and (0, 1) alone, the node's singular
    vectors and images no longer see E^(ell) and F^(ell): an image closes
    short of its candidate's dimension and the driver raises; with all five
    grades the tree is the recorded one."""
    c = _named(3, names)
    assert decompose(c).notation() == notation
    monkeypatch.setattr(corep, "_generator_grades", lambda ell: ((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="closes at dim"):
        decompose(c)
