"""The generator part of a corep (``corep._generator_part``) against the full corep.

The decomposition driver runs on rho cut to the terms of b/c grade (0, 0),
(1, 0), (0, 1), (ell, 0) and (0, ell).  On subspaces of three kinds (spans
of weight vectors, subcomodules or not; kernels of maps C -> X; images of
maps X -> C) the subcomodule test on the cut gives the verdict of the full
corep, and the restriction and the quotient of the cut are the cuts of the
full ones, entry for entry.  Without the ell grades the driver fails.
"""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from slq2 import corep
from slq2.corep import (
    _generator_grades,
    _generator_part,
    _irr_corep,
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
from slq2.linalg import kernel


def _named(ell, names):
    builders = {"V": build_v, "W": build_w}
    return reduce(tensor, [builders[name[0]](int(name[1:]), ell) for name in names])


# -- the cut itself -------------------------------------------------------------------

@pytest.mark.parametrize("ell,names", [(3, ["V1", "V1"]), (3, ["W1", "V2"]), (5, ["V2", "V3"]), (7, ["W1", "W1"])])
def test_the_cut_keeps_exactly_the_generator_grades(ell, names):
    c = _named(ell, names)
    cut = _generator_part(c)
    grades = _generator_grades(ell)
    assert dict(cut.terms_by_bc) == {g: terms for g, terms in c.terms_by_bc.items() if g in grades}
    assert (cut.mode, cut.dim, cut.basis_labels, cut.family) == (c.mode, c.dim, c.basis_labels, c.family)
    for row, full_row in zip(cut.rho, c.rho):
        for entry, full in zip(row, full_row):
            if all((m.j, m.k) in grades for m in full.terms):
                assert entry is full


def test_the_cut_is_not_a_comodule():
    c = _named(3, ["V1", "V1"])
    assert len(_generator_part(c).terms_by_bc) < len(c.terms_by_bc)
    assert verify_corep(c).ok
    assert not verify_corep(_generator_part(c)).comultiplicative


# -- subquotients of the cut are the cuts of the full ones ----------------------------

def _outcome(fn, c, basis):
    try:
        return fn(c, basis)
    except ValueError as err:
        return str(err)


def _check_cut(c, basis) -> bool:
    """The three readers on the cut against the cut of the full results;
    returns the verdict."""
    cut = _generator_part(c)
    verdict = subcomodule_check(c, basis)
    assert subcomodule_check(cut, basis) == verdict
    for fn in (restrict_corep, quotient_corep):
        full, part = _outcome(fn, c, basis), _outcome(fn, cut, basis)
        if isinstance(full, str):
            assert part == full
        else:
            assert part == _generator_part(full)
    return verdict


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


@st.composite
def _weight_spans(draw):
    """A corep and independent weight vectors: in each weight space, unit
    vectors at distinct pivots, with small integers at the later non-pivot
    places of that weight space."""
    c = draw(_words())
    zero, one = CyclotomicScalar.zero(c.ell), CyclotomicScalar.one(c.ell)
    spaces: dict[int, list[int]] = {}
    for i, t in enumerate(c.torus_weights()):
        spaces.setdefault(t, []).append(i)
    basis = []
    for t in sorted(spaces):
        indices = spaces[t]
        pivots = sorted(draw(st.sets(st.sampled_from(indices), max_size=len(indices))))
        for p in pivots:
            v = [zero] * c.dim
            v[p] = one
            for i in indices:
                if i > p and i not in pivots:
                    v[i] = one * draw(st.integers(-2, 2))
            basis.append(v)
    return c, basis


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
    return c, [list(row) for row in t.data] if into else kernel(t.transpose())


@given(_weight_spans())
def test_weight_spans_on_the_cut(case):
    _check_cut(*case)


@given(_hom_subspaces())
def test_images_and_kernels_on_the_cut(case):
    assert _check_cut(*case)


@pytest.mark.parametrize("m,ell", [(4, 3), (7, 3), (6, 5)])
def test_both_verdicts_on_weight_spans(m, ell):
    y = build_y(m, ell)
    sub = span_of_basis_indices(y, standard_y_subspace_indices(m, ell))
    assert _check_cut(y, sub)
    assert not _check_cut(y, span_of_basis_indices(y, [0]))


# -- the driver on the cut -------------------------------------------------------------

PARENT_TREES = [
    (["W1", "V1", "V1"], "W1 (+) W1*V2"),
    (["V2", "V2"], "V0 (/) [V2 (+) [W1*V1 (/) V0]]"),
    (["V1", "V1", "V1"], "V1 (+) [V1 (/) W1 (/) V1]"),
    (["V1", "V1", "V1", "V1"], "V0 (+) [V0 (/) [V2 (+) V2 (+) V2 (+) [W1*V1 (/) V0]]]"),
]


@pytest.mark.parametrize("names,notation", PARENT_TREES)
def test_the_driver_needs_the_ell_grades(names, notation, monkeypatch):
    """Cut to (0, 0), (1, 0) and (0, 1) alone, the singular vectors and
    the images no longer see E^(ell) and F^(ell): an image closes short of
    its candidate's dimension and the driver raises; with all five grades
    the tree is the one recorded before the cut."""
    c = _named(3, names)
    assert decompose(c).notation() == notation
    assert decompose(c) == corep._decompose_node(c)
    with monkeypatch.context() as patch:
        patch.setattr(corep, "_generator_grades", lambda ell: ((0, 0), (1, 0), (0, 1)))
        three_grades = _generator_part(c)
    with pytest.raises(ValueError, match="closes at dim"):
        decompose(three_grades)
