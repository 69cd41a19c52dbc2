"""Terms with both a b and a c are invisible to every reader of rho's b/c
grades.

``Corep.axis_terms`` keeps only the terms a^t b^j c^k with j = 0 or k = 0
(and j, k <= ell), and ``torus_weights``, ``hom_space``,
``braid.braiding_map`` and ``decompose`` read nothing else: the torus
image kills every term with a b or a c, E^(r) and F^(r) pair only with
a^t b^r and a^t c^r, and the braiding pairs a^t b^n only with a^t' c^n.
So a corep whose rho loses all its other terms gives the same weights,
Hom bases, braidings and trees.  The same readers do see an axis grade:
without the (1, 0) terms the braiding of V1 with itself and the tree of
V1 (x) V2 change.
"""

from itertools import product

import pytest

from slq2.algebra import AlgebraElement, AlgebraMode
from slq2.braid import CONVENTIONS, STRUCTURAL_CONVENTION, braiding_map
from slq2.corep import Corep, build_v, build_w, decompose, hom_space, tensor
from test_braid_grade import _factor, _in_mode

ELLS = (3, 5, 7)


def _mixed(mono) -> bool:
    return bool(mono.j and mono.k)


def _stripped(c: Corep, drop=_mixed) -> Corep:
    """c with every term of rho whose monomial ``drop`` names removed."""
    rho = [[AlgebraElement(c.mode, {m: x for m, x in e.terms.items() if not drop(m)}) for e in row] for row in c.rho]
    return Corep(c.mode, c.dim, c.basis_labels, rho, c.family)


def _inputs(ell: int) -> list[Corep]:
    v1, v2, w1 = build_v(1, ell), build_v(2, ell), build_w(1, ell)
    return [v1, v2, w1, tensor(v1, v2), tensor(w1, v1), tensor(v2, v2)]


def _assert_readers_agree(full: list[Corep], stripped: list[Corep], conventions, trees: bool) -> None:
    for c, s in zip(full, stripped):
        assert s.torus_weights() == c.torus_weights(), c.family
        if trees:
            assert decompose(s) == decompose(c), c.family
    for (a, sa), (b, sb) in product(zip(full, stripped), repeat=2):
        assert hom_space(sa, sb) == hom_space(a, b), (a.family, b.family)
        for convention in conventions:
            assert braiding_map(sa, sb, convention) == braiding_map(a, b, convention), (a.family, b.family, convention)


@pytest.mark.parametrize("ell", ELLS)
def test_the_readers_do_not_see_mixed_terms(ell):
    full = _inputs(ell)
    stripped = [_stripped(c) for c in full]
    assert any(s != c for s, c in zip(stripped, full))  # the products do have mixed terms
    _assert_readers_agree(full, stripped, CONVENTIONS, trees=True)


@pytest.mark.parametrize("ell", ELLS)
def test_the_readers_do_not_see_mixed_terms_in_fhat(ell):
    full = [_in_mode(c, "Fhat") for c in _inputs(ell)]
    assert all(c.mode == AlgebraMode.quotient_fhat(ell) for c in full)
    _assert_readers_agree(full, [_stripped(c) for c in full], (STRUCTURAL_CONVENTION,), trees=False)


@pytest.mark.parametrize("ell", ELLS)
def test_the_readers_do_not_see_mixed_terms_outside_a_weight_basis(ell):
    """V1^U and V2^U (``test_braid_grade``) have several grades in one entry
    and no torus weights: hom_space keeps every unknown and the (0, 0)
    equations, the braiding adds several term pairs into one cell, and the
    driver refuses them.  V2^U has mixed terms."""
    full = [_factor(spec, ell, "generic") for spec in ("V1^U", "V2^U", "V1", "V2")]
    stripped = [_stripped(c) for c in full]
    assert stripped[1] != full[1]
    assert full[0].torus_weights() is None and full[1].torus_weights() is None
    _assert_readers_agree(full, stripped, CONVENTIONS, trees=False)
    for c in stripped[:2]:
        with pytest.raises(ValueError, match="no integer torus weights"):
            decompose(c)


def test_the_readers_see_an_axis_grade():
    """Dropping the (1, 0) terms as well changes what the readers return."""
    ell = 3
    v1, v2 = build_v(1, ell), build_v(2, ell)

    def drop(mono) -> bool:
        return _mixed(mono) or (mono.j, mono.k) == (1, 0)

    assert braiding_map(_stripped(v1, drop), _stripped(v1, drop)) != braiding_map(v1, v1)
    v1v2 = tensor(v1, v2)
    assert decompose(v1v2).notation() == "V1 (/) W1 (/) V1"
    assert decompose(_stripped(v1v2, drop)).notation() == "V1 (+) [V1 (/) W1]"
