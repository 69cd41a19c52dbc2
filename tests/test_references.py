"""The decomposition driver and ``tensor`` against the implementations they
replaced, kept here as references: the driver that split a summand off by
restricting to the kernel of the projection, and the tensor product that
called ``multiply`` once per cell.  Also the memo of ``tensor``: one
product per pair of instances, equal to the reference, kept no longer than
its left factor."""

import gc
import weakref
from dataclasses import replace
from itertools import product
from math import prod

import pytest

from slq2.algebra import AlgebraMode, multiply, zero
from slq2.corep import (
    Corep,
    DecompositionTree,
    DirectSum,
    Extension,
    Leaf,
    _irr_corep,
    build_v,
    build_w,
    build_y,
    character_peel,
    decompose,
    hom_space,
    quotient_corep,
    restrict_corep,
    tensor,
)
from slq2.linalg import SparseMatrix, kernel
from test_torus import _project_corep, _word
from dense_reference import dense_product, is_zero_matrix


def _decompose_reference(c: Corep) -> DecompositionTree:
    """The driver with the split by restriction, on the full corep: where
    t p != 0 it recurses on C restricted to ker p, the complement of im t."""
    ell = c.ell
    for irr in sorted(set(character_peel(c)), key=lambda irr: (irr.dim, irr.m, irr.n)):
        x = _irr_corep(irr, ell)
        into = hom_space(x, c)
        if not into:
            continue
        if irr.dim == c.dim:
            return Leaf(irr)
        out_of = hom_space(c, x)
        for t in into:
            for p in out_of:
                if is_zero_matrix(dense_product(t, p)):
                    continue
                branch = _decompose_reference(restrict_corep(c, kernel(SparseMatrix.from_dense(p).transpose())))
                children = [Leaf(irr)]
                if isinstance(branch, DirectSum):
                    children.extend(branch.children)
                else:
                    children.append(branch)
                children.sort(key=lambda ch: (ch.dim, ch.notation()))
                return DirectSum(tuple(children))
        quotient = quotient_corep(c, [list(row) for row in into[0].data])
        return Extension(Leaf(irr), _decompose_reference(quotient))
    raise ValueError(f"no irreducible constituent found in {c.family} (dim {c.dim})")


def _tensor_reference(a: Corep, b: Corep) -> Corep:
    """The tensor product with one ``multiply`` per nonzero cell."""
    dim = a.dim * b.dim
    labels = [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels]
    rho = [[zero(a.mode) for _ in range(dim)] for _ in range(dim)]
    for i in range(a.dim):
        for r in range(b.dim):
            for j in range(a.dim):
                aij = a.rho[i][j]
                if aij.is_zero():
                    continue
                for s in range(b.dim):
                    brs = b.rho[r][s]
                    if brs.is_zero():
                        continue
                    rho[i * b.dim + r][j * b.dim + s] = multiply(aij, brs)
    name = f"{a.family or '?'}(x){b.family or '?'}"
    return Corep(a.mode, dim, labels, rho, name)


LETTERS = {("V", 0): 1, ("V", 1): 2, ("V", 2): 3, ("W", 1): 2}

DRIVER_WORDS = [
    (3, word)
    for n in range(2, 5)
    for word in product(LETTERS, repeat=n)
    if prod(LETTERS[letter] for letter in word) <= 18
] + [(5, [("V", m), ("V", mp)]) for m in range(1, 5) for mp in range(1, 5)]
DRIVER_WORDS += [(7, [("V", m), ("V", mp)]) for m in range(1, 7) for mp in range(1, 7)]
DRIVER_WORDS += [(5, [("W", 1), ("V", m), ("V", mp)]) for m in range(1, 5) for mp in range(1, 3)]


def test_driver_matches_the_split_by_restriction():
    """Splitting X off by quotienting C by im t builds the tree that the
    restriction to ker p built, on every word over V0, V1, V2, W1 of
    dimension at most 18 at ell = 3 (2 to 4 factors), every V_m (x) V_m'
    at ell = 5 and 7 (1 <= m, m' <= ell - 1), and W1 (x) V_m (x) V_m'
    (1 <= m <= 4, m' <= 2) at ell = 5, whose nodes try W1 (x) V_j with
    j < ell - 1, the candidates with the F^(j+1) condition."""
    assert len(DRIVER_WORDS) == 266 + 16 + 36 + 8
    for ell, factors in DRIVER_WORDS:
        c = _word(ell, factors)
        assert decompose(c).notation() == _decompose_reference(c).notation(), (ell, factors)


# V_m (x) V_m' at ell = 9 with m <= m' and m + m' >= 8: the last semisimple
# sum m + m' = ell - 1 and every sum above it, where the products are not
# semisimple.  Recorded by the driver before it read its input into nodes.
ELL9_TREES = [
    (1, 7, 'V6 (+) V8'),
    (1, 8, 'V7 (/) W1 (/) V7'),
    (2, 6, 'V4 (+) V6 (+) V8'),
    (2, 7, 'V5 (+) [V7 (/) W1 (/) V7]'),
    (2, 8, 'V6 (/) W1*V1 (/) (V6 (+) V8)'),
    (3, 5, 'V2 (+) V4 (+) V6 (+) V8'),
    (3, 6, 'V3 (+) V5 (+) [V7 (/) W1 (/) V7]'),
    (3, 7, 'V4 (+) [V6 (/) W1*V1 (/) (V6 (+) V8)]'),
    (3, 8, 'V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) V7]]'),
    (4, 4, 'V0 (+) V2 (+) V4 (+) V6 (+) V8'),
    (4, 5, 'V1 (+) V3 (+) V5 (+) [V7 (/) W1 (/) V7]'),
    (4, 6, 'V2 (+) V4 (+) [V6 (/) W1*V1 (/) (V6 (+) V8)]'),
    (4, 7, 'V3 (+) [V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) V7]]]'),
    (4, 8, 'V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) (V4 (+) V8)]]'),
    (5, 5, 'V0 (+) V2 (+) V4 (+) [V6 (/) W1*V1 (/) (V6 (+) V8)]'),
    (5, 6, 'V1 (+) V3 (+) [V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) V7]]]'),
    (5, 7, 'V2 (+) [V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) (V4 (+) V8)]]]'),
    (5, 8, 'V3 (/) V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) [V7 (+) [W1*V4 (/) V3]]]]'),
    (6, 6, 'V0 (+) V2 (+) [V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) (V4 (+) V8)]]]'),
    (6, 7, 'V1 (+) [V3 (/) V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) [V7 (+) [W1*V4 (/) V3]]]]]'),
    (6, 8, 'V2 (/) V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) [V4 (+) V8 (+) [W1*V5 (/) V2]]]]'),
    (7, 7, 'V0 (+) [V2 (/) V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) [V4 (+) V8 (+) [W1*V5 (/) V2]]]]]'),
    (7, 8, 'V1 (/) V3 (/) V5 (/) W1*V2 (/) [V5 (+) [V7 (/) W1 (/) [V7 (+) [W1*V4 (/) [V3 (+) [W1*V6 (/) V1]]]]]]'),
    (8, 8, 'V0 (/) V2 (/) V4 (/) V6 (/) W1*V1 (/) [V6 (+) [W1*V3 (/) [V4 (+) V8 (+) [W1*V5 (/) [V2 (+) [W1*V7 (/) V0]]]]]]'),
]


def test_recorded_trees_at_ell_9():
    assert len(ELL9_TREES) == 24
    for m, mp, notation in ELL9_TREES:
        assert decompose(tensor(build_v(m, 9), build_v(mp, 9))).notation() == notation, (m, mp)


def _factors(ell: int) -> list[Corep]:
    """Y0..Y3 (V0..V3 where 3 < ell), W1 and the two-factor product
    W1 (x) W1: in its products with Y2, the key order of a cell shows
    whether the left entry's terms are the outer loop, as in ``multiply``."""
    return [build_y(m, ell) for m in range(4)] + [build_w(1, ell), tensor(build_w(1, ell), build_w(1, ell))]


def _assert_same_terms(got: Corep, want: Corep):
    assert got == want
    for got_row, want_row in zip(got.rho, want.rho):
        for x, y in zip(got_row, want_row):
            assert list(x.terms.items()) == list(y.terms.items())


@pytest.mark.parametrize("kind", ["generic", "F", "Fhat"])
@pytest.mark.parametrize("ell", [3, 5])
def test_tensor_matches_the_per_cell_product(ell, kind):
    """Every cell of ``tensor`` equals the ``multiply`` of its two entries,
    with its terms in the same order (``axis_terms`` and the eliminations
    after it read them in that order).  In F and Fhat a product of two
    terms can vanish (b^ell = c^ell = 0), the case of ``_mono_mul``
    returning no term."""
    mode = {"generic": AlgebraMode.generic, "F": AlgebraMode.quotient_f, "Fhat": AlgebraMode.quotient_fhat}[kind](ell)
    factors = [_project_corep(c, mode) if mode.is_quotient else c for c in _factors(ell)]
    for a in factors:
        for b in factors[:-1]:
            _assert_same_terms(tensor(a, b), _tensor_reference(a, b))
    if mode.is_quotient:
        entries = [x for c in factors for x in c.entries_flat() if x]
        assert any(not multiply(x, y) for x in entries for y in entries)


def test_tensor_is_memoised_on_the_pair():
    """A repeated call returns the one product built by the first, for
    builder outputs and for products, and that product equals the
    reference value for value and in term order."""
    v1, v2, w1 = build_v(1, 3), build_v(2, 3), build_w(1, 3)
    v1w1 = tensor(v1, w1)
    for a, b in [(v1, v2), (v1, w1), (w1, v1), (v1w1, v2), (v2, v1w1), (v1w1, v1w1)]:
        got = tensor(a, b)
        assert tensor(a, b) is got
        _assert_same_terms(got, _tensor_reference(a, b))


def _check_against_reference(a: Corep, b: Corep):
    # b lives only for this call: its id is free again when the call returns
    _assert_same_terms(tensor(a, b), _tensor_reference(a, b))


def test_tensor_memo_with_short_lived_right_factors():
    """Right factors built and dropped one after another: a dropped
    factor's id is free for the next one, so a memo keyed by the id alone
    would hand the next factor a product of the wrong shape.  The memo
    holds each right factor with its product, so every product is right."""
    a = replace(build_v(1, 3))
    bases = [build_v(0, 3), build_v(2, 3), build_w(1, 3), build_v(1, 3)]
    for i in range(40):
        _check_against_reference(a, replace(bases[i % len(bases)]))


def test_tensor_memo_dies_with_its_left_factor():
    """A left factor that no builder shares is freed, memo and all, once
    the caller drops it, also when it is its own right factor."""
    a = replace(build_v(1, 3))
    tensor(a, build_w(1, 3))
    tensor(a, a)
    alive = weakref.ref(a)
    del a
    gc.collect()
    assert alive() is None


def test_tensor_mode_mismatch_raises_every_time():
    generic = build_v(1, 3)
    quotient = _project_corep(generic, AlgebraMode.quotient_f(3))
    for _ in range(2):
        with pytest.raises(ValueError, match="different modes"):
            tensor(generic, quotient)
