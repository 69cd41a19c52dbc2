import gc
import importlib.util
import sys
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from slq2 import braid
from slq2.algebra import UNIT_MONOMIAL, AlgebraMode, NormalMonomial, from_word, generators, multiply, unit
from slq2.braid import (
    CONVENTIONS,
    ORDERED_CONVENTION,
    STRUCTURAL_CONVENTION,
    Pairing,
    braiding_map,
    braiding_matrix,
    check_braid_relation,
    check_hexagon,
    check_naturality,
    eigenstructure_check_v1v1,
    flip_matrix,
    get_pairing,
    r_pair,
    statistics_sign,
)
from slq2.corep import build_v, build_w, hom_space, tensor
from slq2.cyclo import CyclotomicScalar, q_half_power, q_power, times_half_power
from slq2.hopf import _coproduct_monomial
from slq2.verify import REFERENCE_22_CORRECTIONS, reference_braiding_tables
# imported here, not inside a running @given test: importing test_braid_grade
# runs its own @given decorators, which Hypothesis rejects as nested
from test_braid_grade import _first_letter, _generator_table
from test_torus import _project_corep

GEN3 = AlgebraMode.generic(3)
ROOT = Path(__file__).resolve().parents[1]


def el(*word):
    return from_word(GEN3, [(g, 1) for g in word])


# -- the generator table and unit axioms -----------------------------------------

def test_generator_table():
    a, b, c, d = generators(GEN3)
    s = lambda j: q_half_power(3, j)
    assert r_pair(a, a) == s(-1)
    assert r_pair(a, d) == s(1)
    assert r_pair(d, a) == s(1)
    assert r_pair(d, d) == s(-1)
    assert r_pair(b, c) == s(-1) - s(3)
    assert r_pair(c, b).is_zero()
    assert r_pair(a, b).is_zero()


def test_unit_axioms():
    one = unit(GEN3)
    assert r_pair(one, el("a")) == 1
    assert r_pair(one, el("a", "a", "b", "c")).is_zero()  # eps kills b, c
    assert r_pair(el("a", "d"), one) == 1  # eps(ad) = 1


def test_pair_of_squares():
    a2 = el("a", "a")
    expected = q_power(3, -2)
    assert r_pair(a2, a2, ORDERED_CONVENTION) == expected
    assert r_pair(a2, a2, STRUCTURAL_CONVENTION) == expected


def test_structural_convention_is_relation_invariant():
    # R(b, ca) must equal q^-1 R(b, ac) for a well-defined bilinear form;
    # the structural convention satisfies this, the ordered convention cannot.
    b = el("b")
    ac = el("a", "c")
    pairing = get_pairing(GEN3, STRUCTURAL_CONVENTION)
    lhs = pairing.pair(b, multiply(el("c"), el("a")))
    rhs = q_power(3, -1) * pairing.pair(b, ac)
    assert lhs == rhs
    # and the direct value is also what the defining recursion gives on ca
    ordered = get_pairing(GEN3, ORDERED_CONVENTION)
    # the ordered-convention split over Delta(b) with legs in order disagrees:
    split = CyclotomicScalar.zero(3)
    for (x1, x2), cfc in _coproduct_monomial(GEN3, NormalMonomial(0, 1, 0)).terms.items():
        split = split + cfc * ordered.pair_monomials(x1, NormalMonomial(0, 0, 1)) * ordered.pair_monomials(
            x2, NormalMonomial(1, 0, 0)
        )
    assert split != q_power(3, -1) * ordered.pair(b, ac)


# -- reference tables ---------------------------------------------------------------

def test_tables_match_reference_under_ordered_convention():
    refs = reference_braiding_tables(3)
    v1, v2 = build_v(1, 3), build_v(2, 3)
    assert braiding_matrix(v1, v1, ORDERED_CONVENTION).matrix == refs["11"]
    assert braiding_matrix(v1, v2, ORDERED_CONVENTION).matrix == refs["12"]
    assert braiding_matrix(v2, v1, ORDERED_CONVENTION).matrix == refs["21"]
    assert braiding_matrix(v2, v2, ORDERED_CONVENTION).matrix == refs["22"]


def test_structural_convention_differs_only_in_product_entries():
    refs = reference_braiding_tables(3)
    v1, v2 = build_v(1, 3), build_v(2, 3)
    assert braiding_matrix(v1, v1, STRUCTURAL_CONVENTION).matrix == refs["11"]
    got21 = braiding_matrix(v2, v1, STRUCTURAL_CONVENTION).matrix
    assert got21 == refs["21"]
    got12 = braiding_matrix(v1, v2, STRUCTURAL_CONVENTION).matrix
    diff12 = sum(
        1 for i in range(6) for j in range(6) if got12.data[i][j] != refs["12"].data[i][j]
    )
    assert diff12 == 2
    # the frozen reference already carries the two forced corner corrections,
    # on which both conventions agree; the remaining genuine differences are 4
    got22 = braiding_matrix(v2, v2, STRUCTURAL_CONVENTION).matrix
    diff22 = sum(
        1 for i in range(9) for j in range(9) if got22.data[i][j] != refs["22"].data[i][j]
    )
    assert diff22 == 4


def test_v2v2_corner_entries_are_forced():
    """The two corrected entries of the 22 table are recursion-forced: both
    conventions agree on them (so no extension scheme can reproduce the
    printed values)."""
    v2 = build_v(2, 3)
    q = q_power(3, 1)
    for convention in (ORDERED_CONVENTION, STRUCTURAL_CONVENTION):
        m = braiding_matrix(v2, v2, convention).matrix
        assert m.data[2][6] == q**2  # a2 (x) c2 -> c2 (x) a2
        assert m.data[8][8] == q  # c2 (x) c2 -> c2 (x) c2
    assert len(REFERENCE_22_CORRECTIONS) == 2


# -- eigenstructure ------------------------------------------------------------------

def test_eigenstructure():
    report = eigenstructure_check_v1v1(3)
    assert report.all_ok


def test_braiding_rows_of_eq11():
    v1 = build_v(1, 3)
    psi = braiding_map(v1, v1)
    s = lambda j: q_half_power(3, j)
    # Psi(a x a) = q^-1/2 a x a ; Psi(a x c) = q^1/2 c x a
    assert psi.data[0][0] == s(-1)
    assert psi.data[1][2] == s(1)
    assert psi.data[2][2] == 1 + s(-1)


# -- statistics ----------------------------------------------------------------------

@pytest.mark.parametrize("n,npr", [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_w_statistics_signs(n, npr):
    assert statistics_sign(build_w(n, 3), build_w(npr, 3)) == (-1) ** (n * npr)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_vw_statistics_signs(m, n):
    assert statistics_sign(build_v(m, 3), build_w(n, 3)) == (-1) ** (m * n)


def test_not_scalar_flip():
    v1 = build_v(1, 3)
    assert statistics_sign(v1, v1) is None


def test_flip_matrix_shape():
    f = flip_matrix(3, 2, 3)
    assert f.rows == 6 and f.cols == 6
    assert f.data[0 * 3 + 1][1 * 2 + 0] == 1


# -- categorical identities ------------------------------------------------------------

def test_braid_relation_v1_cube_both_conventions():
    v1 = build_v(1, 3)
    assert check_braid_relation(v1, v1, v1, ORDERED_CONVENTION)
    assert check_braid_relation(v1, v1, v1, STRUCTURAL_CONVENTION)


def test_braid_relation_needs_structural_convention():
    v1, v2 = build_v(1, 3), build_v(2, 3)
    assert check_braid_relation(v1, v2, v1, STRUCTURAL_CONVENTION)
    assert not check_braid_relation(v1, v2, v1, ORDERED_CONVENTION)


def test_hexagons_structural():
    v1, v2, w1 = build_v(1, 3), build_v(2, 3), build_w(1, 3)
    for triple in [(v1, v1, v1), (v1, v2, w1), (v2, w1, v2)]:
        assert check_hexagon(*triple, convention=STRUCTURAL_CONVENTION)


def test_hexagons_build_each_product_once(monkeypatch):
    """The hexagons on all 27 triples of V1, V2, W1 at ell = 3 ask for
    54 tensor products of 9 pairs and get 9 products: ``tensor`` builds
    each pair once and then shares it.  The factors are fresh copies, so
    no product memoised by an earlier test counts."""
    factors = [replace(c) for c in (build_v(1, 3), build_v(2, 3), build_w(1, 3))]
    products = []

    def recorded(a, b):
        products.append(tensor(a, b))
        return products[-1]

    monkeypatch.setattr(braid, "tensor", recorded)
    for triple in product(factors, repeat=3):
        assert check_hexagon(*triple, convention=STRUCTURAL_CONVENTION)
    assert len(products) == 54
    assert len({id(p) for p in products}) == 9


def test_braid_checks_build_each_braiding_once(monkeypatch):
    """The braid relation and the hexagons on all 27 triples of V1, V2, W1
    at ell = 3 ask for 216 braiding maps (3 + 5 per triple) and build 63:
    the 9 pairs of factors, and the 27 pairs of a product with a factor on
    either side.  ``braiding_map`` builds each pair once and then shares
    it; the factors are fresh copies, so no map memoised by an earlier
    test counts."""
    factors = [replace(c) for c in (build_v(1, 3), build_v(2, 3), build_w(1, 3))]
    maps = []

    def recorded(a, b, convention):
        maps.append(braiding_map(a, b, convention))
        return maps[-1]

    monkeypatch.setattr(braid, "braiding_map", recorded)
    for triple in product(factors, repeat=3):
        assert check_braid_relation(*triple, convention=STRUCTURAL_CONVENTION)
        assert check_hexagon(*triple, convention=STRUCTURAL_CONVENTION)
    assert len(maps) == 216
    assert len({id(m) for m in maps}) == 63


def _braid_tables_round(monkeypatch):
    """The (left, right, convention) of every braiding table in seed 1's
    round of the braid-tables benchmark (``bench/workloads.py``), with
    left and right fresh copies of the named coreps, one per name and
    ell, so no memo of an earlier test is read."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    copies = {}

    def fresh(name, ell):
        if (name, ell) not in copies:
            copies[(name, ell)] = replace(workloads._corep(name, ell))
        return copies[(name, ell)]

    tables = []
    for op in workloads.make_ops("braid-tables", 1):
        assert op.kind == "braid"
        left, right, convention = op.args
        tables.append((fresh(left, op.ell), fresh(right, op.ell), convention))
    return tables


def test_a_braid_tables_round_braids_nothing_twice(monkeypatch):
    """The 13 tables of a seed-1 braid-tables round, built on fresh copies,
    make 692 term-pair products (``times_half_power``), the round's
    ``half_power_calls``; built again on the same copies they make none,
    and every table reads the same."""
    tables = _braid_tables_round(monkeypatch)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return times_half_power(*args)

    monkeypatch.setattr(braid, "times_half_power", counted)
    first = [braiding_matrix(*table).matrix for table in tables]
    assert len(tables) == 13 and calls == [692]
    assert [braiding_matrix(*table).matrix for table in tables] == first
    assert calls == [692]


# -- the braiding memo -------------------------------------------------------------

def _assert_same_rows(got, expected):
    assert (got.ell, got.rows, got.cols) == (expected.ell, expected.rows, expected.cols)
    assert [list(row.items()) for row in got.data] == [list(row.items()) for row in expected.data]


def test_braiding_map_is_memoised_per_pair_and_convention():
    """A repeated call returns the map built by the first, for builder
    copies and for products, under each convention separately, and that
    map equals a fresh build (on a new copy of the left factor) value for
    value and in row and key order."""
    v1, v2, w1 = (replace(c) for c in (build_v(1, 3), build_v(2, 3), build_w(1, 3)))
    v1w1 = tensor(v1, w1)
    for a, b in [(v1, v2), (v2, v1), (v1, w1), (w1, v1), (v2, v2), (v1w1, v2), (v2, v1w1), (v1w1, v1w1)]:
        got = {convention: braiding_map(a, b, convention) for convention in CONVENTIONS}
        assert got[ORDERED_CONVENTION] is not got[STRUCTURAL_CONVENTION]
        for convention in CONVENTIONS:
            assert braiding_map(a, b, convention) is got[convention]
            _assert_same_rows(got[convention], braiding_map(replace(a), b, convention))
    # the two conventions differ on V2 (x) V2, and each memo entry keeps its own
    assert braiding_map(v2, v2, ORDERED_CONVENTION) != braiding_map(v2, v2, STRUCTURAL_CONVENTION)


def _check_against_fresh(a, b, convention, expected):
    # b lives only for this call: its id is free again when the call returns
    _assert_same_rows(braiding_map(a, b, convention), expected)


def test_braiding_memo_with_short_lived_right_factors():
    """Right factors built and dropped one after another: a dropped
    factor's id is free for the next one, so a memo keyed by the id alone
    would hand the next factor another pair's map (V1 and W1 have the same
    dimension).  The memo holds each right factor with its map, so every
    map is right."""
    a = replace(build_v(1, 3))
    bases = [build_v(0, 3), build_v(2, 3), build_w(1, 3), build_v(1, 3)]
    expected = {
        (i, convention): braiding_map(replace(a), base, convention)
        for i, base in enumerate(bases)
        for convention in CONVENTIONS
    }
    assert expected[(2, ORDERED_CONVENTION)] != expected[(3, ORDERED_CONVENTION)]
    for i in range(40):
        convention = CONVENTIONS[i // len(bases) % 2]
        _check_against_fresh(a, replace(bases[i % len(bases)]), convention, expected[(i % len(bases), convention)])


def test_braiding_memo_dies_with_its_left_factor():
    """A left factor that no builder shares is freed, memo and all, once
    the caller drops it, also when it is its own right factor or the right
    factor of its own product."""
    a = replace(build_v(1, 3))
    braiding_map(a, build_w(1, 3))
    braiding_map(a, a, STRUCTURAL_CONVENTION)
    braiding_map(tensor(a, a), a)
    alive = weakref.ref(a)
    del a
    gc.collect()
    assert alive() is None


def test_braiding_errors_raise_on_every_call():
    """The mode check and the pairing's refusals run before the memo is
    read: a mode mismatch, F and an unknown convention raise on a repeat
    call as well as on the first, also for a pair whose map is memoised
    under a valid convention."""
    generic = replace(build_v(1, 3))
    quotient_f = _project_corep(generic, AlgebraMode.quotient_f(3))
    braiding_map(generic, generic)
    for _ in range(2):
        with pytest.raises(ValueError, match="different modes"):
            braiding_map(generic, quotient_f)
        with pytest.raises(ValueError, match="not defined on F"):
            braiding_map(quotient_f, quotient_f)
        with pytest.raises(ValueError, match="unknown pairing convention"):
            braiding_map(generic, generic, "sideways")


def test_naturality():
    v0, v1 = build_v(0, 3), build_v(1, 3)
    amb = tensor(v1, v1)
    t = hom_space(v0, amb)[0]
    assert check_naturality(t, v0, amb, v1, STRUCTURAL_CONVENTION)
    assert check_naturality(t, v0, amb, v1, ORDERED_CONVENTION)


# -- order independence of the structural extension -----------------------------

def _structural_first_slot_first(m1, m2, memo):
    """Independent evaluator for the structural rules with the opposite peel
    priority: products in the first slot are expanded before the second."""
    key = (m1, m2)
    if key in memo:
        return memo[key]
    zero = CyclotomicScalar.zero(3)
    one = CyclotomicScalar.one(3)
    table = _generator_table(3)
    gen = {
        "a": NormalMonomial(1, 0, 0),
        "b": NormalMonomial(0, 1, 0),
        "c": NormalMonomial(0, 0, 1),
        "d": NormalMonomial(-1, 0, 0),
    }
    if m1 == UNIT_MONOMIAL:
        out = one if (m2.j == 0 and m2.k == 0) else zero
    elif m2 == UNIT_MONOMIAL:
        out = one if (m1.j == 0 and m1.k == 0) else zero
    elif m1.degree == 1 and m2.degree == 1:
        g1, _ = _first_letter(m1)
        g2, _ = _first_letter(m2)
        out = table.get((g1, g2), zero)
    elif m1.degree > 1:
        g, rest = _first_letter(m1)
        out = zero
        for (y1, y2), c in _coproduct_monomial(GEN3, m2).terms.items():
            left = _structural_first_slot_first(gen[g], y1, memo)
            if left.is_zero():
                continue
            right = _structural_first_slot_first(rest, y2, memo)
            if not right.is_zero():
                out = out + c * left * right
    else:
        g, rest = _first_letter(m2)
        out = zero
        for (x1, x2), c in _coproduct_monomial(GEN3, m1).terms.items():
            # reversed legs: x_(1) pairs the right factor
            left = _structural_first_slot_first(x1, rest, memo)
            if left.is_zero():
                continue
            right = _structural_first_slot_first(x2, gen[g], memo)
            if not right.is_zero():
                out = out + c * left * right
    memo[key] = out
    return out


def monomials_up_to_degree_4():
    from slq2.algebra import monomials_of_degree

    return st.sampled_from(monomials_of_degree(4))


@given(m1=monomials_up_to_degree_4(), m2=monomials_up_to_degree_4())
def test_structural_extension_order_independent(m1, m2):
    pairing = get_pairing(GEN3, STRUCTURAL_CONVENTION)
    memo = {}
    assert pairing.pair_monomials(m1, m2) == _structural_first_slot_first(m1, m2, memo)


def test_ordered_extension_is_order_dependent_on_witness_pair():
    """The documented counterexample: the ordered legs give 3q^2 one way and
    3q the other on (b^2, c^2), so that convention is a deterministic
    evaluation scheme rather than a bilinear form."""
    from slq2.algebra import NormalMonomial
    from slq2.hopf import _coproduct_monomial

    b2 = NormalMonomial(0, 2, 0)
    c2 = NormalMonomial(0, 0, 2)
    ordered = get_pairing(GEN3, ORDERED_CONVENTION)
    second_first = ordered.pair_monomials(b2, c2)
    # expand the first slot first instead, with the same ordered-leg rule
    first_first = CyclotomicScalar.zero(3)
    for (z1, z2), c in _coproduct_monomial(GEN3, c2).terms.items():
        left = ordered.pair_monomials(NormalMonomial(0, 1, 0), z1)
        right = ordered.pair_monomials(NormalMonomial(0, 1, 0), z2)
        first_first = first_first + c * left * right
    q = q_power(3, 1)
    assert second_first == 3 * q
    assert first_first == 3 * q**2
    assert second_first != first_first


# -- bilinearity -------------------------------------------------------------------

@given(data=st.data())
def test_pairing_bilinear(data):
    words = st.lists(st.sampled_from("abcd"), min_size=0, max_size=3).map(tuple)
    x = from_word(GEN3, [(g, 1) for g in data.draw(words)])
    y = from_word(GEN3, [(g, 1) for g in data.draw(words)])
    z = from_word(GEN3, [(g, 1) for g in data.draw(words)])
    c = q_power(3, data.draw(st.integers(min_value=0, max_value=2)))
    assert r_pair(x + y.scale(c), z) == r_pair(x, z) + c * r_pair(y, z)
    assert r_pair(z, x + y.scale(c)) == r_pair(z, x) + c * r_pair(z, y)
