import pytest
from hypothesis import given, strategies as st

from slq2.algebra import AlgebraMode, from_word, generators, multiply, unit
from slq2.braid import (
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
from slq2.cyclo import CyclotomicScalar, q_half_power, q_power
from slq2.verify import REFERENCE_22_CORRECTIONS, reference_braiding_tables

GEN3 = AlgebraMode.generic(3)


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
    from slq2.hopf import _coproduct_monomial
    from slq2.algebra import NormalMonomial

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
    from slq2.algebra import NormalMonomial, UNIT_MONOMIAL
    from slq2.hopf import _coproduct_monomial
    from test_braid_grade import _first_letter, _generator_table

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
