"""The shape rule of the pairing, and braiding_map against the unpruned
computation.

For PBW monomials x = a^t b^j c^k and y = a^t' b^j' c^k', R(x, y)
vanishes unless k = 0, j' = 0 and j = k': no c in the first slot, no b in
the second, and the first slot's b-count equals the second slot's c-count.
So ``braiding_map`` pairs each c-free term of B's entries only with the
b-free A-terms whose c-count is its b-count, and ``Pairing`` answers zero
for a pair off that shape without recursing.  The rule implies the older
grade rule: with gamma(a^t b^j c^k) = k - j, gamma(x) + gamma(y) = 0, which
is still checked on its own.  The reference below is the computation
without either rule: the double loop over every pair of nonzero entries
and every pair of their terms, and the pairing recursion that peels every
pair it is given.  That recursion is also the oracle of the closed form
that ``Pairing`` evaluates, and it pins why F (a^ell = 1) has no pairing.
The library pairs only in the generic algebra and Fhat, so those are the
modes compared here.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from slq2.algebra import (
    GENERATOR_MONOMIALS,
    AlgebraElement,
    UNIT_MONOMIAL,
    AlgebraMode,
    NormalMonomial,
    _reduce_mono,
    from_word,
    monomial_element,
    monomials_of_degree,
    multiply,
    project,
    zero,
)
from slq2.braid import (
    CONVENTIONS,
    ORDERED_CONVENTION,
    STRUCTURAL_CONVENTION,
    _beta,
    braiding_map,
    get_pairing,
    r_pair,
)
from slq2.corep import Corep, build_v, build_w, tensor, verify_corep
from slq2.cyclo import CyclotomicScalar, q_half_power, q_power
from slq2.hopf import _coproduct_monomial
from slq2.linalg import ScalarMatrix, SparseMatrix, inverse

from dense_reference import dense_identity

# the modes with a pairing; F has none (test_f_has_no_pairing)
KINDS = ("generic", "Fhat")
# The recursion of the reference runs in every mode, F included: it vanishes
# off grade and off shape there too, and braiding_map is checked to refuse F.
REFERENCE_KINDS = ("generic", "F", "Fhat")


def _grade(m):
    return m.k - m.j


def _has_shape(m1, m2):
    """R(m1, m2) may be nonzero: m1 c-free, m2 b-free, b-count of m1 = c-count of m2."""
    return m1.k == 0 and m2.j == 0 and m1.j == m2.k


# -- reference: the pairing recursion and braiding loop without the rule ----------

def _generator_table(ell: int) -> dict[tuple[str, str], CyclotomicScalar]:
    s = q_half_power
    w = s(ell, -1) - s(ell, 3)
    return {
        ("a", "a"): s(ell, -1),
        ("a", "d"): s(ell, 1),
        ("d", "a"): s(ell, 1),
        ("d", "d"): s(ell, -1),
        ("b", "c"): w,
    }


def _first_letter(mono: NormalMonomial) -> tuple[str, NormalMonomial]:
    """Split a non-unit monomial as (leading generator, rest) in PBW order."""
    t, j, k = mono
    if t > 0:
        return "a", NormalMonomial(t - 1, j, k)
    if j > 0:
        return "b", NormalMonomial(t, j - 1, k)
    if k > 0:
        return "c", NormalMonomial(t, j, k - 1)
    return "d", NormalMonomial(t + 1, j, k)


class ReferencePairing:
    """The pairing as the rules of ``slq2.braid`` define it: the generator
    table, R(1, y) = eps(y), the second-slot rule of the convention and the
    first-slot rule, peeling the second slot first; memoised."""

    def __init__(self, mode, convention):
        self.mode = mode
        self.convention = convention
        self.memo = {}
        self.table = _generator_table(mode.ell)

    def pair(self, x, y):
        total = CyclotomicScalar.zero(self.mode.ell)
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                val = self.pair_monomials(m1, m2)
                if not val.is_zero():
                    total = total + c1 * c2 * val
        return total

    def pair_monomials(self, m1, m2):
        cached = self.memo.get((m1, m2))
        if cached is not None:
            return cached
        value = self._compute(m1, m2)
        self.memo[(m1, m2)] = value
        return value

    def _compute(self, m1, m2):
        ell = self.mode.ell
        zero_s = CyclotomicScalar.zero(ell)
        one = CyclotomicScalar.one(ell)
        if m1 == UNIT_MONOMIAL:
            return one if (m2.j == 0 and m2.k == 0) else zero_s
        if m2 == UNIT_MONOMIAL:
            return one if (m1.j == 0 and m1.k == 0) else zero_s
        if m1.degree == 1 and m2.degree == 1:
            g1, _ = _first_letter(m1)
            g2, _ = _first_letter(m2)
            return self.table.get((g1, g2), zero_s)
        if m2.degree > 1:
            return self._peel_second(m1, m2)
        return self._peel_first(m1, m2)

    def _peel_second(self, m1, m2):
        g, rest = _first_letter(m2)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        reversed_legs = self.convention == STRUCTURAL_CONVENTION
        for (x1, x2), c in _coproduct_monomial(self.mode, m1).terms.items():
            if reversed_legs:
                left = self.pair_monomials(x1, rest)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, gm)
            else:
                left = self.pair_monomials(x1, gm)
                if left.is_zero():
                    continue
                right = self.pair_monomials(x2, rest)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total

    def _peel_first(self, m1, m2):
        g, rest = _first_letter(m1)
        gm = GENERATOR_MONOMIALS[g]
        total = CyclotomicScalar.zero(self.mode.ell)
        for (y1, y2), c in _coproduct_monomial(self.mode, m2).terms.items():
            left = self.pair_monomials(gm, y1)
            if left.is_zero():
                continue
            right = self.pair_monomials(rest, y2)
            if right.is_zero():
                continue
            total = total + c * left * right
        return total


_REFERENCES = {}


def reference_pairing(mode, convention):
    key = (mode, convention)
    if key not in _REFERENCES:
        _REFERENCES[key] = ReferencePairing(mode, convention)
    return _REFERENCES[key]


def reference_braiding_map(a, b, convention):
    pairing = reference_pairing(a.mode, convention)
    out = ScalarMatrix.zeros(a.ell, a.dim * b.dim, b.dim * a.dim)
    for i in range(a.dim):
        for r in range(b.dim):
            row = i * b.dim + r
            for s in range(b.dim):
                brs = b.rho[r][s]
                if brs.is_zero():
                    continue
                for j in range(a.dim):
                    aij = a.rho[i][j]
                    if aij.is_zero():
                        continue
                    val = pairing.pair(brs, aij)
                    if not val.is_zero():
                        out.data[row][s * a.dim + j] = val
    return out


# -- coreps in every mode, and one in a non-weight basis ------------------------

def _in_mode(c: Corep, kind: str) -> Corep:
    mode = AlgebraMode(kind, c.ell)
    if mode == c.mode:
        return c
    rho = [[project(mode, e) for e in row] for row in c.rho]
    return Corep(mode, c.dim, c.basis_labels, rho, c.family)


def _conjugate(c: Corep, u: ScalarMatrix) -> Corep:
    """U rho U^-1: the coaction in the basis w_i = sum_k U[i][k] v_k."""
    n, u_inv = range(c.dim), inverse(SparseMatrix.from_dense(u)).dense().data
    u_rho = [[sum((c.rho[k][j].scale(u.data[i][k]) for k in n), zero(c.mode)) for j in n] for i in n]
    rho = [[sum((u_rho[i][k].scale(u_inv[k][j]) for k in n), zero(c.mode)) for j in n] for i in n]
    return Corep(c.mode, c.dim, [f"w{i}" for i in range(c.dim)], rho, f"{c.family}^U")


def _unitriangular(ell: int, dim: int) -> ScalarMatrix:
    u = dense_identity(ell, dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            u.data[i][j] = q_power(ell, i + 2 * j) + CyclotomicScalar.from_rational(ell, j - i)
    return u


def _factor(spec: str, ell: int, kind: str) -> Corep:
    if spec == "V1xV1":
        base = tensor(build_v(1, ell), build_v(1, ell))
    elif spec == "V1^U":
        base = _conjugate(build_v(1, ell), _unitriangular(ell, 2))
    elif spec == "V2^U":
        base = _conjugate(build_v(2, ell), _unitriangular(ell, 3))
    elif spec.startswith("V"):
        base = build_v(int(spec[1:]), ell)
    else:
        base = build_w(int(spec[1:]), ell)
    return _in_mode(base, kind)


SPECS = ("V0", "V1", "V2", "W1", "V1xV1", "V1^U", "V2^U")
ELLS = (3, 5, 7)


def test_conjugated_coreps_are_coreps_with_mixed_grades():
    for ell in ELLS:
        for spec in ("V1^U", "V2^U"):
            c = _factor(spec, ell, "generic")
            assert verify_corep(c).ok
            assert c.torus_weights() is None
            grades = [{_grade(m) for m in e.terms} for row in c.rho for e in row]
            assert any(len(g) > 1 for g in grades)


@settings(max_examples=40, deadline=None)
@given(
    ell=st.sampled_from(ELLS),
    kind=st.sampled_from(KINDS),
    convention=st.sampled_from(CONVENTIONS),
    left=st.sampled_from(SPECS),
    right=st.sampled_from(SPECS),
)
def test_braiding_map_matches_unpruned_reference(ell, kind, convention, left, right):
    a = _factor(left, ell, kind)
    b = _factor(right, ell, kind)
    assert braiding_map(a, b, convention).dense() == reference_braiding_map(a, b, convention)


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_every_spec_and_mode_matches_reference_at_ell_3(kind, convention):
    """In F, which has no pairing (test_f_has_no_pairing), braiding_map
    refuses every pair of specs and names Fhat."""
    for left, right in product(SPECS, repeat=2):
        a = _factor(left, 3, kind)
        b = _factor(right, 3, kind)
        if kind == "F":
            with pytest.raises(ValueError, match="Fhat"):
                braiding_map(a, b, convention)
            continue
        assert braiding_map(a, b, convention).dense() == reference_braiding_map(a, b, convention), (left, right)


# -- the lemma: non-cancelling pairs vanish ------------------------------------

def _normal_monomials(mode: AlgebraMode, max_degree: int):
    out = []
    for m in monomials_of_degree(max_degree):
        if mode.is_quotient and (m.t < 0 or _reduce_mono(mode, m) != m):
            continue
        out.append(m)
    return out


# The lemmas below are statements about the recursion, which vanishes off
# grade and off shape in every mode, F included; the closed form is compared
# with it wherever a pairing exists.

def _closed_form(mode: AlgebraMode, convention: str):
    """The library's pairing of ``mode``, or None in F, where it is refused."""
    if mode.kind == "F":
        with pytest.raises(ValueError, match="Fhat"):
            get_pairing(mode, convention)
        return None
    return get_pairing(mode, convention)


@pytest.mark.parametrize("ell", (3, 5))
@pytest.mark.parametrize("kind", REFERENCE_KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reference_pairing_vanishes_off_grade(ell, kind, convention):
    mode = AlgebraMode(kind, ell)
    reference = reference_pairing(mode, convention)
    pairing = _closed_form(mode, convention)
    for m1, m2 in product(_normal_monomials(mode, 4), repeat=2):
        value = reference.pair_monomials(m1, m2)
        if _grade(m1) + _grade(m2):
            assert value.is_zero(), (m1, m2)
        if pairing is not None:
            assert pairing.pair_monomials(m1, m2) == value


def _monomials(c: Corep) -> set:
    return {m for row in c.rho for e in row for m in e.terms}


def _braided_term_pairs(convention: str):
    """Braid a few factor pairs both ways at every ell, in the generic algebra
    and Fhat, checking each table against the unpruned reference and that the
    pairing memo stays empty (the closed form memoises nothing).  Yields
    (ell, kind, x, y, paired, value) for every monomial x of B's entries (first
    slot) and y of A's entries (second slot): ``paired`` when braiding_map
    pairs them, which is when x = a^t b^n and y = a^t' c^n with n < ell, and
    ``value`` the recursion's R(x, y)."""
    for ell in ELLS:
        for kind in KINDS:
            mode = AlgebraMode(kind, ell)
            reference = reference_pairing(mode, convention)
            for left, right in (("V2^U", "W1"), ("V1xV1", "V2"), ("V1^U", "V1^U"), ("W1", "W1")):
                l, r = _factor(left, ell, kind), _factor(right, ell, kind)
                for a, b in ((l, r), (r, l)):
                    assert braiding_map(a, b, convention).dense() == reference_braiding_map(a, b, convention)
                    for x, y in product(_monomials(b), _monomials(a)):
                        paired = x.k == 0 and y.j == 0 and x.j == y.k < ell
                        yield ell, kind, x, y, paired, reference.pair_monomials(x, y)
            assert not get_pairing(mode, convention)._memo


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_braiding_pairs_exactly_the_nonvanishing_term_pairs(convention):
    """The pairs braiding_map pairs are exactly those on which the recursion
    is nonzero: every skipped pair vanishes, whether off grade, off shape or
    of grade n >= ell, and every paired one counts."""
    counts = {"paired": 0, "off grade": 0, "off shape": 0, "n >= ell": 0}
    for ell, kind, x, y, paired, value in _braided_term_pairs(convention):
        assert paired != value.is_zero(), (ell, kind, x, y)
        if paired:
            counts["paired"] += 1
        elif _grade(x) + _grade(y):
            counts["off grade"] += 1
        elif not _has_shape(x, y):
            counts["off shape"] += 1
        else:
            counts["n >= ell"] += 1
    assert all(counts.values()), counts


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_memo_holds_only_cancelling_keys(convention):
    """The memo stays empty, and braiding_map pairs only term pairs whose
    grades cancel: it skips every off-grade pair, where the recursion
    vanishes."""
    cancelling = off_grade = 0
    for ell, kind, x, y, paired, value in _braided_term_pairs(convention):
        if _grade(x) + _grade(y):
            off_grade += 1
            assert not paired and value.is_zero(), (ell, kind, x, y)
        elif paired:
            cancelling += 1
    assert cancelling and off_grade


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_memo_holds_only_keys_of_the_shape(convention):
    """The memo stays empty, and braiding_map pairs only term pairs of the
    shape (no c first, no b second, as many b's first as c's second): it
    skips every off-shape pair, where the recursion vanishes."""
    shaped = off_shape = 0
    for ell, kind, x, y, paired, value in _braided_term_pairs(convention):
        if not _has_shape(x, y):
            off_shape += 1
            assert not paired and value.is_zero(), (ell, kind, x, y)
        elif paired:
            shaped += 1
    assert shaped and off_shape


# -- the shape rule: no c first, no b second, b-count first = c-count second ----

@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("kind", REFERENCE_KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reference_pairing_vanishes_off_shape(ell, kind, convention):
    mode = AlgebraMode(kind, ell)
    reference = reference_pairing(mode, convention)
    pairing = _closed_form(mode, convention)
    off_shape = 0
    for m1, m2 in product(_normal_monomials(mode, 4), repeat=2):
        value = reference.pair_monomials(m1, m2)
        if not _has_shape(m1, m2):
            off_shape += 1
            assert value.is_zero(), (m1, m2)
        if pairing is not None:
            assert pairing.pair_monomials(m1, m2) == value, (m1, m2)
    assert off_shape


# -- the closed form against the recursion ---------------------------------------

def _shaped_pairs(mode: AlgebraMode, grades, t_max: int):
    """The pairs (a^t b^n, a^t' c^n) for n in ``grades``: |t|, |t'| <= t_max in
    the generic algebra, every 0 <= t, t' < 2 ell in Fhat (a^(2 ell) = 1)."""
    ts = range(2 * mode.ell) if mode.kind == "Fhat" else range(-t_max, t_max + 1)
    for n in grades:
        for t, t2 in product(ts, repeat=2):
            yield NormalMonomial(t, n, 0), NormalMonomial(t2, 0, n)


def _assert_closed_form_matches(mode: AlgebraMode, convention: str, pairs) -> int:
    reference = reference_pairing(mode, convention)
    pairing = get_pairing(mode, convention)
    checked = 0
    for x, y in pairs:
        assert pairing.pair_monomials(x, y) == reference.pair_monomials(x, y), (mode, convention, x, y)
        checked += 1
    return checked


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_closed_form_matches_the_recursion(ell, kind, convention):
    """Every shaped pair of monomials of degree at most 2 ell (n < ell)."""
    mode = AlgebraMode(kind, ell)
    pairs = [(x, y) for x, y in _shaped_pairs(mode, range(ell), 2 * ell) if max(x.degree, y.degree) <= 2 * ell]
    assert _assert_closed_form_matches(mode, convention, pairs)


@pytest.mark.parametrize("ell", (3, 5))
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_closed_form_vanishes_from_grade_ell(ell, convention):
    """Grades ell <= n < 3 ell of the generic algebra (b^ell = 0 in Fhat):
    [n]_{q^-2}! holds [ell]_{q^-2} = 0, and the recursion agrees."""
    mode = AlgebraMode.generic(ell)
    reference = reference_pairing(mode, convention)
    pairs = list(_shaped_pairs(mode, range(ell, 3 * ell), 2))
    assert all(reference.pair_monomials(x, y).is_zero() for x, y in pairs)
    assert _assert_closed_form_matches(mode, convention, pairs)


@pytest.mark.parametrize("ell", (9, 15))
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_closed_form_matches_the_recursion_at_composite_ell(ell, convention):
    """Samples at composite ell: in the generic algebra the low grades, the
    last nonzero one and the first zero one; in Fhat, where the recursion
    grows fastest, the low grades at a few powers of a on each side."""
    generic = AlgebraMode.generic(ell)
    assert _assert_closed_form_matches(generic, convention, _shaped_pairs(generic, (0, 1, 2, ell - 1, ell), 2))
    fhat = AlgebraMode.quotient_fhat(ell)
    pairs = [(x, y) for x, y in _shaped_pairs(fhat, (0, 1, 2), 0) if x.t in (0, 1, ell, 2 * ell - 1) and y.t in (0, 2, ell + 1)]
    assert _assert_closed_form_matches(fhat, convention, pairs)


# -- F has no pairing -------------------------------------------------------------

@pytest.mark.parametrize("ell", (3, 5))
def test_f_has_no_pairing(ell):
    """In F, a a^(ell-1) = 1, so R(a a^(ell-1), a) = R(1, a) = 1, but the
    first-slot rule gives R(a, a) R(a^(ell-1), a) = s^-ell = -1; in Fhat
    a a^(ell-1) = a^ell and both sides are -1.  So ``get_pairing`` and
    ``braiding_map`` refuse F and name Fhat."""
    a = GENERATOR_MONOMIALS["a"]
    rest = NormalMonomial(ell - 1, 0, 0)
    for convention in CONVENTIONS:
        for kind, whole in (("F", 1), ("Fhat", -1)):
            mode = AlgebraMode(kind, ell)
            reference = reference_pairing(mode, convention)
            product_ = from_word(mode, [("a", 1), ("a", ell - 1)])
            split = sum(
                (c * reference.pair_monomials(a, y1) * reference.pair_monomials(rest, y2)
                 for (y1, y2), c in _coproduct_monomial(mode, a).terms.items()),
                CyclotomicScalar.zero(ell),
            )
            assert reference.pair(product_, from_word(mode, [("a", 1)])) == whole
            assert split == -1
        f_mode = AlgebraMode("F", ell)
        with pytest.raises(ValueError, match="Fhat"):
            get_pairing(f_mode, convention)
        with pytest.raises(ValueError, match="Fhat"):
            r_pair(from_word(f_mode, [("a", 1)]), from_word(f_mode, [("d", 1)]), convention)
        for left, right in (("V1", "V1"), ("V2^U", "W1")):
            with pytest.raises(ValueError, match="Fhat"):
                braiding_map(_factor(left, ell, "F"), _factor(right, ell, "F"), convention)



def _first_slot_rule_failures(ell: int, convention: str):
    """The triples (u, w, y) of generic monomials of degree <= 2 on which
    R(u w, y) differs from sum R(u, y_(1)) R(w, y_(2)), and how many
    triples there are."""
    mode = AlgebraMode("generic", ell)
    pairing = get_pairing(mode, convention)
    monos = monomials_of_degree(2)
    failures = []
    for y in monos:
        legs = _coproduct_monomial(mode, y).terms.items()
        for u, w in product(monos, repeat=2):
            rule = sum(
                (c * pairing.pair_monomials(u, m1) * pairing.pair_monomials(w, m2) for (m1, m2), c in legs),
                CyclotomicScalar.zero(ell),
            )
            uw = multiply(monomial_element(mode, u), monomial_element(mode, w))
            if pairing.pair(uw, monomial_element(mode, y)) != rule:
                failures.append((u, w, y))
    return failures, len(monos) ** 3


@pytest.mark.parametrize("ell", (3, 5))
def test_only_structural_values_keep_the_first_slot_rule(ell):
    """The recursion of both conventions peels the first slot by the
    order-preserving rule, but only the structural values satisfy it (the
    module docstring's counts)."""
    assert _first_slot_rule_failures(ell, STRUCTURAL_CONVENTION) == ([], 2744)
    failures, total = _first_slot_rule_failures(ell, ORDERED_CONVENTION)
    assert (len(failures), total) == (9, 2744)
    b, c2 = NormalMonomial(0, 1, 0), NormalMonomial(0, 0, 2)
    assert (b, b, c2) in failures
    if ell == 3:
        pairing = get_pairing(AlgebraMode("generic", 3), ORDERED_CONVENTION)
        assert pairing.pair_monomials(NormalMonomial(0, 2, 0), c2) == 3 * q_power(3, 1)


@st.composite
def _element_pairs(draw):
    """Two random elements of one mode: up to five normal monomials of degree
    <= 3 each, with coefficients r q^k."""
    mode = AlgebraMode(draw(st.sampled_from(KINDS)), draw(st.sampled_from(ELLS)))
    monos = _normal_monomials(mode, 3)

    def element():
        terms = {}
        for m in draw(st.lists(st.sampled_from(monos), max_size=5, unique=True)):
            r = draw(st.integers(-3, 3).filter(bool))
            terms[m] = q_power(mode.ell, draw(st.integers(0, 2 * mode.ell))) * CyclotomicScalar.from_rational(mode.ell, r)
        return AlgebraElement(mode, terms)

    return element(), element()


@settings(max_examples=60, deadline=None)
@given(pair=_element_pairs(), convention=st.sampled_from(CONVENTIONS))
def test_r_pair_matches_unpruned_reference(pair, convention):
    x, y = pair
    assert r_pair(x, y, convention) == reference_pairing(x.mode, convention).pair(x, y)


# -- braiding_map against the loop it replaced ------------------------------------

def _braiding_reference(a, b, convention):
    """braiding_map's earlier loop: per term pair c2 * c1, then the shift by
    the unit s^phi, then an add into the cell.  Returns the table and how
    often each path of the scalar product ``times_half_power`` is taken,
    told apart by the unit slots of the two coefficients as braiding_map
    passes them ("unit.general" has a unit first-slot coefficient c2),
    "filled", the pairs that land in a cell an earlier pair wrote, and
    "cancelled", the written cells whose sum is zero."""
    pairing = get_pairing(a.mode, convention)
    ell, sign = a.ell, pairing.sign
    out = ScalarMatrix.zeros(ell, a.dim * b.dim, b.dim * a.dim)
    branches = dict.fromkeys(("unit.unit", "unit.general", "general.unit", "general.general", "filled"), 0)
    written = set()
    for (n, k), b_terms in b.axis_terms.items():
        a_terms = None if k or n >= ell else a.axis_terms.get((0, n))
        if not a_terms:
            continue
        beta = _beta(ell, n)
        first = [(r, s, m.t, c, n * (abs(m.t) + n - 1)) for r, s, m, c in b_terms]
        second = [(i, j, m.t, c, n * sign * abs(m.t)) for i, j, m, c in a_terms]
        if n:
            shorter = first if len(first) <= len(second) else second
            shorter[:] = [(x, y, t, c * beta, e) for x, y, t, c, e in shorter]
        for r, s, t2, c2, e2 in first:
            for i, j, t1, c1, e1 in second:
                val = c2 * c1
                phi = (e1 + e2 - t1 * t2) % (2 * ell)
                if phi:
                    val = val * q_half_power(ell, phi)
                row, col = i * b.dim + r, s * a.dim + j
                out.data[row][col] = out.data[row][col] + val
                classes = ["general" if c._unit is None else "unit" for c in (c2, c1)]
                branches[".".join(classes)] += 1
                branches["filled"] += (row, col) in written
                written.add((row, col))
    branches["cancelled"] = sum(1 for row, col in written if out.data[row][col].is_zero())
    return out, branches


def _assert_matches_reference(pairs, convention) -> dict:
    """braiding_map equals the earlier loop entry for entry (numerators and
    denominator) on every (A, B) of ``pairs``; returns the branch counts."""
    total = {}
    for a, b in pairs:
        reference, branches = _braiding_reference(a, b, convention)
        assert braiding_map(a, b, convention).dense().data == reference.data, (a.family, b.family, convention)
        for key, count in branches.items():
            total[key] = total.get(key, 0) + count
    return total


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_braiding_map_matches_the_unfused_loop(ell, kind, convention):
    """Every pair of SPECS, among them V1xV1, V1^U and V2^U, whose term pairs
    share cells; all four branches, an add into a filled cell and a cell
    that cancels occur."""
    factors = [_factor(spec, ell, kind) for spec in SPECS]
    branches = _assert_matches_reference(product(factors, repeat=2), convention)
    assert all(branches.values()), branches


@pytest.mark.parametrize("ell", (9, 15))
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_braiding_map_matches_the_unfused_loop_at_composite_ell(ell, convention):
    """V_m (x) V_m' for m, m' <= 3, in the generic algebra and Fhat: a weight
    basis, so no two term pairs share a cell, but all four branches occur."""
    for kind in KINDS:
        factors = [_in_mode(build_v(m, ell), kind) for m in range(4)]
        branches = _assert_matches_reference(product(factors, repeat=2), convention)
        assert all(count for key, count in branches.items() if key not in ("filled", "cancelled")), branches


@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_braiding_map_stores_no_zero_entry(ell, kind, convention):
    """braiding_map fills sparse rows and drops a cell whose sum cancels,
    so on every pair of SPECS it holds no zero, equals the earlier loop's
    dense table after ``.dense()``, and equals that table's sparse rows;
    V1^U and V2^U, outside a weight basis, have cells that cancel."""
    factors = [_factor(spec, ell, kind) for spec in SPECS]
    cancelled = 0
    for a, b in product(factors, repeat=2):
        got = braiding_map(a, b, convention)
        reference, branches = _braiding_reference(a, b, convention)
        assert all(x for row in got.data for x in row.values()), (a.family, b.family)
        assert got.dense() == reference
        assert got == SparseMatrix.from_dense(reference)
        cancelled += branches["cancelled"]
    assert cancelled
