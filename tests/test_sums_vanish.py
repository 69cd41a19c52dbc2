"""The exact zero test ``cyclo._sums_vanish`` and the two Hopf axiom checks
built on it (``hopf._coassociativity_holds``, ``hopf._antipode_holds``),
against sums of scalar products and against the summed-term sides of
``hopf_reference``.

The tensors are arbitrary, not only coproducts, so both verdicts occur.
Coefficients are fractional, perturbed by +-1 or above 2^64, and ell runs
over primes and the composites 9, 15 and 21.  The last test narrows the
Kronecker width and shows that the bound is load-bearing."""

from fractions import Fraction

import pytest
from hypothesis import event, given, strategies as st

from slq2 import cyclo, hopf
from slq2.algebra import AlgebraMode, NormalMonomial, from_word, generator, monomial_element, zero
from slq2.cyclo import CyclotomicScalar, _sums_vanish, q_power
from slq2.hopf import TensorElement, coproduct, counit, tensor_of

from hopf_reference import antipodal, coassociative

ELLS = (3, 5, 7, 9, 15, 21)
MODES = [AlgebraMode(kind, ell) for kind in ("generic", "F", "Fhat") for ell in (3, 5, 9, 15, 21)]

numerators = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
denominators = st.integers(1, 3) | st.just(2**65 + 1)


@st.composite
def scalars(draw, ell):
    """A nonzero sum of up to three terms n/m q^k, fractional or above 2^64."""
    total = CyclotomicScalar.zero(ell)
    for _ in range(draw(st.integers(1, 3))):
        n = Fraction(draw(numerators), draw(denominators))
        total = total + CyclotomicScalar.from_rational(ell, n) * q_power(ell, draw(st.integers(0, ell - 1)))
    return total if total else CyclotomicScalar.one(ell)


def _vanish(ell, pools, terms):
    """``_sums_vanish`` on terms given as rows (key, sign, i_1, ..., i_k)."""
    columns = [list(column) for column in zip(*terms)] or [[] for _ in range(len(pools) + 2)]
    return _sums_vanish(ell, pools, columns[0], columns[1], columns[2:])


def _scalar_sums(ell, pools, terms):
    """{key: sum of sign * product} by scalar arithmetic, the oracle."""
    sums = {}
    for key, sign, *indices in terms:
        product = CyclotomicScalar.from_rational(ell, sign)
        for pool, i in zip(pools, indices):
            product = product * pool[i]
        sums[key] = sums.get(key, CyclotomicScalar.zero(ell)) + product
    return sums


@given(st.data())
def test_sums_vanish_matches_the_scalar_sums(data):
    ell = data.draw(st.sampled_from(ELLS), label="ell")
    k = data.draw(st.integers(1, 3), label="k")
    one = CyclotomicScalar.one(ell)
    pools = [data.draw(st.lists(scalars(ell), min_size=1, max_size=4)) + [one] for _ in range(k)]
    ones = tuple(len(pool) - 1 for pool in pools)
    factor = [st.integers(0, len(pool) - 1) for pool in pools]
    terms = data.draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1)), *factor), max_size=10))
    # cancel the sums at some keys by one more term each, so zero sums occur
    # that only the reduction modulo Phi_ell sees, then perturb one key by +-1
    sums = _scalar_sums(ell, pools, terms)
    for key in data.draw(st.sets(st.sampled_from(sorted(sums)))) if sums else ():
        pools[0].append(sums[key])
        terms.append((key, -1, len(pools[0]) - 1, *ones[1:]))
    if data.draw(st.booleans(), label="perturbed"):
        terms.append((data.draw(st.integers(0, 2)), data.draw(st.sampled_from((1, -1))), *ones))
    expected = not any(_scalar_sums(ell, pools, terms).values())
    event(f"vanishes: {expected}")
    assert _vanish(ell, pools, terms) == expected


def test_sums_vanish_edge_cases():
    zero_, one = CyclotomicScalar.zero(5), CyclotomicScalar.one(5)
    assert _vanish(5, ([one], [one]), [])
    assert _vanish(5, ([zero_],), [("k", 1, 0)])
    assert not _vanish(5, ([one],), [("k", 1, 0)])
    # 1 + q + ... + q^(ell-1) = 0 at every ell, prime or not
    for ell in ELLS:
        powers = [q_power(ell, i) for i in range(ell)]
        terms = [("k", 1, i) for i in range(ell)]
        assert _vanish(ell, (powers,), terms)
        assert not _vanish(ell, (powers,), terms[1:])
    with pytest.raises(ValueError, match="2 pools need 2 index columns"):
        _sums_vanish(5, ([one], [one]), ["k"], [1], [[0]])
    with pytest.raises(ValueError, match="as long as the 1 keys"):
        _sums_vanish(5, ([one],), ["k"], [1, 1], [[0]])


@st.composite
def elements(draw, mode, max_terms=2):
    x = zero(mode)
    for mono in draw(st.lists(st.builds(NormalMonomial, st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2)),
                              max_size=max_terms, unique=True)):
        x = x + monomial_element(mode, mono, draw(scalars(mode.ell)))
    return x


@st.composite
def tensors_and_counits(draw, mode):
    """A coproduct with its counit, the same with one coefficient moved by
    +-1, a sum of pure tensors, or the empty tensor; the counit of the
    last three is drawn, 0 included."""
    kind = draw(st.sampled_from(("coproduct", "perturbed", "arbitrary", "empty")))
    if kind == "empty":
        return TensorElement(mode, {}), draw(st.just(CyclotomicScalar.zero(mode.ell)) | scalars(mode.ell))
    if kind == "arbitrary":
        t = tensor_of(draw(elements(mode)), draw(elements(mode)))
        t = t + tensor_of(draw(elements(mode)), draw(elements(mode)))
        return t, draw(st.just(CyclotomicScalar.zero(mode.ell)) | scalars(mode.ell))
    x = draw(elements(mode))
    t = coproduct(x)
    if kind == "perturbed" and t.terms:
        terms = dict(t.terms)
        key = draw(st.sampled_from(sorted(terms)))
        moved = terms[key] + draw(st.sampled_from((1, -1)))
        terms[key] = moved
        t = TensorElement(mode, {k: v for k, v in terms.items() if v})
    return t, counit(x)


@given(st.data())
def test_the_axiom_checks_match_the_summed_terms(data):
    mode = data.draw(st.sampled_from(MODES), label="mode")
    t, eps = data.draw(tensors_and_counits(mode))
    coassoc, antipode = coassociative(t), antipodal(t, eps)
    event(f"coassociative: {coassoc}, antipodal: {antipode}")
    assert hopf._coassociativity_holds(t) == coassoc
    assert hopf._antipode_holds(t, eps) == antipode


@pytest.mark.parametrize("ell", (3, 9, 15, 21))
def test_a_coproduct_holds_and_its_perturbation_does_not(ell):
    for mode in (AlgebraMode.generic(ell), AlgebraMode.quotient_f(ell)):
        x = from_word(mode, [("a", 1), ("b", 1)])
        dx, eps = coproduct(x), counit(x)
        assert hopf._coassociativity_holds(dx) and hopf._antipode_holds(dx, eps)
        (key, c), *rest = dx.terms.items()
        moved = TensorElement(mode, {key: c + 1, **dict(rest)})
        assert not coassociative(moved) and not hopf._coassociativity_holds(moved)
        assert hopf._antipode_holds(moved, eps) == antipodal(moved, eps)
        assert not hopf._antipode_holds(dx, eps + 1)


def test_a_narrow_width_misjudges_a_nonvanishing_sum(monkeypatch):
    # Delta(a) + 7 a (x) a is not coassociative: its sides differ by
    # 7 (Delta(a) (x) a - a (x) Delta(a)).  At ell 3 and X = 2^1,
    # Phi_3(X) = 7 divides every packed difference, so a width of one bit
    # calls the sum zero.
    mode = AlgebraMode.generic(3)
    a = generator(mode, "a")
    t = coproduct(a) + tensor_of(a, a).scale(7)
    assert not coassociative(t)
    assert not hopf._coassociativity_holds(t)
    monkeypatch.setattr(cyclo, "_width", lambda ell, k, bound: 1)
    assert hopf._coassociativity_holds(t)
