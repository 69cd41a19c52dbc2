"""The Hopf axiom sides as summed terms, the reference that the tests check
the zero tests of ``slq2.hopf`` against: each side of coassociativity and
of the antipode axiom is summed into canonical terms with scalar products,
and the sides are compared with ``==``.  It reads the library's memoised
coproducts, antipodes and monomial products, but shares no code with the
zero test ``cyclo._sums_vanish``."""

from slq2.algebra import _mono_mul, _summed, unit
from slq2.hopf import _antipode_monomial, _coproduct_monomial


def delta_on_leg(t, position):
    """The summed terms {(n1, n2, n3): scalar} of (Delta (x) id) t
    (position 0) or (id (x) Delta) t (position 1)."""
    terms = []
    for (m1, m2), c in t.terms.items():
        inner = _coproduct_monomial(t.mode, m1 if position == 0 else m2)
        for (n1, n2), v in inner.terms.items():
            key = (n1, n2, m2) if position == 0 else (m1, n1, n2)
            terms.append((key, c * v))
    return _summed(terms)


def antipode_sides(t):
    """The summed terms of m(S (x) id) t and m(id (x) S) t: c * (v * w) over
    each term c of t, each term v of the S of one leg and each term w of
    its monomial product with the other leg."""
    mode = t.mode
    left, right = [], []
    for (m1, m2), c in t.terms.items():
        for n, v in _antipode_monomial(mode, m1):
            left.extend((mono, c * (v * w)) for mono, w in _mono_mul(mode, n, m2))
        for n, v in _antipode_monomial(mode, m2):
            right.extend((mono, c * (v * w)) for mono, w in _mono_mul(mode, m1, n))
    return _summed(left), _summed(right)


def coassociative(t) -> bool:
    return delta_on_leg(t, 0) == delta_on_leg(t, 1)


def antipodal(t, eps) -> bool:
    """Both antipode sides of t equal eps times the unit."""
    target = unit(t.mode).scale(eps).terms
    return antipode_sides(t) == (target, target)
