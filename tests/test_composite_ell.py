"""Smoke coverage for composite odd root orders (Phi_ell and the per-ell
reduction tables are built for any odd ell, composite included)."""

from slq2.algebra import AlgebraMode, all_monomials, from_word, multiply, unit
from slq2.cyclo import CyclotomicScalar, cyclotomic_polynomial, q_power
from slq2.hopf import check_hopf_axioms, coinvariance_check


def test_phi9_has_degree_six():
    assert len(cyclotomic_polynomial(9)) - 1 == 6
    lam = CyclotomicScalar.root(9)
    assert lam**9 == 1
    assert all(lam**k != 1 for k in range(1, 9))


def test_rewriting_at_ell9():
    mode = AlgebraMode.generic(9)
    ad = from_word(mode, [("a", 1), ("d", 1)])
    assert ad == unit(mode) + from_word(mode, [("b", 1), ("c", 1)], q_power(9, 1))
    alpha = from_word(mode, [("a", 9)])
    delta = from_word(mode, [("d", 9)])
    beta_gamma = from_word(mode, [("b", 9), ("c", 9)])
    assert multiply(alpha, delta) == unit(mode) + beta_gamma


def test_quotient_and_axioms_at_ell9():
    fmode = AlgebraMode.quotient_f(9)
    assert len(all_monomials(fmode)) == 9**3
    assert from_word(fmode, [("b", 9)]).is_zero()
    assert from_word(fmode, [("a", 9)]) == unit(fmode)
    mode = AlgebraMode.generic(9)
    assert check_hopf_axioms(from_word(mode, [("a", 1), ("c", 2)])).all_ok
    assert coinvariance_check(from_word(mode, [("c", 9)]), fmode)
