"""Acceptance gate: the ten headline claims, one per criterion, all exact.

Every claim is computed by ``slq2.verify`` (shared with the CLI ``verify``
subcommand) and must pass with zero tolerance; one PASS/FAIL line prints
per criterion."""

import inspect

import pytest

from slq2 import verify

CLAIMS = [
    ("braiding tables", verify.claim_braiding_tables),
    ("eigenstructure of the V1-V1 braiding", verify.claim_braiding_eigenstructure),
    ("spin-statistics signs", verify.claim_spin_statistics),
    ("braid relation and hexagons", verify.claim_braid_hexagon),
    ("ell=3 tensor decompositions", verify.claim_tensor_decomposition_l3),
    ("irreducibility and filtration certificates", verify.claim_irreducibility_certificates),
    ("q-binomial factorization", verify.claim_qbinomial_factorization),
    ("Hopf axioms and rewriting confluence", verify.claim_hopf_axioms_confluence),
    ("finite quotient structure", verify.claim_finite_quotient_structure),
    ("coinvariance of the ell-th powers", verify.claim_coinvariance),
]


@pytest.fixture(scope="module")
def results():
    out = {}
    for label, fn in CLAIMS:
        res = fn()
        out[label] = res
        print(f"{'PASS' if res.passed else 'FAIL'}  {label}  [{res.claim_id}]")
    return out


@pytest.mark.parametrize("label", [label for label, _ in CLAIMS])
def test_criterion(results, label):
    res = results[label]
    assert res.passed, f"{label} failed: {res.witness}"


def test_every_claim_takes_its_root_orders(results):
    """One claim signature, ``(ells=<default>)``, with the default within the
    claim's largest ell; a claim asked for an ell above it is skipped under
    the id it reports when it runs."""
    ids = {fn: results[label].claim_id for label, fn in CLAIMS}
    assert set(ids) == {row.claim for row in verify.CLAIMS}
    for row in verify.CLAIMS:
        params = inspect.signature(row.claim).parameters
        assert list(params) == ["ells"]
        assert max(params["ells"].default) <= row.largest_ell
    report = verify.run_suite("all", ells=(23,))
    assert [c.claim_id for c in report.claims] == [ids[row.claim] for row in verify.CLAIMS]
    assert all(c.skipped and not c.passed and c.status == "skip" for c in report.claims)
    assert report.all_passed
