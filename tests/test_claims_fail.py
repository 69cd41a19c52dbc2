"""Every claim of ``slq2.verify`` can fail.

With one dependency in ``verify``'s namespace made wrong, each claim of
``verify.CLAIMS`` reports status "fail" with a JSON-serialisable witness
that records the failure; a claim that could never fail would pass
unnoticed.  The W1 embedding into the Y3 cube likewise rejects maps that
are not injective comodule maps."""

import dataclasses
import json

import pytest

from slq2 import verify
from slq2.braid import STRUCTURAL_CONVENTION
from slq2.corep import build_y, tensor
from slq2.cyclo import CyclotomicScalar
from slq2.hopf import HopfAxiomReport
from slq2.linalg import ScalarMatrix

# claim, the name it reads in verify's namespace, a wrong stand-in made
# from the real one, and the witness entry that must record the failure
WRONG_DEPENDENCIES = [
    (verify.claim_braiding_tables, "braiding_matrix",
     lambda real: lambda left, right, convention: real(left, right, STRUCTURAL_CONVENTION), "matched"),
    (verify.claim_braiding_eigenstructure, "eigenstructure_check_v1v1",
     lambda real: lambda *args: dataclasses.replace(real(*args), eigenspace_ok=False), "eigenspace"),
    (verify.claim_spin_statistics, "statistics_sign", lambda real: lambda left, right: None, "failures"),
    (verify.claim_braid_hexagon, "check_hexagon", lambda real: lambda *args: False, "hexagon_failures"),
    (verify.claim_tensor_decomposition_l3, "character_peel", lambda real: lambda c: None, "problems"),
    (verify.claim_irreducibility_certificates, "irreducibility_certificate",
     lambda real: lambda c: dataclasses.replace(real(c), independent=False), "problems"),
    (verify.claim_hopf_axioms_confluence, "check_hopf_axioms",
     lambda real: lambda x: HopfAxiomReport(True, True, False), "axiom_failures"),
    (verify.claim_qbinomial_factorization, "q_binomial",
     lambda real: lambda ell, m, r, sign: CyclotomicScalar.zero(ell), "failures"),
    (verify.claim_finite_quotient_structure, "convolve", lambda real: lambda chi, psi: chi, "problems"),
    (verify.claim_coinvariance, "coinvariance_check", lambda real: lambda x, quotient: False, "problems"),
]


def test_every_claim_has_a_wrong_dependency():
    assert [claim for claim, *_ in WRONG_DEPENDENCIES] == [row.claim for row in verify.CLAIMS]


@pytest.mark.parametrize(
    "claim, name, wrong, key", WRONG_DEPENDENCIES, ids=[claim.__name__ for claim, *_ in WRONG_DEPENDENCIES]
)
def test_a_claim_fails_on_a_wrong_dependency(monkeypatch, claim, name, wrong, key):
    right = claim(ells=(3,))
    assert right.status == "pass"
    monkeypatch.setattr(verify, name, wrong(getattr(verify, name)))
    result = claim(ells=(3,))
    assert result.status == "fail" and not result.passed
    assert result.witness and json.loads(json.dumps(result.witness))
    assert result.witness[key] != right.witness[key]


def test_an_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def _moved_entry(t):
    """t with the first nonzero entry of its first row one column right."""
    row = list(t.data[0])
    j = next(j for j, x in enumerate(row) if x)
    row[j + 1], row[j] = row[j], row[j + 1]
    return ScalarMatrix.from_rows(t.ell, [row, *t.data[1:]])


def _equal_rows(t):
    return ScalarMatrix.from_rows(t.ell, [t.data[0], t.data[0]])


def _swapped_rows(t):
    """The same image, a subcomodule, in the wrong basis: not a comodule map."""
    return ScalarMatrix.from_rows(t.ell, [t.data[1], t.data[0]])


@pytest.mark.parametrize(
    "spoil", [_moved_entry, _equal_rows, _swapped_rows], ids=["moved-entry", "equal-rows", "swapped-rows"]
)
def test_the_w1_embedding_rejects_a_non_embedding(monkeypatch, spoil):
    y3 = build_y(3, 3)
    cube = tensor(tensor(y3, y3), y3)
    assert verify._w1_embedding_into_y3_cube(y3, cube) is not None
    real = verify.hom_space
    monkeypatch.setattr(verify, "hom_space", lambda a, b: [spoil(real(a, b)[0])])
    assert verify._w1_embedding_into_y3_cube(y3, cube) is None
