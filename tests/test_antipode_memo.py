"""The per-monomial antipode is memoised and shared.

``hopf._antipode_monomial`` keeps S of each (mode, monomial) for the life of
the process, and ``antipode`` and the antipode check of
``check_hopf_axioms`` both read it.  These tests pin the contract that makes
the sharing safe: the memo hands out tuples, no caller writes into them,
and both readers give the results of the unmemoised formula on the words of
the hopf-rewrite benchmark.
"""

import importlib.util
import sys
from pathlib import Path

from slq2 import hopf
from slq2.algebra import AlgebraMode, NormalMonomial
from slq2.hopf import _antipode_monomial, antipode, check_hopf_axioms
from slq2.parsing import mode_from_name, parse_element

ROOT = Path(__file__).resolve().parents[1]


def _hopf_rewrite_elements(monkeypatch):
    """The elements of every antipode and axiom-check operation in seed 1's
    round of the hopf-rewrite benchmark (``bench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    out = []
    for op in workloads.make_ops("hopf-rewrite", 1):
        if op.kind in ("S", "check"):
            mode_name, word = op.args
            out.append((op.kind, parse_element(word, mode_from_name(mode_name, op.ell))))
    return out


def test_the_memo_returns_one_tuple_per_monomial():
    mode = AlgebraMode.quotient_f(5)
    mono = NormalMonomial(2, 1, 3)  # S gives d^2 b c^3, rewritten without d
    terms = _antipode_monomial(mode, mono)
    assert type(terms) is tuple and all(type(term) is tuple for term in terms)
    assert _antipode_monomial(mode, mono) is terms
    assert terms == _antipode_monomial.__wrapped__(mode, mono)
    assert _antipode_monomial.cache_info().currsize >= 1


def _read(cases):
    # as the benchmark reads them: S on every word, the check on its own words
    return [(antipode(x), check_hopf_axioms(x) if kind == "check" else None) for kind, x in cases]


def test_readers_match_the_unmemoised_formula(monkeypatch):
    cases = _hopf_rewrite_elements(monkeypatch)
    assert {kind for kind, _ in cases} == {"S", "check"}
    handed = {}

    def recording(mode, mono):
        terms = handed[(mode, mono)] = _antipode_monomial(mode, mono)
        return terms

    monkeypatch.setattr(hopf, "_antipode_monomial", recording)
    memoised = _read(cases)
    assert all(report.all_ok for _, report in memoised if report is not None)
    # every term tuple handed out is still the memo's and still equals a
    # fresh evaluation: no caller wrote into it
    assert handed
    for (mode, mono), terms in handed.items():
        assert _antipode_monomial(mode, mono) is terms
        assert terms == _antipode_monomial.__wrapped__(mode, mono)
    monkeypatch.setattr(hopf, "_antipode_monomial", _antipode_monomial.__wrapped__)
    assert _read(cases) == memoised
