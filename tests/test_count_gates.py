"""Count gates: deterministic operation counts of the benchmark workloads
(``bench/workloads.py``, seed 1) stay at or under, or equal to, the values
recorded in the ``BENCH_<n>.json`` files at the repository root.

``GATES`` is the one table: each row names a workload, a counter, the file
that recorded its value and the relation the count must keep with it.  A
change that lowers a count records the new value in its own
``BENCH_<n>.json`` and points the row there; no value is copied here.

Two kinds of counter:

* per-round counters (``ROUND_COUNTERS``) count the calls of one library
  function over one seed-1 round, in a fresh interpreter so that every memo
  starts empty.  One interpreter per workload counts all of them at once:
  ``python tests/test_count_gates.py decompose-l3`` prints them as one JSON
  line.  They are recorded under ``workloads.<workload>.<counter>.change``.
* traced counters are the per-layer metrics of
  ``bench/run.py --workload W --trace 1 --seed 1`` (its last line of
  output), recorded under ``workloads.<workload>.traced.change``.  They
  are read only from a run in which no operation failed.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ROUND_COUNTERS = ("scalar_mul_calls", "mul_num_calls", "shift_calls", "corep_builds")

# Elimination sizes are gated equal: sparse rows and sparsest-first insertion
# change how an elimination runs, not which eliminations run or how many
# unknowns they have.  rank and the certificate's witness call neither rref
# nor kernel, so their work shows only in cyclo.inverse.calls, gated at most.
GATES = [
    ("braid-tables", "scalar_mul_calls", "BENCH_28.json", "<="),
    ("decompose-l3", "scalar_mul_calls", "BENCH_27.json", "<="),
    ("certify-hi", "scalar_mul_calls", "BENCH_27.json", "<="),
    ("hopf-rewrite", "scalar_mul_calls", "BENCH_27.json", "<="),
    ("decompose-l3", "mul_num_calls", "BENCH_24.json", "<="),
    ("certify-hi", "mul_num_calls", "BENCH_19.json", "<="),
    ("braid-tables", "mul_num_calls", "BENCH_25.json", "<="),
    ("hopf-rewrite", "mul_num_calls", "BENCH_16.json", "<="),
    ("decompose-l3", "shift_calls", "BENCH_26.json", "<="),
    ("certify-hi", "shift_calls", "BENCH_26.json", "<="),
    ("braid-tables", "shift_calls", "BENCH_28.json", "<="),
    ("hopf-rewrite", "shift_calls", "BENCH_26.json", "<="),
    ("decompose-l3", "corep_builds", "BENCH_14.json", "<="),
    ("certify-hi", "corep_builds", "BENCH_14.json", "<="),
    ("braid-tables", "corep_builds", "BENCH_14.json", "<="),
    ("hopf-rewrite", "corep_builds", "BENCH_14.json", "<="),
    ("decompose-l3", "linalg.rref.calls", "BENCH_24.json", "=="),
    ("decompose-l3", "linalg.rref.cells", "BENCH_24.json", "=="),
    ("decompose-l3", "linalg.kernel.calls", "BENCH_24.json", "=="),
    ("decompose-l3", "corep.hom_space.unknowns", "BENCH_18.json", "=="),
    ("decompose-l3", "cyclo.inverse.calls", "BENCH_24.json", "<="),
    ("certify-hi", "linalg.rref.calls", "BENCH_18.json", "=="),
    ("certify-hi", "linalg.rref.cells", "BENCH_18.json", "=="),
    ("certify-hi", "linalg.kernel.calls", "BENCH_18.json", "=="),
    ("certify-hi", "corep.hom_space.unknowns", "BENCH_18.json", "=="),
    ("certify-hi", "cyclo.inverse.calls", "BENCH_18.json", "<="),
    ("hopf-rewrite", "cyclo.mul.calls", "BENCH_27.json", "<="),
    ("hopf-rewrite", "algebra.mono_mul.misses", "BENCH_27.json", "<="),
]

RELATIONS = {"<=": operator.le, "==": operator.eq}


def count_round(workload: str) -> dict[str, int]:
    """Run one seed-1 round of the workload and count the calls of
    ``CyclotomicScalar.__mul__``, of ``cyclo._mul_num``, of ``cyclo._shift``
    and of ``corep._corep_from_monomials`` (the memoised builders build each
    named corep once).  ``__mul__`` is counted per call, whatever work the
    call does: a product of two units +-q^k is a table read that reaches
    neither ``_mul_num`` nor ``_shift``; a unit times a non-unit is one
    ``_shift``; only two non-units reach the convolution ``_mul_num``.
    It patches the library: call it in a fresh interpreter."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from slq2 import corep, cyclo

    counts = dict.fromkeys(ROUND_COUNTERS, 0)
    cyclo.CyclotomicScalar.__mul__ = _counting(counts, "scalar_mul_calls", cyclo.CyclotomicScalar.__mul__)
    cyclo._mul_num = _counting(counts, "mul_num_calls", cyclo._mul_num)
    cyclo._shift = _counting(counts, "shift_calls", cyclo._shift)
    corep._corep_from_monomials = _counting(counts, "corep_builds", corep._corep_from_monomials)
    for op in workloads.make_ops(workload, 1):
        workloads.execute(op)
    return counts


def _counting(counts: dict[str, int], counter: str, fn):
    def counted(*args):
        counts[counter] += 1
        return fn(*args)

    return counted


def _run(argv) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}"
    return proc.stdout.splitlines()[-1]


@lru_cache(maxsize=None)
def _round_counts(workload: str) -> dict[str, int]:
    return json.loads(_run([sys.executable, __file__, workload]))


@lru_cache(maxsize=None)
def _traced_counts(workload: str) -> dict[str, int]:
    result = json.loads(_run([sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", "--seed", "1"]))
    # the run exits 0 even when an oracle or a digest rejects a result: gate the counts of correct runs only
    assert result["failed"] == 0, f"{workload}: {result['failed']} of {result['attempted']} operations failed"
    return {key: metric["value"] for key, metric in result["metrics"].items()}


def _recorded(workload: str, counter: str, bench: str) -> int:
    recorded = json.loads((ROOT / bench).read_text())["workloads"][workload]
    return recorded[counter]["change"] if counter in ROUND_COUNTERS else recorded["traced"]["change"][counter]


@pytest.mark.parametrize(
    "workload, counter, bench, relation",
    GATES,
    ids=[f"{workload}-{counter}-{bench.removesuffix('.json')}" for workload, counter, bench, _ in GATES],
)
def test_count_gate(workload, counter, bench, relation):
    counts = _round_counts(workload) if counter in ROUND_COUNTERS else _traced_counts(workload)
    count, recorded = counts[counter], _recorded(workload, counter, bench)
    assert RELATIONS[relation](count, recorded), f"{workload}: {counter} is {count}, not {relation} {recorded} recorded in {bench}"


if __name__ == "__main__":
    print(json.dumps(count_round(sys.argv[1])))
