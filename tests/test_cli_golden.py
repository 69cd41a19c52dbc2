"""Golden CLI outputs: every case runs in-process through ``cli.main`` and
must print exactly the recorded stdout and return the recorded exit code.

The cases cover normalize/coproduct/antipode in the three algebra modes at
ell = 5, on words already in PBW order, on unordered words and on generator
powers, products of high a/d powers in the three modes at ell = 3 and 5,
the same three commands on a few words at the composite ell = 9 and 15,
where a power of q reduces to several basis vectors, braiding tables at
ell = 3 and 9, decompositions at ell = 3 (V1*V2, the larger V1*V2*V1*V2
and V2*V2*V2, and the dimension-64 V1^6 and W1^6), the W3 coaction matrix at ell = 5 and the JSON report of
every verification claim.  Refresh the recording (only after
checking that a changed output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from slq2.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

PBW_ORDERED = ["a^2 b c^2", "b^2 c d^3", "a b^3", "c^2 d", "2 a^3 c"]
UNORDERED = ["d a", "c b a", "b a d c", "d b a^2", "c a + q b d"]
POWERS = ["a^7", "d^6", "b^4", "c^5"]
# products of high a/d powers, where a^n d^n expands by the q-binomial theorem
HIGH_POWERS = {
    "normalize": ["d^5 a^7 b c^2", "a^6 d^6", "c^3 d^4 a^5 b^2"],
    "coproduct": ["a^4 d^3", "d^3 a^4 c"],
    "antipode": ["d^4 a^2 c", "a^5 b d^5"],
}
# at composite ell a power of q folds back through several basis vectors
COMPOSITE_WORDS = ["b a d c", "d b a^2", "c a + q b d", "d^3 a^4 c", "b^4"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for mode in ("generic", "F", "Fhat"):
        for command in ("normalize", "coproduct", "antipode"):
            for word in PBW_ORDERED + UNORDERED + POWERS:
                argv = [command, word, "--ell", "5", "--mode", mode]
                cases[" ".join(argv)] = argv
    for ell in ("3", "5"):
        for mode in ("generic", "F", "Fhat"):
            for command, words in HIGH_POWERS.items():
                for word in words:
                    argv = [command, word, "--ell", ell, "--mode", mode]
                    cases[" ".join(argv)] = argv
    for ell in ("9", "15"):
        for mode in ("generic", "F", "Fhat"):
            for command in ("normalize", "coproduct", "antipode"):
                for word in COMPOSITE_WORDS:
                    argv = [command, word, "--ell", ell, "--mode", mode]
                    cases[" ".join(argv)] = argv
    for word in ("a^2 b c^2", "d b a^2"):
        argv = ["normalize", word, "--ell", "5", "--mode", "Fhat", "--format", "json"]
        cases[" ".join(argv)] = argv
    for convention in ("ordered", "structural"):
        argv = ["braid", "--left", "V2", "--right", "V2", "--ell", "3", "--convention", convention]
        cases[" ".join(argv)] = argv
        argv = ["braid", "--left", "V1", "--right", "V2", "--ell", "9", "--convention", convention]
        cases[" ".join(argv)] = argv
    for fmt in ("text", "json"):
        argv = ["decompose", "--expr", "V1*V2", "--format", fmt]
        cases[" ".join(argv)] = argv
    for argv in (
        ["decompose", "--expr", "V1*V2*V1*V2", "--format", "json"],
        ["decompose", "--expr", "V2*V2*V2"],
        ["decompose", "--expr", "V1*V1*V1*V1*V1*V1", "--format", "json"],
        ["decompose", "--expr", "W1*W1*W1*W1*W1*W1", "--format", "json"],
        ["corep", "--family", "W", "--n", "3", "--ell", "5"],
        ["verify", "--suite", "all", "--format", "json"],
    ):
        cases[" ".join(argv)] = argv
    return cases


CASES = _cases()


def _run(argv) -> dict:
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_cli_output_matches_golden(key, golden):
    assert _run(CASES[key]) == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    recorded = {key: _run(argv) for key, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
