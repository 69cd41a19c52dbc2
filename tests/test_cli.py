import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slq2.cli import MAX_EXPR_DIM, MAX_SWEEP_ELL, _sweep_ells, main
from slq2.algebra import AlgebraMode, from_word
from slq2.cyclo import q_power
from slq2.parsing import MAX_NESTING_DEPTH, MAX_WORD_DEGREE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_text(capsys):
    code, out, _ = run(capsys, "normalize", "d a", "--ell", "3")
    assert code == 0
    assert out.strip() == "1 + (-1 - q) b c"


def test_normalize_round_trip(capsys):
    code, out, _ = run(capsys, "normalize", "d a", "--ell", "3")
    code2, out2, _ = run(capsys, "normalize", out.strip(), "--ell", "3")
    assert code2 == 0 and out2 == out


def test_normalize_json_schema(capsys):
    code, out, _ = run(capsys, "normalize", "a b", "--ell", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["terms"] == [{"monomial": {"t": 1, "j": 1, "k": 0}, "coeff": "1"}]


def test_normalize_quotient_mode(capsys):
    code, out, _ = run(capsys, "normalize", "b^3", "--ell", "3", "--mode", "F")
    assert code == 0 and out.strip() == "0"


def test_coproduct_counit_antipode(capsys):
    code, out, _ = run(capsys, "coproduct", "a", "--format", "json")
    payload = json.loads(out)
    assert {"left": "a", "right": "a", "coeff": "1"} in payload["terms"]
    assert {"left": "b", "right": "c", "coeff": "1"} in payload["terms"]

    code, out, _ = run(capsys, "counit", "a d")
    assert out.strip() == "1"

    # S(b) = -q^-1 b, and -q^-1 reduces to 1 + q at ell = 3
    code, out, _ = run(capsys, "antipode", "b")
    assert out.strip() == "(1 + q) b"


def test_hopf_check_exit_code(capsys):
    code, out, _ = run(capsys, "hopf-check", "a^2 b c")
    assert code == 0
    assert "all_ok: True" in out


def test_corep_command(capsys):
    code, out, _ = run(capsys, "corep", "--family", "V", "--m", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["rho"] == [["a", "b"], ["c", "d"]]
    assert payload["basis"] == ["a", "c"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--family", "W", "--m", "3"], "--n"),
        (["--family", "V"], "--m"),
        (["--family", "Y", "--n", "2"], "--m"),
        (["--family", "V", "--m", "1", "--n", "2"], "--m"),
        (["--family", "W", "--n", "1", "--m", "1"], "--n"),
    ],
    ids=["W-by-m", "V-no-index", "Y-by-n", "V-both", "W-both"],
)
def test_corep_requires_the_family_index_flag(capsys, argv, flag):
    # each family reads its own flag; a missing index is not index 0
    code, out, err = run(capsys, "corep", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"as {flag}," in err


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", "V1*V1")
    assert code == 0
    assert out.strip().endswith("V0 (+) V2")
    code, out, _ = run(capsys, "decompose", "--expr", "V1*V2", "--format", "json")
    payload = json.loads(out)
    assert payload["notation"] == "V1 (/) W1 (/) V1"
    assert payload["tree"]["type"] == "extension"


@pytest.mark.parametrize("expr", ["", " "])
def test_decompose_rejects_empty_expression(capsys, expr):
    assert run(capsys, "decompose", "--expr", expr) == (2, "", "decompose: empty expression\n")


@pytest.mark.parametrize("expr", ["V1**V2", "V1*", "*V1", "V1* *V1"])
def test_decompose_rejects_empty_factor(capsys, expr):
    code, out, err = run(capsys, "decompose", "--expr", expr)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "empty factor" in err


@pytest.mark.parametrize(
    "argv,name",
    [(["decompose", "--expr", "V1*X2"], "X2"), (["braid", "--left", "Q1", "--right", "V1"], "Q1")],
    ids=["decompose-X2", "braid-Q1"],
)
def test_malformed_corep_names_exit_2(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"cannot parse corepresentation name {name!r}" in err


@pytest.mark.parametrize("expr", ["1/0", "(3/0) q", "0/0 b", "2/(1-1)"])
def test_normalize_division_by_zero_exits_2(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "division by zero" in err


def test_decompose_rejects_other_ell(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "V1*V1", "--ell", "5")
    assert code == 2
    assert "ell = 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["corep", "--family", "W", "--n", "400"],
        ["corep", "--family", "Y", "--m", "100000"],
        ["corep", "--family", "V", "--m", "10", "--ell", "999"],
        ["decompose", "--expr", "W60"],
        ["braid", "--left", "W40", "--right", "W40"],
    ],
    ids=["corep-W400", "corep-Y100000", "corep-V10-ell999", "decompose-W60", "braid-W40-W40"],
)
def test_oversized_named_coreps_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and ("size cap" in err or "above the cap" in err)


@pytest.mark.parametrize(
    "family,flag,largest,ell",
    [("V", "--m", 3, 997), ("W", "--n", 0, 997), ("V", "--m", 12, 101)],
    ids=["V3-V4-ell997", "W0-W1-ell997", "V12-V13-ell101"],
)
def test_named_corep_cost_cap_boundary(capsys, family, flag, largest, ell):
    """The largest named corep that MAX_COREP_COST accepts exits 0, and the
    next index exits 2.  No index of V, W or Y at an odd ell <= 999 costs
    exactly the cap, so these cases pin where the cap falls, not > or >=."""
    code, out, _ = run(capsys, "corep", "--family", family, flag, str(largest), "--ell", str(ell))
    assert code == 0 and out
    code, out, err = run(capsys, "corep", "--family", family, flag, str(largest + 1), "--ell", str(ell))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"{family}{largest + 1} at ell = {ell} is above the size cap" in err


def test_braid_needs_no_cap_beyond_its_factors(capsys):
    # the closed-form pairing costs one product per term pair, so the corep
    # and dimension caps bound a braiding table; V12 (x) V3 at ell = 101 has
    # dimension 52
    code, out, _ = run(capsys, "braid", "--left", "V12", "--right", "V3", "--ell", "101", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == len(payload["entries"]) == 52


def test_expression_dimension_cap(capsys):
    code, out, err = run(capsys, "decompose", "--expr", "*".join(["V1"] * 7))  # dimension 128
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"above the cap of {MAX_EXPR_DIM}" in err
    # each factor is within its own cap; the product is not
    code, _, err = run(capsys, "braid", "--left", "W8", "--right", "W8")
    assert code == 2 and "dimension 81" in err


# each took 7 s or more, or ran unbounded, before the element cap
SLOW_ELEMENTS = [
    ["antipode", "d", "--ell", "301", "--mode", "F"],
    ["antipode", "d", "--ell", "997", "--mode", "F"],
    ["hopf-check", "d", "--ell", "301", "--mode", "F"],
    ["coproduct", "d", "--ell", "301", "--mode", "F"],
    ["coproduct", "a^20 d^20", "--ell", "301"],
    ["coproduct", "a^10 d^10", "--ell", "301"],
    ["hopf-check", "a^10 d^10", "--ell", "31"],
    ["hopf-check", "a^5 d^5", "--ell", "997"],
]
# their cheap neighbours, each at most 2.3 s
CHEAP_ELEMENTS = [
    ["antipode", "d", "--ell", "101", "--mode", "F"],
    ["antipode", "d", "--ell", "201", "--mode", "F"],
    ["coproduct", "a^20 d^20", "--ell", "3"],
    ["coproduct", "a^5 d^5", "--ell", "997"],
    ["normalize", "a^150 d^150", "--ell", "997"],
    ["antipode", "a^10 d^10", "--ell", "997"],
]


@pytest.mark.parametrize("argv", SLOW_ELEMENTS, ids=[" ".join(argv) for argv in SLOW_ELEMENTS])
def test_oversized_elements_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "is above the size cap for this command" in err


@pytest.mark.parametrize("argv", CHEAP_ELEMENTS, ids=[" ".join(argv) for argv in CHEAP_ELEMENTS])
def test_cheap_elements_run(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "braid", "--ell", "23"],
        ["verify", "--suite", "props", "--ell", "51"],
        ["verify", "--suite", "hopf", "--ell", "999"],
        ["braid-verify", "--ell", "31"],
        ["verify", "--ell", "23"],
        ["verify", "--ell", "999"],
        ["verify", "--ell", "3", "5", "23"],
        # 118 repeats of an accepted ell are one ell; the 23 after them is
        # still refused
        ["verify", "--ell", *["3"] * 118, "23"],
    ],
    ids=["braid-23", "props-51", "hopf-999", "braid-verify-31", "all-23", "all-999", "3-5-23", "118-times-3"],
)
def test_oversized_sweeps_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "size cap for verification sweeps" in err


def test_sweep_cap_boundary():
    """Each swept ell is at most 21 and repeats are dropped, whatever the
    number or sum of the values."""
    assert MAX_SWEEP_ELL == 21
    for ells in [(21,), (19,), (21, 11, 9, 7, 5), (21, 17), tuple(range(3, 22, 2))]:
        assert _sweep_ells(ells) == ells
    assert _sweep_ells((3,) * 118) == (3,)
    assert _sweep_ells((5, 3, 5, 21, 3)) == (5, 3, 21)
    assert _sweep_ells(None) is None
    for ells in [(23,), (25,), (21, 23), (3,) * 117 + (23,)]:
        with pytest.raises(ValueError, match="size cap"):
            _sweep_ells(ells)


def _claim_statuses(out: str) -> dict[str, str]:
    return {claim["id"]: claim["status"] for claim in json.loads(out)["claims"]}


ELL_3_CLAIMS = {"braiding-tables", "braiding-eigenstructure", "tensor-decomposition-l3"}


def test_sweep_skips_the_ell_3_claims(capsys):
    code, out, _ = run(capsys, "verify", "--ell", "5", "7", "--format", "json")
    assert code == 0 and json.loads(out)["passed"]
    statuses = _claim_statuses(out)
    assert len(statuses) == 10
    assert {cid for cid, status in statuses.items() if status == "skip"} == ELL_3_CLAIMS
    assert sum(status == "pass" for status in statuses.values()) == 7


def test_sweep_at_3_runs_every_claim(capsys):
    code, out, _ = run(capsys, "verify", "--ell", "3", "--format", "json")
    assert code == 0
    assert set(_claim_statuses(out).values()) == {"pass"} and len(_claim_statuses(out)) == 10
    # a repeated value is dropped, so the output is that of one
    assert run(capsys, "verify", "--ell", "3", "3", "--format", "json") == (0, out, "")


def test_sweep_at_21_skips_four_claims(capsys):
    code, out, _ = run(capsys, "verify", "--ell", "21")
    assert code == 0
    skipped = [line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("SKIP  ")]
    assert set(skipped) == ELL_3_CLAIMS | {"irreducibility-certificates"}
    assert "SKIP  irreducibility-certificates: not run at ell = 21: supports ell <= 9" in out
    assert out.count("PASS  ") == 6 and "FAIL" not in out
    assert out.endswith("suite 'all': no failures, 4 skipped\n")


def test_mixed_sweep_runs_each_claim_within_its_largest_ell(capsys):
    code, out, _ = run(capsys, "verify", "--ell", "3", "11", "--format", "json")
    assert code == 0 and json.loads(out)["passed"]
    claims = {claim["id"]: claim for claim in json.loads(out)["claims"]}
    assert {claim["status"] for claim in claims.values()} == {"pass"}
    partial = {cid for cid, claim in claims.items() if "skipped_ells" in claim["witness"]}
    assert partial == ELL_3_CLAIMS | {"irreducibility-certificates"}
    assert all(claims[cid]["witness"]["skipped_ells"] == [11] for cid in partial)
    code, out, _ = run(capsys, "verify", "--ell", "3", "11")
    assert "PASS  irreducibility-certificates: " in out and out.count("; not run at ell = 11: supports ell <= ") == 4
    assert out.endswith("suite 'all': all passed\n")


def test_sweep_rejects_invalid_ell_before_running(capsys):
    code, out, err = run(capsys, "verify", "--suite", "braid", "--ell", "-101", "101")
    assert code == 2 and out == ""
    assert "odd integer" in err


def test_small_sweep_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--ell", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"]


def test_oversized_ell_exits_2(capsys):
    code, out, err = run(capsys, "normalize", "a", "--ell", "100001")
    assert code == 2 and out == ""
    assert "at most 999" in err


def test_braid_table_json(capsys):
    code, out, _ = run(capsys, "braid", "--left", "V1", "--right", "V1", "--format", "json")
    payload = json.loads(out)
    assert payload["entries"][0][0] == "-q"  # q^-1/2 at ell = 3
    assert payload["entries"][2][2] == "1 - q"  # 1 + q^-1/2
    assert payload["rows"][0] == "a(x)a"


@pytest.mark.parametrize(
    "expr, text, latex",
    [
        ("(1/2) a", "(1/2) a", "(1/2)a"),
        ("-(1/2) a b", "(-1/2) a b", "(-1/2)ab"),
        ("2*q b", "2q b", "2qb"),  # an explicit * between scalars
        ("a - a", "0", "0"),
    ],
)
def test_normalize_latex_brackets_fractions(capsys, expr, text, latex):
    for fmt, expected in (("text", text), ("latex", latex)):
        code, out, _ = run(capsys, "normalize", expr, "--ell", "5", "--format", fmt)
        assert code == 0 and out == expected + "\n"


def test_braid_latex(capsys):
    code, out, _ = run(capsys, "braid", "--left", "V1", "--right", "V1", "--format", "latex")
    assert out.startswith(r"\begin{pmatrix}")


@pytest.mark.parametrize(
    "argv",
    [["coproduct", "a"], ["hopf-check", "a"], ["decompose", "--expr", "V1*V1"]],
    ids=["coproduct", "hopf-check", "decompose"],
)
def test_latex_is_offered_only_where_there_is_a_latex_form(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "latex"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'latex'" in err
    assert main([*argv, "--format", "json"]) == 0


def test_parse_error_reported(capsys):
    code, _, err = run(capsys, "normalize", "a + $")
    assert code == 2
    assert "position 4" in err


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run(capsys, "normalize", "(" * 3000 + "a" + ")" * 3000)
    assert code == 2
    assert f"nesting deeper than {MAX_NESTING_DEPTH} levels" in err
    code, out, _ = run(capsys, "normalize", "(" * MAX_NESTING_DEPTH + "2" + ")" * MAX_NESTING_DEPTH + " a")
    assert code == 0 and out.strip() == "2 a"


def test_overlong_word_is_a_parse_error(capsys):
    code, out, err = run(capsys, "normalize", "d a^200000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"word of degree above {MAX_WORD_DEGREE}" in err
    # the degree counts every factor of one term
    half = MAX_WORD_DEGREE // 2
    code, _, err = run(capsys, "coproduct", f"a^{half} b^{MAX_WORD_DEGREE - half + 1}")
    assert code == 2 and "word of degree" in err


def test_word_of_max_degree_parses(capsys):
    n = MAX_WORD_DEGREE - 2
    code, out, _ = run(capsys, "normalize", f"d a^{n + 1} + b^{MAX_WORD_DEGREE}")
    assert code == 0
    # d a^(n+1) = (1 + q^-1 bc) a^n = a^n + q^(-1-2n) a^n b c
    gen3 = AlgebraMode.generic(3)
    expected = (
        from_word(gen3, [("a", n)])
        + from_word(gen3, [("a", n), ("b", 1), ("c", 1)], q_power(3, -1 - 2 * n))
        + from_word(gen3, [("b", MAX_WORD_DEGREE)])
    )
    assert out.strip() == str(expected)


def test_verify_props_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "props")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_hopf_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["claims"][0]["id"] == "hopf-axioms-confluence"


@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--ell", "3", "5", "7"]], ids=["text", "json", "ell-3-5-7"])
def test_braid_verify_is_the_braid_suite(capsys, extra):
    assert run(capsys, "braid-verify", *extra) == run(capsys, "verify", "--suite", "braid", *extra)


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _checkout_env() -> dict:
    """The environment with this checkout's sources first on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _run_in_checkout(argv, **kwargs):
    """Run argv in a fresh interpreter with this checkout's sources first on the path."""
    return subprocess.run(argv, cwd=ROOT, env=_checkout_env(), timeout=120, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [["braid", "--left", "V1", "--right", "V2"], ["coproduct", "c^40"]],
    ids=["braid", "coproduct"],
)
def test_closed_pipe_exits_1_without_traceback(argv):
    # the reader is gone before the first write, as in `slq2 ... | head -2`
    # once head has exited: every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_in_checkout([sys.executable, "-m", "slq2.cli", *argv], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_oversized_element_exits_2_through_the_entry_point():
    # it ran 100 s before the element cap
    argv = [sys.executable, "-m", "slq2.cli", "antipode", "d", "--ell", "997", "--mode", "F"]
    proc = _run_in_checkout(argv, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "size cap" in proc.stderr


def test_pipe_closed_mid_write_exits_1_without_traceback():
    # Y43 prints 129 KB, more than a pipe holds: the reader takes 100 bytes
    # and goes away while a write is blocked
    argv = [sys.executable, "-m", "slq2.cli", "corep", "--family", "Y", "--m", "43"]
    with subprocess.Popen(argv, cwd=ROOT, env=_checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    assert len(head) == 100
    assert proc.returncode == 1
    assert stderr == b""


def _readme_examples():
    """The lines of the first ```sh block under "## Command line" in the
    README, each cut at its first "#" (the comment), blank ones dropped."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("## Command line"))
    begin = next(i for i in range(start, len(lines)) if lines[i].startswith("```sh")) + 1
    end = next(i for i in range(begin, len(lines)) if lines[i].startswith("```"))
    commands = (line.split("#", 1)[0].strip() for line in lines[begin:end])
    return [command for command in commands if command]


def test_the_readme_shows_command_line_examples():
    assert _readme_examples()


@pytest.mark.parametrize("command", _readme_examples())
def test_readme_example_runs(command):
    # `slq2 ...` runs as `python -m slq2.cli ...`, on this checkout's sources
    argv = shlex.split(command)
    if argv[0] == "slq2":
        argv[:1] = [sys.executable, "-m", "slq2.cli"]
    proc = _run_in_checkout(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{command} exited {proc.returncode}:\n{proc.stderr}"


# every script with its default arguments, and the ell != 3 branch of the
# braiding tables (the exploratory V1-V1 spectrum) up to ell 9, the largest
# of the braid-tables benchmark
SCRIPT_RUNS = [[p.name] for p in sorted((ROOT / "scripts").glob("*.py"))]
SCRIPT_RUNS += [["braiding_tables.py", "--ell", str(ell)] for ell in (5, 7, 9)]


@pytest.mark.parametrize("script", SCRIPT_RUNS, ids=[" ".join(argv) for argv in SCRIPT_RUNS])
def test_exploratory_script_runs(script):
    argv = [sys.executable, f"scripts/{script[0]}", *script[1:]]
    proc = _run_in_checkout(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{' '.join(script)} exited {proc.returncode}:\n{proc.stderr}"
