import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slq2.cli import MAX_EXPR_DIM, _check_sweep, main
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


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", "V1*V1")
    assert code == 0
    assert out.strip().endswith("V0 (+) V2")
    code, out, _ = run(capsys, "decompose", "--expr", "V1*V2", "--format", "json")
    payload = json.loads(out)
    assert payload["notation"] == "V1 (/) W1 (/) V1"
    assert payload["tree"]["type"] == "extension"


@pytest.mark.parametrize("expr", ["V1**V2", "V1*", "*V1", "V1* *V1"])
def test_decompose_rejects_empty_factor(capsys, expr):
    code, out, err = run(capsys, "decompose", "--expr", expr)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "empty factor" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "braid", "--ell", "23"],
        ["verify", "--suite", "props", "--ell", "51"],
        ["verify", "--suite", "hopf", "--ell", "999"],
        ["braid-verify", "--ell", "31"],
        ["verify", "--ell", *["3"] * 118],
    ],
    ids=["braid-23", "props-51", "hopf-999", "braid-verify-31", "118-times-3"],
)
def test_oversized_sweeps_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "size cap for verification sweeps" in err


def test_sweep_cap_boundary():
    for ells in [(21,), (19,), (21, 11, 9, 7, 5), (3,) * 117]:
        _check_sweep(ells)
    for ells in [(23,), (25,), (21, 17), (3,) * 118]:
        with pytest.raises(ValueError, match="size cap"):
            _check_sweep(ells)


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


SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "slq2.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
