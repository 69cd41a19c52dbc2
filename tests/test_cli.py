import json

from slq2.cli import main
from slq2.parsing import MAX_NESTING_DEPTH


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


def test_decompose_rejects_other_ell(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "V1*V1", "--ell", "5")
    assert code == 2
    assert "ell = 3" in err


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
