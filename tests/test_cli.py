import json

import pytest

from svlie.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cybe_satisfied(capsys):
    code, out, _ = invoke(capsys, "cybe", "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]")
    assert code == 0
    assert out == "CYBE: satisfied\n"


def test_cybe_violated_and_mybe(capsys):
    code, out, _ = invoke(capsys, "cybe", "L[1] (x) L[-1] - L[-1] (x) L[1]")
    assert code == 1 and out == "CYBE: violated\n"
    code, out, _ = invoke(capsys, "cybe", "--mybe",
                          "L[1] (x) L[-1] - L[-1] (x) L[1]")
    assert code == 1 and out == "MYBE: violated\n"


def test_certify_family_direction(capsys):
    code, out, _ = invoke(capsys, "certify", "--d", "0,0,1,-1,0,0", "--window", "6")
    assert code == 0
    assert out == "Lie bialgebra: yes; triangular coboundary: no\n"


def test_certify_triangular(capsys):
    code, out, _ = invoke(capsys, "certify",
                          "--r", "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]")
    assert code == 0
    assert out == "Lie bialgebra: yes; triangular coboundary: yes\n"


def test_certify_not_bialgebra(capsys):
    code, out, _ = invoke(capsys, "certify",
                          "--r", "L[1] (x) L[-1] - L[-1] (x) L[1]",
                          "--window", "3")
    assert code == 1
    assert out.startswith("Lie bialgebra: no (co_jacobi fails at")


def test_classify_not_candidate(capsys):
    code, out, _ = invoke(capsys, "classify", "L[1] (x) L[2] - L[2] (x) L[1]")
    assert code == 1
    assert out == "top degree 3: NotCandidate (cannot head a CYBE solution)\n"


def test_classify_candidate(capsys):
    code, out, _ = invoke(capsys, "classify", "L[0] (x) L[2] - L[2] (x) L[0]")
    assert code == 0
    assert out == "top degree 2: V1, V2\n"
    code, out, _ = invoke(capsys, "classify", "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]")
    assert out == "top degree 3/2: V8(1)\n"


def test_bracket_and_act(capsys):
    code, out, _ = invoke(capsys, "bracket", "L[1]", "L[-1]")
    assert code == 0 and out == "-2 * L[0]\n"
    code, out, _ = invoke(capsys, "act", "L[1]", "--on", "M[2] (x) M[-2]")
    assert code == 0
    assert out == "-2 * M[2] (x) M[-1] + 2 * M[3] (x) M[-2]\n"
    code, out, _ = invoke(capsys, "act", "L[0]", "--on",
                          "L[1] (x) M[0] (x) Y[1/2]")
    assert code == 0
    assert out == "3/2 * L[1] (x) M[0] (x) Y[1/2]\n"


def test_cojacobi_command(capsys):
    code, out, _ = invoke(capsys, "cojacobi", "--d", "1,-1,1,-1,2,-2",
                          "--window", "4")
    assert code == 0 and out == "co-Jacobi: holds (window 4)\n"
    code, out, _ = invoke(capsys, "cojacobi",
                          "--r", "L[1] (x) L[-1] - L[-1] (x) L[1]",
                          "--window", "3")
    assert code == 1
    assert out.startswith("co-Jacobi: fails at L[2]")


def test_json_single_document(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "certify",
                          "--d", "0,0,1,-1,0,0", "--window", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "certify"
    assert doc["verdict"] == "BialgebraNotCoboundary"
    assert doc["bialgebra"] is True and doc["triangular_coboundary"] is False
    assert doc["exit_code"] == 0

    code, out, _ = invoke(capsys, "--format", "json", "classify",
                          "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]")
    doc = json.loads(out)
    assert doc["labels"] == ["V8(1)"] and doc["candidate"] is True


def test_search_output_and_determinism(capsys):
    argv = ["search", "--window", "1", "--coeffs", "-1,0,1", "--max-terms", "1"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "count: 20" in out1
    assert "window: 1  coeffs: -1,0,1  max-terms: 1  jobs: 1" in out1
    code3, out3, _ = invoke(capsys, "search", "--window", "1",
                            "--coeffs", "-1,0,1", "--max-terms", "1",
                            "--jobs", "2")
    body1 = out1[:out1.rindex("jobs:")]
    body3 = out3[:out3.rindex("jobs:")]
    assert body1 == body3


def test_invariants_command(capsys):
    code, out, _ = invoke(capsys, "invariants", "--rank", "2", "--window", "2")
    assert code == 0
    assert out == "M[0] (x) M[0]\ndimension: 1\n"


def test_derive_check_and_decompose(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(
        "# inner table of M[2] (x) M[0], window 1\n"
        "L[0] -> 2 * M[2] (x) M[0]\n"
        "L[1] -> 2 * M[3] (x) M[0]\n"
        "L[-1] -> 2 * M[1] (x) M[0]\n"
        "M[0] -> 0\nM[1] -> 0\nM[-1] -> 0\n"
        "Y[1/2] -> 0\nY[-1/2] -> 0\n"
    )
    code, out, _ = invoke(capsys, "derive-check", str(table))
    assert code == 1  # inner tables have non-skew images
    assert "image skew: FAIL" in out
    assert "compatibility: ok" in out

    code, out, _ = invoke(capsys, "decompose", str(table))
    assert code == 0
    assert "degree 2:" in out
    assert "L[0] -> 2 * M[2] (x) M[0]" in out

    code, _, err = invoke(capsys, "derive-check", str(table), "--window", "4")
    assert code == 2
    assert "no image" in err


def test_parse_errors_exit_2(capsys):
    code, _, err = invoke(capsys, "cybe", "Y[1] (x) M[0] - M[0] (x) Y[1]")
    assert code == 2
    assert "line 1" in err and "parity" in err
    code, _, err = invoke(capsys, "bracket", "3/0 * L[0]", "L[1]")
    assert code == 2
    assert "zero denominator" in err
    code, _, err = invoke(capsys, "cybe", "L[2] (x)")
    assert code == 2
    assert "column 9" in err


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "cybe", "L[0] (x) L[0]", "--bogus-flag")[0] == 2
    assert invoke(capsys, "unknown-command")[0] == 2
    assert invoke(capsys, "certify", "--window", "3")[0] == 2  # needs --r or --d
    assert invoke(capsys, "search", "--window", "x", "--coeffs", "1",
                  "--max-terms", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ["classify", "0"],
    ["classify", "L[1] (x) L[2]"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "0"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "1", "--jobs", "0"],
    ["invariants", "--rank", "2", "--window", "-1"],
    ["certify", "--r", "L[1] (x) L[-1] - L[-1] (x) L[1]", "--window", "0"],
    ["classify", "L[0] (x) L[2] - L[2] (x) L[0] + L[1] (x) M[0]"],
])
def test_library_input_errors_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_classify_names_highest_non_skew_component(capsys):
    # the skew top alone would classify as V1, V2; the degree-1 part is not skew
    code, out, err = invoke(capsys, "classify",
                            "L[0] (x) L[2] - L[2] (x) L[0] + L[1] (x) M[0]")
    assert (code, out) == (2, "")
    assert err == ("error: classify needs a skew tensor; "
                   "its degree-1 component L[1] (x) M[0] is not skew\n")
    code, out, err = invoke(capsys, "classify", "L[1] (x) L[2] + L[0] (x) M[0]")
    assert err == ("error: classify needs a skew tensor; "
                   "its degree-3 component L[1] (x) L[2] is not skew\n")


def test_parser_reused_after_usage_error(capsys):
    # one parser serves every run in a process: a failed parse and a JSON
    # run leave no state behind for the next argv
    assert invoke(capsys, "bracket", "L[1]")[0] == 2
    assert invoke(capsys, "bracket", "L[1]", "L[2]", "--format", "json")[0] == 0
    assert invoke(capsys, "bracket", "L[1]", "L[2]") == (0, "L[3]\n", "")
