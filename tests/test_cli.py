import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from svlie.cli import _derivation, main, run
from svlie.exprs import parse_element, parse_source, parse_tensor2


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """A new interpreter that imports svlie from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_main_exits_with_the_code_of_run(capsys, monkeypatch):
    # main() is what the installed `sv` script calls
    for argv, want in [
        (["bracket", "L[1]", "L[-1]"], (0, "-2 * L[0]\n", "")),
        (["cybe", "--mybe", "L[1] (x) L[-1] - L[-1] (x) L[1]"], (1, "MYBE: violated\n", "")),
        (["bracket", "Y[1]", "L[1]"],
         (2, "", "error: line 1, column 3: parity error: Y index must be half-odd, got 1\n")),
    ]:
        monkeypatch.setattr(sys, "argv", ["sv", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert (exc.value.code, *capsys.readouterr()) == want
    done = fresh_python("-m", "svlie.cli", "bracket", "L[1]", "L[-1]")
    assert (done.returncode, done.stdout, done.stderr) == (0, "-2 * L[0]\n", "")


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
    # on an element the diagonal action is the bracket
    assert invoke(capsys, "act", "L[1]", "--on", "L[-1]") == (0, "-2 * L[0]\n", "")


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
    assert out1.endswith("window: 1  coeffs: -1,0,1  max-terms: 1  jobs: 1\n")
    # --jobs is echoed and changes nothing else, however large
    for jobs in ("2", "100000"):
        code, out, _ = invoke(capsys, *argv, "--jobs", jobs)
        assert code == 0
        assert out == out1.replace("jobs: 1\n", f"jobs: {jobs}\n")


def test_search_runs_in_one_process():
    # a fresh interpreter, so that only what svlie imports is in sys.modules
    argv = ["search", "--window", "1", "--coeffs", "-1,0,1", "--max-terms", "2", "--jobs", "4"]
    script = ("import sys\n"
              "from svlie.cli import run\n"
              f"code = run({argv!r})\n"
              "pools = [m for m in sys.modules\n"
              "         if m.split('.')[0] in ('multiprocessing', 'concurrent')]\n"
              "sys.exit(f'exit {code}, loaded {pools}' if code or pools else 0)\n")
    done = fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("count: 196\nwindow: 1  coeffs: -1,0,1  max-terms: 2  jobs: 4\n")


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

    # a table saved with a UTF-8 byte-order mark reads like the same file without one
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
    for argv in (["derive-check"], ["decompose"], ["--format", "json", "derive-check"]):
        assert invoke(capsys, *argv, str(bom)) == invoke(capsys, *argv, str(table))

    # a table's window is the largest bound its entries cover
    table.write_text("L[0] -> 0\nM[0] -> 0   # centre\n"
                     "Y[1/2] -> M[0] (x) Y[1/2] - Y[1/2] (x) M[0]\n"
                     "Y[-1/2] -> M[0] (x) Y[-1/2] - Y[-1/2] (x) M[0]\n")
    code, out, _ = invoke(capsys, "--format", "json", "derive-check", str(table))
    assert code == 0 and json.loads(out)["window"] == "1/2"
    assert invoke(capsys, "decompose", str(table))[0] == 0
    table.write_text("L[0] -> 0\nM[0] -> 0\n")
    assert invoke(capsys, "decompose", str(table)) == (0, "zero table: no components\n", "")

    code, out, err = invoke(capsys, "derive-check", str(tmp_path))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_parse_errors_exit_2(capsys, monkeypatch):
    code, _, err = invoke(capsys, "cybe", "Y[1] (x) M[0] - M[0] (x) Y[1]")
    assert code == 2
    assert "line 1" in err and "parity" in err
    code, _, err = invoke(capsys, "bracket", "3/0 * L[0]", "L[1]")
    assert code == 2
    assert "zero denominator" in err
    code, _, err = invoke(capsys, "cybe", "L[2] (x)")
    assert code == 2
    assert "column 9" in err
    for argv in (["search", "--window", "1/0", "--coeffs", "1", "--max-terms", "1"],
                 ["search", "--window", "1", "--coeffs", "1,1/0", "--max-terms", "1"],
                 ["certify", "--d", "0,0,1/0,0,0,0"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and len(err.splitlines()) == 1
        assert "zero denominator" in err and "Fraction(" not in out + err
    # search prints its coefficients back, so one past the int-string limit
    # is refused before the search starts
    monkeypatch.setattr("svlie.cli.search_cybe", None)
    code, out, err = invoke(capsys, "search", "--window", "1", "--coeffs", "1e5000",
                            "--max-terms", "1")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert f"number longer than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "cybe", "L[0] (x) L[0]", "--bogus-flag")[0] == 2
    assert invoke(capsys, "unknown-command")[0] == 2
    assert invoke(capsys, "certify", "--window", "3")[0] == 2  # needs --r or --d
    assert invoke(capsys, "search", "--window", "x", "--coeffs", "1",
                  "--max-terms", "1")[0] == 2
    assert invoke(capsys, "search", "--window", "1/3", "--coeffs", "1", "--max-terms", "1") == \
        (2, "", "error: argument --window: 1/3 is not a half-integer\n")


# a literal past the int-string limit, which no option value may hold
_LONG = "1" * max(5000, sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("argv", [
    ["classify", "0"],
    ["classify", "L[1] (x) L[2]"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "0"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "1", "--jobs", "0"],
    ["invariants", "--rank", "2", "--window", "-1"],
    ["certify", "--r", "L[1] (x) L[-1] - L[-1] (x) L[1]", "--window", "0"],
    ["classify", "L[0] (x) L[2] - L[2] (x) L[0] + L[1] (x) M[0]"],
    ["certify", "--d", f"{_LONG},0,0,0,0,0", "--window", "2"],
    ["certify", "--d", "0,0,1,-1,0,0", "--window", _LONG],
    ["search", "--window", _LONG, "--coeffs", "1", "--max-terms", "1"],
    ["invariants", "--rank", "2", "--window", _LONG],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", _LONG],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "1", "--jobs", _LONG],
    ["invariants", "--rank", _LONG, "--window", "1"],
])
def test_library_input_errors_exit_2(capsys, argv):
    limit = sys.get_int_max_str_digits()
    if any(_LONG in a for a in argv) and not limit:
        pytest.skip("the int-string limit is off, so the window would be built")
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    if any(_LONG in a for a in argv):
        assert err.endswith(f"number longer than {limit} digits\n") and len(err) < 200


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


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["search", "-h"], ["bracket", "-h"]])
def test_help_returns_exit_0(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: sv " + " ".join(argv[:-1]).strip())
    assert err == ""


@pytest.mark.parametrize("command", ["cojacobi", "certify"])
def test_spec_options_documented(capsys, command):
    code, out, _ = invoke(capsys, command, "-h")
    assert code == 0
    assert re.search(r"--d CSV\s+six parameters a,a',b,b',g,g'", out)


# a value with its spaces and the same value without them; the spaceless
# value starts with '-', which argparse alone would take for an option
@pytest.mark.parametrize("argv", [
    ["bracket", "-1 * L[1]", "L[2]"],
    ["bracket", "L[1]", "-1/2 * Y[1/2] + M[0]"],
    ["act", "-2 * L[1]", "--on", "L[2] (x) M[0]"],
    ["act", "L[1]", "--on", "-1 * L[2] (x) M[0] + M[0] (x) L[2]"],
    ["act", "L[1]", "--on", "-1 * M[1]", "--format", "json"],
    ["cybe", "-1/2 * Y[1/2] (x) M[0] + 1/2 * M[0] (x) Y[1/2]"],
    ["cybe", "--mybe", "-1 * L[1] (x) L[-1] + L[-1] (x) L[1]"],
    ["classify", "-1 * L[0] (x) L[2] + L[2] (x) L[0]"],
    ["classify", "-1 * L[1] (x) L[2] + L[2] (x) L[1]", "--format", "json"],
])
def test_signed_values_read_with_or_without_spaces(capsys, argv):
    spaced = invoke(capsys, *argv)
    assert spaced[2] == ""
    assert invoke(capsys, *(a.replace(" ", "") for a in argv)) == spaced


@pytest.mark.parametrize("argv", [
    ["search", "--window", "1", "--coeffs", "-1,1", "--max-terms", "1"],
    ["search", "--window", "1", "--coe", "-1,1", "--max-terms", "1"],
    ["certify", "--d", "-1,1,0,0,0,0", "--window", "3"],
    ["cojacobi", "--d", "-1,1,0,0,0,0", "--window", "2"],
    ["certify", "--r", "-1*M[1](x)Y[1/2]+Y[1/2](x)M[1]", "--window", "3"],
    ["certify", "--r", "-1*L[1](x)L[-1]+L[-1](x)L[1]", "--window", "3", "--format", "json"],
])
def test_signed_option_values(capsys, argv):
    # the value as its own token reads as the value joined by '='
    i = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[:2] != "--")
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    got = invoke(capsys, *argv)
    assert got[0] in (0, 1) and got[2] == ""
    assert got == invoke(capsys, *joined)


def test_a_one_dash_token_is_a_value(capsys):
    code, out, err = invoke(capsys, "bracket", "-x", "L[1]")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1, column 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_results_past_the_int_string_limit(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the int-string limit is off")
    big = "9" * limit  # the longest number an input may hold
    assert invoke(capsys, "bracket", f"{big} * L[1]", "L[2]", *fmt)[0] == 0
    # a coefficient, then an index, of limit + 1 digits or more
    for x, y in [(f"{big} * L[1]", f"{big} * L[2]"), (f"L[{big}]", f"L[{big[1:]}8]")]:
        code, out, err = invoke(capsys, "bracket", x, y, *fmt)
        assert (code, out) == (2, "")
        assert err == f"error: the result has a number longer than {limit} digits\n"


# argv expressions for the fuzz test: printed values, printed values with
# their spaces removed (a leading '-' then touches the number), junk made of
# grammar tokens, and printed values with junk spliced in ('²' is a digit to
# str.isdigit and not to int, '\n' starts a new line of the input)
_PIECES = ["L[1]", "M[-2]", "Y[1/2]", "Y[1]", "L[0]", "M[0]", " (x) ", "⊗", " + ", " - ",
           "2 * ", "-1/2 * ", "0", "L", "[", "]", "/", "*", "-", "²", "$", "(", "\n"]
_junk = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
_ELEMENTS = ["L[1]", "0", "2 * M[-1] - Y[1/2]", "-1/2 * L[-2] + M[0]", "-1 * L[1]"]
_TENSORS = ["0", "L[1] (x) M[0]", "L[1] (x) L[2] - L[2] (x) L[1]",
            "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]", "L[0] (x) M[0] - M[0] (x) L[0] + M[0] (x) M[0]",
            "L[0] (x) M[2] - M[2] (x) L[0] + L[-1] (x) Y[1/2] - Y[1/2] (x) L[-1]",
            "-1/2 * Y[1/2] (x) M[0] + 1/2 * M[0] (x) Y[1/2]",
            "L[2] (x) Y[-1/2] (x) M[0] - 1/2 * M[0] (x) L[1] (x) L[1]"]
# --d values: printed parameter lists (skew, not skew, zero), and junk
_CSVS = ["1,-1,0,0,0,0", "0,0,1,-1,0,0", "1/2,-1/2,-2,2,3,-3", "1,0,0,0,0,0", "0,0,0,0,0,0"]
_csv_junk = st.lists(st.sampled_from(["1", "-1/2", "0", ",", "/", " ", "x", "1/0"]),
                     max_size=12).map("".join)
# --window values: every one is small, since nothing bounds a window yet; the
# first three suit both commands, certify needs at least 2 and no bound is negative
_WINDOWS = ["2", "5/2", "3", "1", "0", "-1", "1/3", "x"]
_GOOD_WINDOWS = {"certify": {"2", "5/2", "3"}, "cojacobi": {"2", "5/2", "3", "1", "0"}}


@st.composite
def _exprs(draw, printed):
    text, junk = draw(st.sampled_from(printed)), draw(_junk)
    how = draw(st.sampled_from(["printed", "bare", "bare", "spliced", "junk"]))
    if how == "spliced":
        at = draw(st.integers(0, len(text)))
        return text[:at] + junk + text[at:]
    return {"printed": text, "bare": text.replace(" ", ""), "junk": junk}[how]


@st.composite
def _argvs(draw):
    """An argv, and the parser of each of its values when parsing them is
    all that may fail (classify also rejects tensors that parse; certify and
    cojacobi also need a suitable window and one of --r and --d)."""
    command = draw(st.sampled_from(["bracket", "act", "cybe", "cybe --mybe", "classify",
                                    "certify", "cojacobi"]))
    if command == "bracket":
        x, y = draw(_exprs(_ELEMENTS)), draw(_exprs(_ELEMENTS))
        argv, parsers = ["bracket", x, y], [(parse_element, x), (parse_element, y)]
    elif command == "act":
        x, on = draw(_exprs(_ELEMENTS)), draw(_exprs(_ELEMENTS + _TENSORS))
        argv, parsers = ["act", x, "--on", on], [(parse_element, x), (parse_source, on)]
    elif command in _GOOD_WINDOWS:
        window = draw(st.sampled_from(_WINDOWS[:3]) | st.sampled_from(_WINDOWS[3:]))
        argv, parsers = [command, "--window", window], []
        for option in draw(st.sampled_from([("--r",), ("--d",), ("--r", "--d"), ()])):
            value = draw(_exprs(_TENSORS) if option == "--r"
                         else st.sampled_from(_CSVS) | _csv_junk)
            parse = parse_tensor2 if option == "--r" else _derivation
            argv, parsers = argv + [option, value], parsers + [(parse, value)]
        if not parsers or window not in _GOOD_WINDOWS[command]:
            parsers = None
    else:
        r = draw(_exprs(_TENSORS))
        argv, parsers = command.split() + [r], [(parse_tensor2, r)]
        if command == "classify":
            parsers = None
    return argv + draw(st.sampled_from([[], ["--format", "json"]])), parsers


def _parses(parse, text) -> bool:
    try:
        parse(text)
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError):
        return False
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_argvs())
def test_argv_fuzz_keeps_the_exit_contract(drawn):
    argv, parsers = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if parsers is not None and all(_parses(*p) for p in parsers):
        assert code != 2, (argv, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv
        if "json" in argv:
            assert json.loads(out)["exit_code"] == code
