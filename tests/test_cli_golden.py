"""Byte-for-byte golden transcript of the README's `sv` command list.

Each argv runs through `cli.run` in text and in JSON; the transcript records
the argv, the exit code, stdout and stderr.  Refactors must leave it
unchanged.  To rewrite the golden file after a deliberate output change:

    python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.txt")

# the README's inner-table example, written out on window 2
TABLE = """\
# inner table of M[2] (x) M[0]
L[0]  -> 2 * M[2] (x) M[0]
L[1]  -> 2 * M[3] (x) M[0]
L[-1] -> 2 * M[1] (x) M[0]
L[2]  -> 2 * M[4] (x) M[0]
L[-2] -> 2 * M[0] (x) M[0]
M[0] -> 0
M[1] -> 0
M[-1] -> 0
M[2] -> 0
M[-2] -> 0
Y[1/2] -> 0
Y[-1/2] -> 0
Y[3/2] -> 0
Y[-3/2] -> 0
"""

TABLE_ARG = "table.txt"

COMMANDS = [
    ["bracket", "L[1]", "L[-1]"],
    ["act", "L[1]", "--on", "M[2] (x) M[-2]"],
    ["cybe", "M[1] (x) Y[1/2] - Y[1/2] (x) M[1]"],
    ["cybe", "--mybe", "L[1] (x) L[-1] - L[-1] (x) L[1]"],
    ["cojacobi", "--d", "1,-1,1,-1,0,0", "--window", "6"],
    ["certify", "--d", "0,0,1,-1,0,0", "--window", "6"],
    ["classify", "L[1] (x) L[2] - L[2] (x) L[1]"],
    ["classify", "L[0] (x) M[0] - M[0] (x) L[0]"],
    ["classify", "L[0] (x) M[0] - M[0] (x) L[0] + M[1] (x) M[-1] - M[-1] (x) M[1]"],
    ["search", "--window", "1", "--coeffs", "-1,0,1", "--max-terms", "2", "--jobs", "2"],
    ["invariants", "--rank", "2", "--window", "3"],
    ["invariants", "--rank", "3", "--window", "1"],
    ["derive-check", TABLE_ARG, "--window", "2"],
    ["decompose", TABLE_ARG],
]


def transcript(table_path: pathlib.Path) -> str:
    from svlie.cli import run

    table_path.write_text(TABLE, encoding="utf-8")
    chunks = []
    for fmt in ([], ["--format", "json"]):
        for argv in COMMANDS:
            shown = fmt + argv
            real = [str(table_path) if a == TABLE_ARG else a for a in shown]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(real)
            chunks.append(f"$ sv {' '.join(repr(a) for a in shown)}\n"
                          f"exit {code}\n--- stdout\n{out.getvalue()}"
                          f"--- stderr\n{err.getvalue()}\n")
    return "".join(chunks)


def test_readme_commands_match_golden(tmp_path):
    assert transcript(tmp_path / TABLE_ARG) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(pathlib.Path(tmp) / TABLE_ARG), encoding="utf-8")
    print(f"wrote {GOLDEN}")
