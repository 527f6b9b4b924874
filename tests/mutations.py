"""Mutations of the library that the test suite must kill, re-run in one go.

Each entry replaces one exact piece of text in a copy of the whole tree
(without .git) and runs `pytest -x -q` on one test file inside that copy,
so the copy's own src/ is imported (pyproject.toml puts src/ on the path).
A mutation is killed when that run fails.  Run from anywhere:

    python tests/mutations.py

It exits 1 if a mutation survives, if an entry's old text does not occur
exactly once, or if pytest cannot run its target; otherwise 0.  It is not a
test module, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALGEBRA = "src/svlie/algebra.py"
BIALGEBRA = "src/svlie/bialgebra.py"
CLASSIFY = "src/svlie/classify.py"
CLI = "src/svlie/cli.py"
EXPRS = "src/svlie/exprs.py"

BRACKETS = "The brackets are one six-row table."
SORT_KEY = "A basis vector is compared, hashed and sorted by one stored key."
CERTIFY = ("`certify` runs only the checks its theorem leaves open, on one "
           "first-failure scan shared with `check_axioms` and `sv cojacobi`.")
CLASSIFY_BY_PAIRS = ("One degree-blocked action-row builder for the three window "
                     "solvers, and classification by support-pair inclusion.")
TABLES = ("A derivation table is its images: `DerivationTable(images)` is the one "
          "constructor, and the window comes from the entries.")
ONE_ORACLE = "One oracle for the differential tests."
LIBRARY = ("The library is what its callers use: five names that only tests called "
           "leave `src/svlie`, and the tests solve through the one elimination kernel.")
ONE_PROCESS = ("The search runs in one process: the process pool leaves `classify`, "
               "and importing svlie no longer loads `multiprocessing`.")
CONTRACT = ("The `sv` contract is tested once, in tier-1; the CI \"sv entry point\" "
            "step is a four-line smoke test of the installed script.")
NUMBERS = "`sv` reads every number option by the grammar's rational rule."

# (file, old text, new text, test file that must fail, CHANGES.md entry)
MUTATIONS = [
    (ALGEBRA, '("L", "Y"): ("Y", -1, 2)', '("L", "Y"): ("Y", -2, 2)',
     "tests/test_algebra.py", BRACKETS),
    (ALGEBRA, '    ("Y", "Y"): ("M", -2, 2),\n', "",
     "tests/test_algebra.py", BRACKETS),
    (ALGEBRA, '("L", "M"): ("M", 0, 2)', '("L", "M"): ("L", 0, 2)',
     "tests/test_algebra.py", BRACKETS),
    (ALGEBRA, '("L", "M"): ("M", 0, 2)', '("L", "M"): ("M", 0, -2)',
     "tests/test_algebra.py", ONE_ORACLE),
    (ALGEBRA, '("Y", "Y"): ("M", -2, 2)', '("Y", "Y"): ("M", -2, 1)',
     "tests/test_algebra.py", ONE_ORACLE),
    (ALGEBRA, '"sort_key", (KIND_RANK[self.kind], self.index.twice)',
     '"sort_key", (self.index.twice, KIND_RANK[self.kind])',
     "tests/test_algebra.py", SORT_KEY),
    (ALGEBRA, '"sort_key", (KIND_RANK[self.kind], self.index.twice)',
     '"sort_key", (KIND_RANK[self.kind], abs(self.index.twice))',
     "tests/test_algebra.py", SORT_KEY),
    (BIALGEBRA, "True, skew or jacobi)", "True, jacobi or skew)",
     "tests/test_bialgebra.py", CERTIFY),
    (BIALGEBRA, "        if value:\n", "        if value is not None:\n",
     "tests/test_bialgebra.py", CERTIFY),
    (BIALGEBRA, "return min(gaps) - HalfInt(1)", "return min(gaps) - HalfInt(2)",
     "tests/test_bialgebra.py", TABLES),
    (BIALGEBRA, "2 * self.beta, 2 * self.beta_dag, bv", "self.beta, 2 * self.beta_dag, bv",
     "tests/test_bialgebra.py", ONE_ORACLE),
    (CLASSIFY, "any(sb < sa for _, sb in matched)", "any(sb > sa for _, sb in matched)",
     "tests/test_classify.py", CLASSIFY_BY_PAIRS),
    (CLASSIFY, "if support <= span]", "if support < span]",
     "tests/test_classify.py", CLASSIFY_BY_PAIRS),
    (ALGEBRA, '("L", "Y"): ("Y", -1, 2)', '("L", "Y"): ("Y", -1, 1)',
     "tests/test_tensors.py", ONE_ORACLE),
    (ALGEBRA, '("L", "Y"): ("Y", -1, 2)', '("L", "Y"): ("Y", -1, 1)',
     "tests/test_linalg.py", ONE_ORACLE),
    (BIALGEBRA, "DerivationTable({**zero, **images})", "DerivationTable(images)",
     "tests/test_bialgebra.py", TABLES),
    (ALGEBRA, '("L", "M"): ("M", 0, 2)', '("L", "M"): ("M", 1, 2)',
     "tests/test_bialgebra.py", ONE_PROCESS),
    (ALGEBRA, '("M", "L"): ("M", -2, 0)', '("M", "L"): ("M", 0, 2)',
     "tests/test_bialgebra.py", ONE_PROCESS),
    (CLI, "    sys.exit(run())", "    run()", "tests/test_cli.py", CONTRACT),
    (BIALGEBRA, "    def image_basis(self", "    def image_of_basis(self",
     "tests/test_tracer.py", LIBRARY),
    (EXPRS, '    parser.expect("END", "end of the number")\n', "",
     "tests/test_cli.py", NUMBERS),
    (CLI, "_read_rational(text, first_col)", "_read_rational(text)",
     "tests/test_cli.py", NUMBERS),
]

# pytest's exit codes for failed tests and for a collection error
_KILLED = (1, 2)


def run(tree: pathlib.Path, path: str, old: str, new: str, target: str) -> str:
    """Apply one mutation in `tree`, run its target, restore the file, and
    say what happened."""
    file = tree / path
    original = file.read_text()
    if original.count(old) != 1:
        return f"STALE: old text occurs {original.count(old)} times"
    file.write_text(original.replace(old, new))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", target],
            cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return "ERROR: timed out"
    finally:
        file.write_text(original)
    if done.returncode in _KILLED:
        failed = [line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return f"killed by {failed[0] if failed else 'a collection error'}"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {done.returncode}\n{done.stdout}{done.stderr}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for path, old, new, target, source in MUTATIONS:
            start = time.perf_counter()
            outcome = run(tree, path, old, new, target)
            bad += not outcome.startswith("killed")
            print(f"{outcome} ({time.perf_counter() - start:.1f} s): {path}: "
                  f"{old.strip()!r} -> {new.strip()!r}, {target}; from: {source}")
    print(f"{len(MUTATIONS) - bad} of {len(MUTATIONS)} mutations killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
