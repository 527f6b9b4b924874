"""Command-line surface.

Subcommands map one-to-one onto the library operations; output is plain
text or, with --format json, a single structured document.  Exit codes:
0 for success or a positive mathematical answer, 1 for a negative
mathematical answer (equation violated, axiom failed, no candidate class),
2 for usage or parse errors.  Identical argument vectors produce
byte-identical output.  `search --jobs` is validated and echoed but changes
nothing: the search runs in one process.

Every option is long except -h, so any other token that starts with a
single '-' is a value: a signed number, element or tensor, in an option's
value or a positional alike.  A number option reads its value by the
grammar's rational rule (see `exprs`), so `0.5`, `+2` and `1e5000` are
refused with the column of the offending character.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import HalfInt, bracket
from .bialgebra import (
    CocommutatorSpec,
    SpecialDerivation,
    Tensor2,
    _first_cojacobi_failure,
    certify,
    check_axioms,
    check_cybe,
    check_mybe,
    decompose_derivation,
    image_memo,
    window_scan_order,
)
from .classify import (NOT_CANDIDATE, SearchConfig, _require_skew, classify_highest,
                       highest_component, search_cybe)
from .exprs import (
    ParseError,
    _read_rational,
    format as format_value,
    parse_derivation_table,
    parse_element,
    parse_source,
    parse_tensor2,
)
from .linalg import invariant_tensors
from .tensors import diag_act2, diag_act3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-") and not arg_string.startswith("--") and arg_string != "-h":
            return None  # a value (see the module docstring)
        return super()._parse_optional(arg_string)


def _rational(text: str, first_col: int = 1) -> Fraction:
    """One option value by the grammar's rational rule; `first_col` is the
    column of its first character within the whole option value."""
    try:
        return _read_rational(text, first_col)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"column {exc.col}: {exc.message}") from None


def _integer(text: str) -> int:
    """One integer option value: a rational with denominator 1."""
    q = _rational(text)
    if q.denominator != 1:
        raise argparse.ArgumentTypeError(f"{q} is not an integer")
    return q.numerator


def _halfint(text: str) -> HalfInt:
    try:
        return HalfInt.of(_rational(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _coeff_list(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals; columns count from the start of `text`."""
    values, col = [], 1
    for part in text.split(","):
        values.append(_rational(part, col))
        col += len(part) + 1
    return tuple(values)


def _derivation(text: str) -> SpecialDerivation:
    """The six parameters a,a',b,b',g,g' of a family member."""
    if text.count(",") != 5:
        raise argparse.ArgumentTypeError("expected six comma-separated rationals")
    return SpecialDerivation(*_coeff_list(text))


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser unchanged, so one parser serves every run
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                     help="output format (default text)")
    # the cocommutator Delta_r + D that cojacobi and certify read
    spec = _Parser(add_help=False)
    spec.add_argument("--r", metavar="TENSOR")
    spec.add_argument("--d", type=_derivation, metavar="CSV",
                      help="six parameters a,a',b,b',g,g'")
    spec.add_argument("--window", type=_halfint, default=HalfInt.of(6))

    top = _Parser(prog="sv", parents=[fmt],
                  description="Exact workbench for the Schrodinger-Virasoro Lie algebra.")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bracket", parents=[fmt], help="Lie bracket of two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("act", parents=[fmt], help="diagonal adjoint action of an element")
    p.add_argument("x")
    p.add_argument("--on", required=True, metavar="TENSOR")

    p = sub.add_parser("cybe", parents=[fmt], help="classical Yang-Baxter check c(r) = 0")
    p.add_argument("r")
    p.add_argument("--mybe", action="store_true",
                   help="check the modified equation x.c(r) = 0 instead")

    sub.add_parser("cojacobi", parents=[fmt, spec], help="co-Jacobi identity on a window")

    p = sub.add_parser("derive-check", parents=[fmt],
                       help="axiom report for a derivation table file")
    p.add_argument("file")
    p.add_argument("--window", type=_halfint, default=None,
                   help="check window (default: the table's own window)")

    p = sub.add_parser("decompose", parents=[fmt],
                       help="homogeneous components of a derivation table file")
    p.add_argument("file")

    p = sub.add_parser("classify", parents=[fmt],
                       help="classify the highest component of a skew tensor")
    p.add_argument("r")

    p = sub.add_parser("search", parents=[fmt], help="brute-force Yang-Baxter solutions")
    p.add_argument("--window", type=_halfint, required=True)
    p.add_argument("--coeffs", type=_coeff_list, required=True, metavar="LIST")
    p.add_argument("--max-terms", type=_integer, required=True, metavar="K")
    p.add_argument("--jobs", type=_integer, default=1)

    p = sub.add_parser("invariants", parents=[fmt],
                       help="tensors invariant under the whole algebra")
    p.add_argument("--rank", type=_integer, required=True, metavar="{1,2,3}")
    p.add_argument("--window", type=_halfint, required=True)

    sub.add_parser("certify", parents=[fmt, spec], help="Lie bialgebra certification")

    return top


def _spec_from_args(ns) -> CocommutatorSpec:
    if ns.r is None and ns.d is None:
        raise UsageError("at least one of --r and --d is required")
    r = parse_tensor2(ns.r) if ns.r is not None else Tensor2.zero()
    return CocommutatorSpec(r, ns.d if ns.d is not None else SpecialDerivation.zero())


def _cmd_bracket(ns):
    result = format_value(bracket(parse_element(ns.x), parse_element(ns.y)))
    return 0, result, {"result": result}


def _cmd_act(ns):
    x = parse_element(ns.x)
    src = parse_source(ns.on)
    # on an element (rank 1) the diagonal action is the bracket
    act = {1: bracket, 2: diag_act2, 3: diag_act3}[src.rank]
    result = format_value(act(x, src.value))
    return 0, result, {"result": result}


def _cmd_cybe(ns):
    r = parse_tensor2(ns.r)
    if ns.mybe:
        ok, name = check_mybe(r), "MYBE"
    else:
        ok, name = check_cybe(r), "CYBE"
    text = f"{name}: {'satisfied' if ok else 'violated'}"
    payload = {"equation": name.lower(), "input": format_value(r), "satisfied": ok}
    return (0 if ok else 1), text, payload


def _cmd_cojacobi(ns):
    failure = _first_cojacobi_failure(window_scan_order(ns.window),
                                      image_memo(_spec_from_args(ns)))
    if failure is None:
        payload = {"holds": True, "window": str(ns.window)}
        return 0, f"co-Jacobi: holds (window {ns.window})", payload
    bv, defect = failure.inputs[0], format_value(failure.value)
    payload = {"holds": False, "fails_at": str(bv), "defect": defect, "window": str(ns.window)}
    return 1, f"co-Jacobi: fails at {bv}\ndefect: {defect}", payload


def _load_table(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            return parse_derivation_table(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _cmd_derive_check(ns):
    table = _load_table(ns.file)
    window = ns.window if ns.window is not None else table.window
    report = check_axioms(table, window)
    lines = [
        f"image skew: {'ok' if report.image_skew else 'FAIL'}",
        f"co-Jacobi: {'ok' if report.co_jacobi else 'FAIL'}",
        f"compatibility: {'ok' if report.compatibility else 'FAIL'}",
    ]
    payload = {"window": str(window),
               "image_skew": report.image_skew, "co_jacobi": report.co_jacobi,
               "compatibility": report.compatibility, "counterexample": None}
    if report.counterexample is not None:
        lines.append(f"counterexample: {report.counterexample}")
        payload["counterexample"] = str(report.counterexample)
    return (0 if report.all_ok else 1), "\n".join(lines), payload


def _cmd_decompose(ns):
    table = _load_table(ns.file)
    comps = decompose_derivation(table)
    lines = []
    payload_comps = {}
    for degree, part in comps.items():
        lines.append(f"degree {degree}:")
        entries = {}
        for bv, img in part.items():
            entries[str(bv)] = text = format_value(img)
            lines.append(f"  {bv} -> {text}")
        payload_comps[str(degree)] = entries
    if not comps:
        lines.append("zero table: no components")
    payload = {"components": payload_comps}
    return 0, "\n".join(lines), payload


def _cmd_classify(ns):
    r = parse_tensor2(ns.r)
    _require_skew(r)
    p, top = highest_component(r)
    labels = classify_highest(top, p)
    names = sorted(str(lb) for lb in labels)
    not_candidate = names == [NOT_CANDIDATE]
    if not_candidate:
        text = f"top degree {p}: NotCandidate (cannot head a CYBE solution)"
    else:
        text = f"top degree {p}: {', '.join(names)}"
    payload = {"top_degree": str(p), "labels": names, "candidate": not not_candidate}
    return (1 if not_candidate else 0), text, payload


def _cmd_search(ns):
    cfg = SearchConfig(ns.window, ns.coeffs, ns.max_terms, ns.jobs)
    solutions = search_cybe(cfg)
    coeff_echo = ",".join(str(c) for c in cfg.coeffs)
    texts = [format_value(r) for r in solutions]
    lines = texts + [f"count: {len(solutions)}",
                     f"window: {cfg.bound}  coeffs: {coeff_echo}  "
                     f"max-terms: {cfg.max_terms}  jobs: {cfg.jobs}"]
    payload = {"config": {"window": str(cfg.bound), "coeffs": coeff_echo,
                          "max_terms": cfg.max_terms, "jobs": cfg.jobs},
               "count": len(solutions), "solutions": texts}
    return 0, "\n".join(lines), payload


def _cmd_invariants(ns):
    basis = invariant_tensors(ns.rank, ns.window)
    texts = [format_value(t) for t in basis]
    payload = {"rank": ns.rank, "window": str(ns.window),
               "dimension": len(basis), "basis": texts}
    return 0, "\n".join(texts + [f"dimension: {len(basis)}"]), payload


def _cmd_certify(ns):
    spec = _spec_from_args(ns)
    result = certify(spec, ns.window)
    if not result.is_bialgebra:
        text = f"Lie bialgebra: no ({result.reason})"
        code = 1
    else:
        tri = "yes" if result.is_triangular_coboundary else "no"
        text = f"Lie bialgebra: yes; triangular coboundary: {tri}"
        code = 0
    payload = {"verdict": result.verdict, "bialgebra": result.is_bialgebra,
               "triangular_coboundary": result.is_triangular_coboundary,
               "reason": result.reason, "window": str(ns.window)}
    return code, text, payload


_HANDLERS = {
    "bracket": _cmd_bracket,
    "act": _cmd_act,
    "cybe": _cmd_cybe,
    "cojacobi": _cmd_cojacobi,
    "derive-check": _cmd_derive_check,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "search": _cmd_search,
    "invariants": _cmd_invariants,
    "certify": _cmd_certify,
}


def run(argv=None) -> int:
    """Execute one command; returns the exit code instead of raising."""
    try:
        ns = _build_parser().parse_args(argv)
        code, text, payload = _HANDLERS[ns.command](ns)
    except SystemExit as exc:
        # -h or --help: argparse has printed the help text and exits 0
        return exc.code
    except (UsageError, ValueError) as exc:
        # ValueError covers the library's input errors: ParseError,
        # ZeroInputError, NotSkewError, NotHomogeneousError, ZeroDegreeError,
        # WitnessMismatchError, WindowTooSmallError and the SearchConfig and
        # basis_window bound checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(ns, "format", "text") == "json":
        print(json.dumps({"command": ns.command, **payload, "exit_code": code}, indent=2))
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
