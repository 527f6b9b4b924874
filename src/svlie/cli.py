"""Command-line surface.

Subcommands map one-to-one onto the library operations; output is plain
text or, with --format json, a single structured document.  Exit codes:
0 for success or a positive mathematical answer, 1 for a negative
mathematical answer (equation violated, axiom failed, no candidate class),
2 for usage or parse errors.  Identical argument vectors produce
byte-identical output, including under --jobs > 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import HalfInt
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


def _halfint(text: str) -> HalfInt:
    try:
        return HalfInt.of(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _coeff_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list: {exc}") from None


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser unchanged, so one parser serves every run
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                     help="output format (default text)")

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

    p = sub.add_parser("cojacobi", parents=[fmt], help="co-Jacobi identity on a window")
    p.add_argument("--r", metavar="TENSOR")
    p.add_argument("--d", metavar="CSV", help="six parameters a,a',b,b',g,g'")
    p.add_argument("--window", type=_halfint, default=HalfInt.of(6))

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
    p.add_argument("--max-terms", type=int, required=True, metavar="K")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("invariants", parents=[fmt],
                       help="tensors invariant under the whole algebra")
    p.add_argument("--rank", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--window", type=_halfint, required=True)

    p = sub.add_parser("certify", parents=[fmt], help="Lie bialgebra certification")
    p.add_argument("--r", metavar="TENSOR")
    p.add_argument("--d", metavar="CSV")
    p.add_argument("--window", type=_halfint, default=HalfInt.of(6))

    return top


def _spec_from_args(ns) -> CocommutatorSpec:
    if ns.r is None and ns.d is None:
        raise UsageError("at least one of --r and --d is required")
    r = parse_tensor2(ns.r) if ns.r is not None else Tensor2.zero()
    try:
        d = SpecialDerivation.from_csv(ns.d) if ns.d is not None else SpecialDerivation.zero()
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --d value: {exc}") from None
    return CocommutatorSpec(r, d)


def _cmd_bracket(ns):
    from .algebra import bracket

    result = bracket(parse_element(ns.x), parse_element(ns.y))
    return 0, format_value(result), {"command": "bracket", "result": format_value(result)}


def _cmd_act(ns):
    x = parse_element(ns.x)
    src = parse_source(ns.on)
    act = diag_act3 if src.rank == 3 else diag_act2
    result = act(x, src.value)
    return 0, format_value(result), {"command": "act", "result": format_value(result)}


def _cmd_cybe(ns):
    r = parse_tensor2(ns.r)
    if ns.mybe:
        ok, name = check_mybe(r), "MYBE"
    else:
        ok, name = check_cybe(r), "CYBE"
    text = f"{name}: {'satisfied' if ok else 'violated'}"
    payload = {"command": "cybe", "equation": name.lower(),
               "input": format_value(r), "satisfied": ok}
    return (0 if ok else 1), text, payload


def _cmd_cojacobi(ns):
    failure = _first_cojacobi_failure(window_scan_order(ns.window),
                                      image_memo(_spec_from_args(ns)))
    if failure is None:
        payload = {"command": "cojacobi", "holds": True, "window": str(ns.window)}
        return 0, f"co-Jacobi: holds (window {ns.window})", payload
    bv, defect = failure.inputs[0], format_value(failure.value)
    payload = {"command": "cojacobi", "holds": False, "fails_at": str(bv),
               "defect": defect, "window": str(ns.window)}
    return 1, f"co-Jacobi: fails at {bv}\ndefect: {defect}", payload


def _load_table(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    payload = {"command": "derive-check", "window": str(window),
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
            lines.append(f"  {bv} -> {format_value(img)}")
            entries[str(bv)] = format_value(img)
        payload_comps[str(degree)] = entries
    if not comps:
        lines.append("zero table: no components")
    payload = {"command": "decompose", "components": payload_comps}
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
    payload = {"command": "classify", "top_degree": str(p), "labels": names,
               "candidate": not not_candidate}
    return (1 if not_candidate else 0), text, payload


def _cmd_search(ns):
    cfg = SearchConfig(ns.window, ns.coeffs, ns.max_terms, ns.jobs)
    solutions = search_cybe(cfg)
    coeff_echo = ",".join(str(c) for c in cfg.coeffs)
    lines = [format_value(r) for r in solutions]
    lines.append(f"count: {len(solutions)}")
    lines.append(f"window: {cfg.bound}  coeffs: {coeff_echo}  "
                 f"max-terms: {cfg.max_terms}  jobs: {cfg.jobs}")
    payload = {"command": "search",
               "config": {"window": str(cfg.bound), "coeffs": coeff_echo,
                          "max_terms": cfg.max_terms, "jobs": cfg.jobs},
               "count": len(solutions),
               "solutions": [format_value(r) for r in solutions]}
    return 0, "\n".join(lines), payload


def _cmd_invariants(ns):
    basis = invariant_tensors(ns.rank, ns.window)
    lines = [format_value(t) for t in basis]
    lines.append(f"dimension: {len(basis)}")
    payload = {"command": "invariants", "rank": ns.rank, "window": str(ns.window),
               "dimension": len(basis), "basis": [format_value(t) for t in basis]}
    return 0, "\n".join(lines), payload


def _cmd_certify(ns):
    spec = _spec_from_args(ns)
    result = certify(spec, ns.window)
    if result.verdict == "NotBialgebra":
        text = f"Lie bialgebra: no ({result.reason})"
        code = 1
    else:
        tri = "yes" if result.is_triangular_coboundary else "no"
        text = f"Lie bialgebra: yes; triangular coboundary: {tri}"
        code = 0
    payload = {"command": "certify", "verdict": result.verdict,
               "bialgebra": result.is_bialgebra,
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


_VALUE_OPTIONS = ("--coeffs", "--d", "--r", "--on")


def _merge_values(argv: list[str]) -> list[str]:
    # let option values start with '-' (negative coefficients, signed terms)
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv=None) -> int:
    """Execute one command; returns the exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_values(list(argv))
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        code, text, payload = _HANDLERS[ns.command](ns)
    except (UsageError, ValueError) as exc:
        # ValueError covers the library's input errors: ParseError,
        # ZeroInputError, NotSkewError, NotHomogeneousError, ZeroDegreeError,
        # WitnessMismatchError, WindowTooSmallError and the SearchConfig and
        # basis_window bound checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(ns, "format", "text") == "json":
        payload["exit_code"] = code
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
