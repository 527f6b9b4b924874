"""Spans and counts recorded from outside svlie, at its module boundaries.

``install`` replaces each named function by a wrapper at every svlie module
attribute that holds it, so a call is seen whichever module it is made
through (``diag_act2`` is imported by name into ``bialgebra`` and ``cli``);
``uninstall`` puts the originals back.  A method is named ``Class.method``
and wrapped on its class.  Functions called millions of times
(``bracket_basis``, the image lookups) are counted without a span.  A name
that svlie no longer has is skipped with a note on standard error, and its
figures read 0.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import sys
import time


def _size(value) -> int:
    # the term dict itself: support() would sort, inside the traced parent
    return len(value._terms)


# Spanned functions: (module, qualified name, hook).  A hook runs on the arguments and
# the result and adds to the tracer's counts.
def _term_pairs_act(tr, args, out):
    tr.counts["term_pairs"] += _size(args[0]) * _size(args[1])


def _term_pairs_yb(tr, args, out):
    tr.counts["term_pairs"] += _size(args[0]) ** 2
    if tr.active("search_cybe"):
        tr.counts["cybe_tests"] += 1


def _rref_rows(tr, args, out):
    tr.counts["rref_rows"] += tr.last_rows


def _candidates(tr, args, out):
    tr.counts["candidates"] += len(out)


def _solutions(tr, args, out):
    tr.counts["solutions"] += len(out)


def _parse_chars(tr, args, out):
    tr.counts["parse_chars"] += len(args[0])


SPANNED = (
    ("algebra", "bracket", None),
    ("tensors", "diag_act2", _term_pairs_act),
    ("tensors", "diag_act3", None),
    ("tensors", "yang_baxter_c", _term_pairs_yb),
    ("linalg", "_rref", _rref_rows),
    ("linalg", "invariant_tensors", None),
    ("linalg", "skew_action_space", None),
    ("bialgebra", "check_axioms", None),
    ("bialgebra", "certify", None),
    ("bialgebra", "check_cybe", None),
    ("bialgebra", "check_mybe", None),
    ("bialgebra", "cojacobi_defect", None),
    ("bialgebra", "inner_derivation_table", None),
    ("bialgebra", "decompose_derivation", None),
    ("bialgebra", "inner_witness_nonzero_degree", None),
    ("bialgebra", "match_inner_on_generators", None),
    ("classify", "enumerate_skew_candidates", _candidates),
    ("classify", "search_cybe", _solutions),
    ("classify", "highest_component", None),
    ("classify", "classify_highest", None),
    ("exprs", "parse_element", _parse_chars),
    ("exprs", "parse_tensor2", _parse_chars),
    ("exprs", "parse_tensor3", _parse_chars),
    ("exprs", "parse_source", _parse_chars),
    ("exprs", "parse_derivation_table", _parse_chars),
    ("algebra", "_Linear.__str__", None),   # the text form exprs.format prints
    ("cli", "run", None),
)

# Counted functions: (module, qualified name).
COUNTED = (
    ("algebra", "bracket_basis"),
    ("bialgebra", "CocommutatorSpec.image_basis"),
    ("bialgebra", "DerivationTable.image"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, job]
        self.stack: list[int] = []
        self.child_ns: list[int] = []
        self.calls: dict = {}
        self.busy_ns: dict = {}
        self.self_ns: dict = {}
        self.counts: dict = dict.fromkeys(
            ("term_pairs", "cybe_tests", "rref_rows", "candidates", "solutions", "parse_chars")
            + tuple(name for _, name in COUNTED), 0)
        for d in (self.calls, self.busy_ns, self.self_ns):
            d.update(dict.fromkeys((name for _, name, _ in SPANNED), 0))
        self.patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self.job = -1
        self.enabled = False    # on only while a job runs, never in its check
        self.last_rows = 0
        self.clock = time.perf_counter_ns

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name: str, fn, hook):
        tr = self
        calls, busy, selft = self.calls, self.busy_ns, self.self_ns
        measure_rows = name == "_rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if measure_rows:
                args = (list(args[0]),) + args[1:]
                tr.last_rows = len(args[0])
            parent = tr.stack[-1] if tr.stack else -1
            idx = len(tr.spans)
            rec = [name, 0, 0, parent, tr.job]
            tr.spans.append(rec)
            tr.stack.append(idx)
            tr.child_ns.append(0)
            rec[1] = start = tr.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = tr.clock()
                tr.stack.pop()
                inner = tr.child_ns.pop()
                dur = end - start
                if tr.child_ns:
                    tr.child_ns[-1] += dur
                calls[name] += 1
                busy[name] += dur
                selft[name] += dur - inner
            if hook is not None:
                hook(tr, args, out)
            return out

        return wrapper

    def count_wrap(self, name: str, fn):
        tr, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if not self.patches:
            self.patches = list(self._plan())
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _plan(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "svlie" or n.startswith("svlie."))]
        wanted = [(mod, name, lambda fn, name=name, hook=hook: self.wrap(name, fn, hook))
                  for mod, name, hook in SPANNED]
        wanted += [(mod, name, lambda fn, name=name: self.count_wrap(name, fn))
                   for mod, name in COUNTED]
        for mod, name, make in wanted:
            owner = sys.modules.get(f"svlie.{mod}")
            *cls_name, attr = name.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                print(f"trace: svlie.{mod}.{name} not found; its figures read 0", file=sys.stderr)
                continue
            wrapper = make(fn)
            if cls_name:
                yield owner, attr, fn, wrapper
                continue
            for m in modules:
                for key, value in vars(m).items():
                    if value is fn:
                        yield m, key, fn, wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{job}\n")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures: seconds are busy or self times, the rest counts."""
    s = {k: v / 1e9 for k, v in tr.busy_ns.items()}
    own = {k: v / 1e9 for k, v in tr.self_ns.items()}
    c, n = tr.counts, tr.calls
    parse = ("parse_element", "parse_tensor2", "parse_tensor3", "parse_source",
             "parse_derivation_table")
    tests = c["cybe_tests"]
    return {
        "algebra.bracket_basis_calls": (c["bracket_basis"], "count"),
        "tensors.diag_act2_calls": (n["diag_act2"], "count"),
        "tensors.diag_act2_s": (s["diag_act2"], "s"),
        "tensors.yang_baxter_c_calls": (n["yang_baxter_c"], "count"),
        "tensors.yang_baxter_c_s": (s["yang_baxter_c"], "s"),
        "tensors.term_pairs": (c["term_pairs"], "count"),
        "bialgebra.check_axioms_s": (s["check_axioms"], "s"),
        "bialgebra.certify_self_s": (own["certify"], "s"),
        "bialgebra.images_computed": (c["CocommutatorSpec.image_basis"], "count"),
        "bialgebra.table_lookups": (c["DerivationTable.image"], "count"),
        "bialgebra.match_inner_s": (s["match_inner_on_generators"], "s"),
        "bialgebra.decompose_s": (s["decompose_derivation"], "s"),
        "bialgebra.inner_witness_s": (s["inner_witness_nonzero_degree"], "s"),
        "linalg.rref_calls": (n["_rref"], "count"),
        "linalg.rref_rows": (c["rref_rows"], "count"),
        "linalg.rref_s": (s["_rref"], "s"),
        "linalg.row_build_s": (own["invariant_tensors"] + own["skew_action_space"]
                               + own["match_inner_on_generators"], "s"),
        "classify.enumerate_s": (s["enumerate_skew_candidates"], "s"),
        "classify.candidates": (c["candidates"], "count"),
        "classify.cybe_tests": (tests, "count"),
        "classify.solutions": (c["solutions"], "count"),
        "classify.useful_ratio": (c["solutions"] / tests if tests else 0.0, "ratio"),
        "classify.classify_highest_s": (s["classify_highest"], "s"),
        "classify.classify_calls": (n["classify_highest"], "count"),
        "exprs.parse_s": (sum(s[k] for k in parse), "s"),
        "exprs.parse_calls": (sum(n[k] for k in parse), "count"),
        "exprs.parse_chars": (c["parse_chars"], "count"),
        "exprs.format_s": (s["_Linear.__str__"], "s"),
        "cli.self_s": (own["run"], "s"),
        "cli.commands": (n["run"], "count"),
    }
