"""Seeded inputs, jobs and output checks for the four workloads.

A workload builds one *round* of jobs at a time from ``(seed, round)``.  A
round always holds the same strata in the same numbers, so every round
costs about the same and makes the same number of attempts; only the
parameters inside each stratum come from the seed.  A job is one
user-level call.  ``run`` makes the call and ``check`` raises ``Mismatch``
unless the answer agrees with the reference model in ``reference.py`` or
has a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction as F

import reference as R


class Mismatch(Exception):
    """An answer that the reference refutes."""


def need(cond, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


class Job:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind, self.run, self.check = kind, run, check


# -- conversions between svlie values and reference dicts -----------------

def ref_bv(bv):
    return (bv.kind, bv.index.twice)


def ref_of(value) -> dict:
    """Reference dict of an svlie Element, Tensor2 or Tensor3."""
    out = {}
    for key, c in value.terms():
        out[tuple(ref_bv(b) for b in key) if isinstance(key, tuple) else ref_bv(key)] = c
    return out


def sv_bv(sv, bv):
    return sv.BasisVector(bv[0], sv.HalfInt(bv[1]))


def sv_tensor2(sv, t: dict):
    return sv.Tensor2([((sv_bv(sv, a), sv_bv(sv, b)), c) for (a, b), c in t.items()])


def sv_element(sv, x: dict):
    return sv.Element([(sv_bv(sv, b), c) for b, c in x.items()])


# -- seeded building blocks -------------------------------------------------

COEFFS = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2), F(3))


def wedge(u, w, c=F(1)) -> dict:
    return {(u, w): c, (w, u): -c} if u != w else {}


def rand_bv(rng, kinds="LMY", bound2=4):
    kind = rng.choice(kinds)
    if kind == "Y":
        return ("Y", rng.choice([t for t in range(-bound2, bound2 + 1) if t % 2]))
    return (kind, 2 * rng.randint(-(bound2 // 2), bound2 // 2))


def rand_element(rng, terms: int, bound2=4) -> dict:
    x: dict = {}
    while len(x) < terms:
        x[rand_bv(rng, bound2=bound2)] = rng.choice(COEFFS)
    return x


def rand_tensor(rng, rank: int, terms: int, bound2=4) -> dict:
    t: dict = {}
    while len(t) < terms:
        t[tuple(rand_bv(rng, bound2=bound2) for _ in range(rank))] = rng.choice(COEFFS)
    return t


def rand_skew(rng, wedges: int, bound2=4) -> dict:
    r: dict = {}
    while len(r) < 2 * wedges:
        u, w = rand_bv(rng, bound2=bound2), rand_bv(rng, bound2=bound2)
        if u != w and (u, w) not in r:
            r = R.combine((1, r), (1, wedge(u, w, rng.choice(COEFFS))))
    return r


def yb_solution(rng, shape: str) -> dict:
    """A skew r with c(r) = 0 from a family whose status is known:
    Michaelis pairs a^b with [a, b] in Q.b (L0^L, L0^M, L0^Y), commuting
    pairs (Lk^M0, L2p^Yp, M^Y), and sums of M^M wedges (MM2, and MM3 with an
    M[0] (x) M[0] part)."""
    c = rng.choice(COEFFS)
    nonzero = [t for t in range(-4, 5) if t]
    if shape.startswith("L0^"):
        kind = shape[-1]
        tw = rng.choice([t for t in nonzero if t % 2 == (kind == "Y")])
        return wedge(("L", 0), (kind, tw), c)
    if shape == "Lk^M0":
        return wedge(("L", 2 * rng.choice([-2, -1, 1, 2])), R.M0, c)
    if shape == "L2p^Yp":
        p2 = rng.choice([-3, -1, 1, 3])
        return wedge(("L", 2 * p2), ("Y", p2), c)
    if shape == "M^Y":
        return wedge(rand_bv(rng, "M"), rand_bv(rng, "Y"), c)
    terms = int(shape[2:])
    r: dict = {}
    while len(r) < 2 * terms:
        r = R.combine((1, r), (1, wedge(rand_bv(rng, "M"), rand_bv(rng, "M"), rng.choice(COEFFS))))
    if terms == 3:
        r[(R.M0, R.M0)] = rng.choice(COEFFS)
    return r


def yb_non_solution(rng, kinds: str) -> dict:
    """A skew sum of wedges a^b, a of kind kinds[0] and b of kind kinds[1],
    one wedge per pair of kinds given, whose c(r) is not a multiple of
    M0 (x) M0 (x) M0."""
    while True:
        r: dict = {}
        for i in range(0, len(kinds), 2):
            r = R.combine((1, r), (1, wedge(rand_bv(rng, kinds[i]), rand_bv(rng, kinds[i + 1]),
                                            rng.choice(COEFFS))))
        if len(r) == len(kinds):
            c = R.yang_baxter(r)
            if c and not R.is_invariant(c):
                return r


def family(rng, kind: str) -> tuple:
    if kind == "zero":
        return (F(0),) * 6
    while True:
        a, b, g = (rng.choice((F(0),) + COEFFS) for _ in range(3))
        if a or b or g:
            break
    if kind == "skew":
        return (a, -a, b, -b, g, -g)
    d = [a, -a, b, -b, g, -g]
    i = rng.randrange(6)
    d[i] += rng.choice(COEFFS)
    return tuple(d)


# -- checks shared by several workloads --------------------------------------

TRI, BNC, NOT = "TriangularCoboundary", "BialgebraNotCoboundary", "NotBialgebra"


def expected_verdict(r: dict, d: tuple):
    """The verdict the theory fixes, or None when only the axioms decide."""
    r_skew = R.without_central_square(r)
    if not R.is_skew(r_skew) or not R.is_skew_family(d):
        return NOT
    c = R.yang_baxter(r_skew)
    if not any(d):
        if not c:
            return TRI
        return BNC if R.is_invariant(c) else NOT
    return BNC if not r_skew else None


def check_verdict(verdict: str, failure, r: dict, d: tuple, window2: int) -> None:
    """`failure` is (axiom, inputs, value) for an axiom counterexample,
    a reason string for a structural one, or None."""
    exp = expected_verdict(r, d)
    need(exp is None or verdict == exp, f"verdict {verdict}, theory says {exp}")
    r_skew = R.without_central_square(r)
    delta = R.Cocommutator(r, d)
    if verdict == TRI:
        need(not any(d) and R.is_skew(r_skew) and not R.yang_baxter(r_skew),
             "triangular verdict needs D = 0, r skew and c(r) = 0")
    elif verdict == BNC:
        need(R.is_skew(r_skew) and R.is_skew_family(d), "bialgebra needs skew r and D")
        need(any(d) or R.yang_baxter(r_skew), "coboundary missed")
        need(R.axioms_hold(delta, window2), "an axiom fails on the window")
    elif verdict == NOT:
        if isinstance(failure, tuple):
            axiom, inputs, value = failure
            need(set(inputs) <= set(R.window(window2)), "counterexample outside the window")
            need(R.axiom_fails(delta, axiom, inputs), f"{axiom} holds at {inputs}")
            need(R.axiom_value(delta, axiom, inputs) == value, "counterexample value differs")
        elif failure and "not skew" in failure:
            need(not R.is_skew(r_skew), "r is skew modulo M0 (x) M0")
        else:
            need(failure and not R.is_skew_family(d), "D is in the skew half")
    else:
        raise Mismatch(f"unknown verdict {verdict}")


def check_parse_roundtrip(sv, value) -> None:
    """parse(format(x)) == x for a nonzero x, with the printed form read
    back by both svlie's parser and the reference reader."""
    text = sv.format(value)
    need(sv.parse_source(text).value == value, f"parse(format(x)) != x for {text}")
    need(R.parse(text) == ref_of(value), f"printed form misreads as {text}")


# -- certify -----------------------------------------------------------------

CERTIFY_WINDOW2 = 12         # window 6, the default of certify and of `sv certify`
SOLUTION_SHAPES = ("L0^L", "L0^M", "L0^Y", "Lk^M0", "L2p^Yp", "M^Y", "MM2", "MM3")

# One job per entry and round: (r maker, r shape, D half).  Only indices and
# coefficients come from the seed, so every round costs about the same.
CERTIFY_ROUND = (
    *(("solution", shape, "zero") for shape in SOLUTION_SHAPES),
    ("solution", "L0^Y", "skew"), ("solution", "MM2", "skew"),
    ("solution", "L0^L", "nonskew"), ("solution", "M^Y", "nonskew"),
    ("zero", None, "skew"), ("zero", None, "skew"),
    ("non_solution", "LL", "zero"), ("non_solution", "LYYM", "zero"),
    ("non_solution", "LY", "skew"),
)


def certify_round(sv, rng, workdir) -> list:
    makers = {"solution": yb_solution, "non_solution": yb_non_solution,
              "zero": lambda _rng, _shape: {}}
    return [certify_job(sv, makers[maker](rng, shape), family(rng, dkind))
            for maker, shape, dkind in CERTIFY_ROUND]


def certify_job(sv, r: dict, d: tuple) -> Job:
    spec = sv.CocommutatorSpec(sv_tensor2(sv, r), sv.SpecialDerivation(*d))
    window = sv.HalfInt(CERTIFY_WINDOW2)

    def check(res):
        cx = res.report.counterexample
        failure = res.reason
        if res.verdict == NOT and cx is not None:
            failure = (cx.axiom, tuple(ref_bv(b) for b in cx.inputs), ref_of(cx.value))
        check_verdict(res.verdict, failure, r, d, CERTIFY_WINDOW2)

    return Job("certify", lambda: sv.certify(spec, window), check)


# -- search --------------------------------------------------------------------

# (jobs per round, window twice, max terms, nonzero coefficients).  Windows
# and term counts fix the candidate count; the seed picks the coefficients.
# Eight cheap one-wedge configs below the four window-1/2 ones and eight
# dearer ones above put the median in the middle of those four.
SEARCH_STRATA = (
    (8, (1, 2, 3), 1, 2),
    (4, (1,), 2, 2),
    (3, (2,), 2, 1),
    (3, (2,), 2, 2),
    (2, (3,), 2, 1),
)
SEARCH_COEFFS = (F(1), F(-1), F(2), F(-2), F(1, 2), F(3))


def search_coeffs(rng, n: int, opposite: bool) -> list:
    """n coefficients.  Two wedges with coefficients c and -c are one
    candidate up to scalar where c and d give two, so opposite pairs are
    chosen by slot, and only for one-wedge configs, whose candidate count
    they do not change."""
    if n == 1:
        return [rng.choice(SEARCH_COEFFS)]
    if opposite:
        c = rng.choice([c for c in SEARCH_COEFFS if c > 0])
        return [c, -c]
    while True:
        a, b = rng.sample(SEARCH_COEFFS, 2)
        if a != -b:
            return [a, b]


def search_round(sv, rng, workdir) -> list:
    """Slot j of a stratum takes its j-th window, an opposite pair on even
    j if it has one wedge, and the unused coefficient 0 on odd j, so that
    every round has the same shapes."""
    configs = []
    for count, windows, k, ncoeff in SEARCH_STRATA:
        for j in range(count):
            cs = search_coeffs(rng, ncoeff, opposite=k == 1 and j % 2 == 0)
            if j % 2:
                cs.append(F(0))
            configs.append((windows[j % len(windows)], tuple(cs), k))
    brute = rng.randrange(len(configs))
    return [search_job(sv, *cfg, brute_force=i == brute) for i, cfg in enumerate(configs)]


def search_job(sv, w2: int, coeffs: tuple, k: int, brute_force=False) -> Job:
    cfg = sv.SearchConfig(sv.HalfInt(w2), coeffs, k, 1)

    def run():
        sols = sv.search_cybe(cfg)
        return sols, [sv.classify_highest(top, p) for p, top in map(sv.highest_component, sols)]

    def check(res):
        sols, labels = res
        inside = set(R.window(w2))
        classes = set()
        for r, lab in zip(sols, labels):
            ref = ref_of(r)
            need(ref and R.is_skew(ref), "solution is zero or not skew")
            need(all(bv in inside for key in ref for bv in key), "solution leaves the window")
            need(len(ref) <= 2 * k, "too many wedges")
            need(not R.yang_baxter(ref), "solution violates c(r) = 0")
            _, top = R.top_component(ref)
            need(sorted(str(x) for x in lab) == R.classify_top(top), "classify label differs")
            classes.add(R.normalise(ref))
        need(len(classes) == len(sols), "solutions repeat up to a scalar")
        if brute_force:
            need(classes == R.brute_force_solutions(w2, coeffs, k),
                 "solution set differs from the brute-force enumeration")

    return Job("search", run, check)


# -- solve ---------------------------------------------------------------------

def solve_round(sv, rng, workdir) -> list:
    """Eight derivation-table round trips and ten special-family matches
    on seeded inputs, then the solvers over fixed windows: the invariant
    solvers have no input but their window, and rank 3 at window 3/2 is
    held at four jobs so that the slowest tenth of the jobs is one kind.
    The ten matches, the cheapest jobs, balance the ten solver jobs, so
    that the median falls mid-way among the round trips."""
    jobs = [roundtrip_job(sv, rand_tensor(rng, 2, 4, bound2=4)) for _ in range(8)]
    jobs += [special_match_job(sv, family(rng, rng.choice(["skew", "nonskew"])))
             for _ in range(10)]
    jobs += [invariants_job(sv, 2, w2) for w2 in (4, 5, 6)]
    jobs += [skew_space_job(sv, w2) for w2 in (4, 5, 6)]
    jobs += [invariants_job(sv, 3, 3) for _ in range(4)]
    return jobs


def invariants_job(sv, rank: int, w2: int) -> Job:
    want = {(R.M0,) * rank: F(1)}

    def check(basis):
        need([ref_of(t) for t in basis] == [want], "invariant line is not M0 (x) ... (x) M0")

    return Job("invariants", lambda: sv.invariant_tensors(rank, sv.HalfInt(w2)), check)


def skew_space_job(sv, w2: int) -> Job:
    def check(basis):
        n = len(R.window(w2))
        need(len(basis) == n * (n - 1) // 2 + 1, f"dimension {len(basis)} for n = {n}")
        for t in basis:
            ref = ref_of(t)
            need(all(R.is_skew(R.act_basis(g, ref)) for g in R.GENERATORS),
                 "a basis tensor has a non-skew generator image")

    return Job("skew_action_space", lambda: sv.skew_action_space(sv.HalfInt(w2)), check)


ROUNDTRIP_WINDOW2, MATCH_BOUND2 = 4, 4


def roundtrip_job(sv, v: dict) -> Job:
    v_sv = sv_tensor2(sv, v)

    def run():
        table = sv.inner_derivation_table(v_sv, sv.HalfInt(ROUNDTRIP_WINDOW2))
        comps = sv.decompose_derivation(table)
        witnesses = {a: sv.inner_witness_nonzero_degree(c, a) for a, c in comps.items() if a}
        return table, comps, witnesses, sv.match_inner_on_generators(table, sv.HalfInt(MATCH_BOUND2))

    def check(res):
        table, comps, witnesses, w = res
        images = {ref_bv(bv): ref_of(img) for bv, img in table.items()}
        need(set(images) == set(R.window(ROUNDTRIP_WINDOW2)), "table does not cover its window")
        need(all(images[x] == R.act_basis(x, v) for x in images), "table is not x -> x.v")
        total: dict = {}
        for a, comp in comps.items():
            for bv, img in comp.items():
                part = ref_of(img)
                need(set(R.graded_parts(part)) <= {bv.index.twice + a.twice}, "component not homogeneous")
                total[ref_bv(bv)] = R.combine((1, total.get(ref_bv(bv), {})), (1, part))
        need(all(total.get(x, {}) == images[x] for x in images), "components do not sum to the table")
        parts = R.graded_parts(v)
        for a, wit in witnesses.items():
            need(ref_of(wit) == parts.get(a.twice, {}), f"witness of degree {a} is not v_a")
        need(set(witnesses) == {a for a in comps if a}, "missing witness")
        need(w is not None, "no inner witness found")
        need(all(R.act_basis(g, ref_of(w)) == R.act_basis(g, v) for g in R.GENERATORS),
             "the witness and v act differently on a generator")
        check_parse_roundtrip(sv, w)

    return Job("roundtrip", run, check)


def special_match_job(sv, d: tuple) -> Job:
    table = sv.special_derivation_table(sv.SpecialDerivation(*d), sv.HalfInt(ROUNDTRIP_WINDOW2))

    def check(w):
        need(w is None, "special-family table matched an inner witness")

    return Job("special_match", lambda: sv.match_inner_on_generators(table, sv.HalfInt(MATCH_BOUND2)),
               check)


# -- cli -----------------------------------------------------------------------

# Usage errors whose contract is exit 2 with a one-line message.
USAGE_ERRORS = (
    ["classify", "0"],
    ["classify", "L[1] (x) L[2]"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "0"],
    ["search", "--window", "1", "--coeffs", "1", "--max-terms", "1", "--jobs", "0"],
    ["invariants", "--rank", "2", "--window", "-1"],
)
CLI_TABLE_WINDOW2 = 4


def write_tables(rng, workdir: str) -> dict:
    """Write the derivation-table files the cli jobs of one round read:
    inner tables of a Yang-Baxter solution and of a random tensor, and
    tables of the skew and non-skew halves of the family.  Their cost
    depends on the draw, so every round draws its own."""
    tables = {}
    makers = {
        "inner_solution": lambda: R.Cocommutator(yb_solution(rng, "L0^Y"), (F(0),) * 6),
        "inner_random": lambda: R.Cocommutator(rand_tensor(rng, 2, 3, bound2=4), (F(0),) * 6),
        "special_skew": lambda: R.Cocommutator({}, family(rng, "skew")),
        "special_nonskew": lambda: R.Cocommutator({}, family(rng, "nonskew")),
    }
    for name, make in makers.items():
        delta = make()
        lines = [f"{R.show_basis(x)} -> {R.show(delta(x))}" for x in R.window(CLI_TABLE_WINDOW2)]
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {name}\n" + "\n".join(lines) + "\n")
        tables[name] = (path, delta)
    return tables


def run_cli(sv, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sv.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_round(sv, rng, workdir) -> list:
    tables = write_tables(rng, workdir)
    specs = []
    for _ in range(5):
        x, y = rand_element(rng, rng.choice([1, 2, 3])), rand_element(rng, rng.choice([1, 2]))
        specs.append(("bracket", ["bracket", R.show(x), R.show(y)], (x, y)))
    for _ in range(4):
        x, t = rand_element(rng, rng.choice([1, 2])), rand_tensor(rng, rng.choice([2, 3]), 2)
        specs.append(("act", ["act", R.show(x), "--on", R.show(t)], (x, t)))
    for mybe in (False, False, True, True):
        r = (yb_solution(rng, rng.choice(SOLUTION_SHAPES)) if rng.random() < 0.5
             else yb_non_solution(rng, rng.choice(["LL", "LY"])))
        specs.append(("cybe", ["cybe", R.show(r)] + (["--mybe"] if mybe else []), (r, mybe)))
    for _ in range(4):
        r = rand_skew(rng, rng.choice([1, 2]))
        specs.append(("classify", ["classify", R.show(r)], r))
    for _ in range(2):
        r, d = rand_skew(rng, 1, bound2=2), family(rng, rng.choice(["zero", "skew"]))
        specs.append(("cojacobi", ["cojacobi", "--r", R.show(r), "--d", ",".join(map(str, d)),
                                   "--window", "1"], (r, d, 2)))
    for dkind in ("zero", "skew", "nonskew"):
        r = yb_solution(rng, rng.choice(SOLUTION_SHAPES)) if dkind == "zero" else {}
        d = family(rng, dkind)
        argv = ["certify", "--d", ",".join(map(str, d)), "--window", "2"]
        if r:
            argv[1:1] = ["--r", R.show(r)]
        specs.append(("certify", argv, (r, d, 4)))
    for rank, w in ((1, "3"), (2, "2"), (2, "3")):
        specs.append(("invariants", ["invariants", "--rank", str(rank), "--window", w], rank))
    for name in ("inner_solution", "special_skew", "inner_random"):
        path, delta = tables[name]
        specs.append(("derive-check", ["derive-check", path], delta))
    for name in ("inner_random", "special_nonskew"):
        path, delta = tables[name]
        specs.append(("decompose", ["decompose", path], delta))
    for argv in USAGE_ERRORS:
        specs.append(("usage", list(argv), None))
    jobs = []
    for i, (kind, argv, data) in enumerate(specs):
        as_json = i % 2 == 1
        if as_json:
            argv = argv + ["--format", "json"]
        jobs.append(cli_job(sv, kind, argv, data, as_json))
    return jobs


def cli_job(sv, kind: str, argv: list, data, as_json: bool) -> Job:
    def check(res):
        code, out, err = res
        if kind == "usage":
            need(code == 2 and not out and len(err.splitlines()) == 1
                 and err.startswith("error: "), "usage error is not exit 2 with one line")
            return
        need(not err, f"stderr: {err[:200]}")
        doc = json.loads(out) if as_json else None
        if doc is not None:
            need(doc.get("exit_code") == code, "json exit_code differs from the exit code")
        CLI_CHECKS[kind](code, out.rstrip("\n"), doc, data)

    return Job(kind, lambda: run_cli(sv, argv), check)


def _value(out: str, doc):
    return R.parse(doc["result"] if doc is not None else out)


def _check_bracket(code, out, doc, data):
    x, y = data
    need(code == 0 and _value(out, doc) == R.bracket(x, y), "bracket differs")


def _check_act(code, out, doc, data):
    x, t = data
    need(code == 0 and _value(out, doc) == R.act(x, t), "action differs")


def _check_cybe(code, out, doc, data):
    r, mybe = data
    c = R.yang_baxter(r)
    ok = R.is_invariant(c) if mybe else not c
    name = "MYBE" if mybe else "CYBE"
    need(code == (0 if ok else 1), "cybe exit code")
    if doc is None:
        need(out == f"{name}: {'satisfied' if ok else 'violated'}", "cybe text")
    else:
        need(doc["satisfied"] is ok and doc["equation"] == name.lower()
             and R.parse(doc["input"]) == r, "cybe json")


def _check_classify(code, out, doc, data):
    p2, top = R.top_component(data)
    labels = R.classify_top(top)
    p = str(F(p2, 2))
    cand = labels != ["NotCandidate"]
    need(code == (0 if cand else 1), "classify exit code")
    if doc is None:
        tail = ", ".join(labels) if cand else "NotCandidate (cannot head a CYBE solution)"
        need(out == f"top degree {p}: {tail}", "classify text")
    else:
        need(doc["labels"] == labels and doc["top_degree"] == p and doc["candidate"] is cand,
             "classify json")


_FAILS_AT = re.compile(r"^(image_skew|co_jacobi|compatibility) fails at (.+?): (.*)$")


def _failure_from_text(reason: str):
    m = _FAILS_AT.match(reason or "")
    if not m:
        return reason
    inputs = tuple(R.parse(s) for s in m.group(2).split(", "))
    return m.group(1), tuple(next(iter(x)) for x in inputs), R.parse(m.group(3))


def _check_cojacobi(code, out, doc, data):
    r, d, w2 = data
    delta = R.Cocommutator(r, d)
    bad = [x for x in R.window(w2) if R.cojacobi_defect(delta, x)]
    if doc is None:
        lines = out.splitlines()
        holds = lines[0].startswith("co-Jacobi: holds")
        where = lines[0].removeprefix("co-Jacobi: fails at ") if not holds else None
        defect = lines[1].removeprefix("defect: ") if not holds else None
    else:
        holds, where, defect = doc["holds"], doc.get("fails_at"), doc.get("defect")
    need(code == (0 if holds else 1) and holds == (not bad), "co-Jacobi verdict")
    if not holds:
        x = next(iter(R.parse(where)))
        need(R.cojacobi_defect(delta, x) == R.parse(defect), "co-Jacobi defect differs")


def _check_certify(code, out, doc, data):
    r, d, w2 = data
    if doc is None:
        if out.startswith("Lie bialgebra: no ("):
            verdict, reason = NOT, out[len("Lie bialgebra: no ("):-1]
        else:
            verdict = TRI if out.endswith("triangular coboundary: yes") else BNC
            reason = None
            need(out.startswith("Lie bialgebra: yes; triangular coboundary: "), "certify text")
    else:
        verdict, reason = doc["verdict"], doc["reason"]
        need(doc["bialgebra"] is (verdict != NOT)
             and doc["triangular_coboundary"] is (verdict == TRI), "certify json flags")
    need(code == (1 if verdict == NOT else 0), "certify exit code")
    check_verdict(verdict, _failure_from_text(reason), r, d, w2)


def _check_invariants(code, out, doc, rank):
    want = [{R.M0 if rank == 1 else (R.M0,) * rank: F(1)}]
    basis = doc["basis"] if doc is not None else out.splitlines()[:-1]
    need(code == 0 and [R.parse(t) for t in basis] == want, "invariant basis")
    need((doc["dimension"] if doc is not None else out.splitlines()[-1]) in (1, "dimension: 1"),
         "invariant dimension")


def _check_derive_check(code, out, doc, delta):
    ok = R.axioms_hold(delta, CLI_TABLE_WINDOW2)
    need(code == (0 if ok else 1), "derive-check exit code")
    skew = all(R.is_skew(delta(x)) for x in R.window(CLI_TABLE_WINDOW2))
    if doc is None:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        flag, reason = lines["image skew"] == "ok", lines.get("counterexample")
    else:
        flag, reason = doc["image_skew"], doc["counterexample"]
    need(flag == skew, "image skew flag")
    if not ok:
        failure = _failure_from_text(reason)
        need(isinstance(failure, tuple), "no counterexample")
        axiom, inputs, value = failure
        need(R.axiom_fails(delta, axiom, inputs) and R.axiom_value(delta, axiom, inputs) == value,
             "counterexample does not fail")


def _check_decompose(code, out, doc, delta):
    need(code == 0, "decompose exit code")
    if doc is None:
        comps, cur = {}, None
        for line in out.splitlines():
            if line.startswith("degree "):
                cur = comps.setdefault(line[len("degree "):-1], {})
            else:
                bv, img = line.strip().split(" -> ")
                cur[bv] = img
    else:
        comps = doc["components"]
    total: dict = {}
    for a, entries in comps.items():
        a2 = int(F(a) * 2)
        for bv_text, img_text in entries.items():
            bv, img = next(iter(R.parse(bv_text))), R.parse(img_text)
            need(set(R.graded_parts(img)) <= {bv[1] + a2}, "component not homogeneous")
            total[bv] = R.combine((1, total.get(bv, {})), (1, img))
    need(set(total) == set(R.window(CLI_TABLE_WINDOW2)), "components cover another window")
    need(all(total[x] == delta(x) for x in total), "components do not sum to the table")


CLI_CHECKS = {
    "bracket": _check_bracket, "act": _check_act, "cybe": _check_cybe,
    "classify": _check_classify, "cojacobi": _check_cojacobi, "certify": _check_certify,
    "invariants": _check_invariants, "derive-check": _check_derive_check,
    "decompose": _check_decompose,
}


WORKLOADS = {
    "certify": certify_round,
    "search": search_round,
    "solve": solve_round,
    "cli": cli_round,
}


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")
