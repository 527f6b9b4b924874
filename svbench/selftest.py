"""Tests of the benchmark itself: the reference agrees with svlie on a seeded
sample, and a corrupted answer is counted as a failed job.

    python3 svbench/selftest.py

Run from the root of a checkout; svlie is imported from ``src/``.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import tempfile
import time
import unittest
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import svlie as sv  # noqa: E402
import svlie.cli  # noqa: E402,F401

import reference as R  # noqa: E402
import run as B  # noqa: E402
import workloads as W  # noqa: E402


def rng(n=0):
    return random.Random(f"selftest:{n}")


class ReferenceAgreesWithSvlie(unittest.TestCase):
    def test_structure_constants(self):
        basis = R.window(6)
        for a, b in itertools.product(basis, repeat=2):
            hit = sv.bracket_basis(W.sv_bv(sv, a), W.sv_bv(sv, b))
            want = R.bracket_basis(a, b)
            got = None if hit is None else (hit[0], W.ref_bv(hit[1]))
            self.assertEqual(got, want, (a, b))

    def test_actions_and_yang_baxter(self):
        g = rng(1)
        for _ in range(60):
            x = W.rand_element(g, g.choice([1, 2, 3]))
            t2, t3 = W.rand_tensor(g, 2, g.choice([1, 2, 4])), W.rand_tensor(g, 3, 2)
            xs, t2s = W.sv_element(sv, x), W.sv_tensor2(sv, t2)
            t3s = sv.Tensor3([(tuple(W.sv_bv(sv, b) for b in k), c) for k, c in t3.items()])
            self.assertEqual(W.ref_of(sv.diag_act2(xs, t2s)), R.act(x, t2))
            self.assertEqual(W.ref_of(sv.diag_act3(xs, t3s)), R.act(x, t3))
            self.assertEqual(W.ref_of(sv.yang_baxter_c(t2s)), R.yang_baxter(t2))

    def test_bracket_of_elements(self):
        g = rng(2)
        for _ in range(60):
            x, y = W.rand_element(g, 3), W.rand_element(g, 2)
            got = sv.bracket(W.sv_element(sv, x), W.sv_element(sv, y))
            self.assertEqual(W.ref_of(got), R.bracket(x, y))

    def test_family_images(self):
        g = rng(3)
        for kind in ("skew", "nonskew", "skew", "nonskew"):
            d = W.family(g, kind)
            spec = sv.SpecialDerivation(*d)
            for bv in R.window(4):
                self.assertEqual(W.ref_of(spec.apply_basis(W.sv_bv(sv, bv))), R.family_image(d, bv))

    def test_axioms_agree(self):
        g = rng(4)
        cases = [(W.yb_solution(g, "L0^Y"), W.family(g, "zero")),
                 ({}, W.family(g, "skew")),
                 (W.yb_non_solution(g, "LL"), W.family(g, "zero")),
                 (W.yb_solution(g, "M^Y"), W.family(g, "nonskew"))]
        for r, d in cases:
            report = sv.check_axioms(sv.CocommutatorSpec(W.sv_tensor2(sv, r), sv.SpecialDerivation(*d)),
                                     sv.HalfInt(4))
            self.assertEqual(report.all_ok, R.axioms_hold(R.Cocommutator(r, d), 4), (r, d))

    def test_taxonomy_by_support_inclusion(self):
        cfg = sv.SearchConfig(sv.HalfInt(3), (F(1), F(-1)), 2, 1)
        tops = {}
        for r in sv.enumerate_skew_candidates(cfg):
            p, top = sv.highest_component(r)
            tops[sv.canonical_key(top)] = (p, top)
        self.assertGreater(len(tops), 200)
        for p, top in tops.values():
            got = sorted(str(lab) for lab in sv.classify_highest(top, p))
            self.assertEqual(got, R.classify_top(W.ref_of(top)), str(top))

    def test_brute_force_search(self):
        for w2, coeffs, k in ((2, (F(1),), 2), (1, (F(-1), F(2)), 2), (3, (F(1), F(2)), 1)):
            sols = sv.search_cybe(sv.SearchConfig(sv.HalfInt(w2), coeffs, k, 1))
            self.assertEqual({R.normalise(W.ref_of(r)) for r in sols},
                             R.brute_force_solutions(w2, coeffs, k))

    def test_text_forms(self):
        g = rng(5)
        for _ in range(40):
            t = W.rand_tensor(g, g.choice([2, 3]), 3)
            self.assertEqual(R.parse(R.show(t)), t)
            W.check_parse_roundtrip(sv, sv.parse_source(R.show(t)).value)
        x = W.rand_element(g, 3)
        self.assertEqual(W.ref_of(sv.parse_element(R.show(x))), x)


def corrupted(job, corrupt):
    return W.Job(job.kind, lambda: corrupt(job.run()), job.check)


def flip(t):
    """The same tensor with the sign of its first coefficient flipped."""
    (key, c), *rest = t.terms()
    return type(t)([(key, -c)] + rest)


class CorruptedAnswersFail(unittest.TestCase):
    def play(self, jobs):
        run = B.Run()
        run.play(jobs)
        return run

    def test_every_workload_passes_unchanged(self):
        for name in ("certify", "solve"):
            run = self.play(W.WORKLOADS[name](sv, W.round_rng(5, name, 0), None))
            self.assertEqual((run.failed, run.wrong), (0, 0), run.problems)

    def test_certify_flipped_counterexample(self):
        jobs = W.certify_round(sv, W.round_rng(5, "certify", 0), None)
        bad = []
        for job in jobs:
            res = job.run()
            cx = res.report.counterexample
            if cx is not None:
                fake = sv.CertifyResult(res.verdict, res.reason, sv.AxiomReport(
                    res.report.image_skew, res.report.co_jacobi, res.report.compatibility,
                    sv.Counterexample(cx.axiom, cx.inputs, flip(cx.value))))
                bad.append(W.Job(job.kind, lambda fake=fake: fake, job.check))
        self.assertTrue(bad)
        run = self.play(bad)
        self.assertEqual((run.failed, run.wrong), (len(bad), len(bad)))

    def test_certify_wrong_verdict(self):
        jobs = W.certify_round(sv, W.round_rng(6, "certify", 0), None)

        def lie(res):
            other = W.BNC if res.verdict == W.TRI else W.TRI
            return sv.CertifyResult(other, None, res.report)

        run = self.play([corrupted(job, lie) for job in jobs])
        self.assertEqual(run.failed, len(jobs))

    def test_search_flipped_solution(self):
        job = W.search_job(sv, 2, (F(1), F(2)), 2)
        run = self.play([corrupted(job, lambda res: ([flip(res[0][0])] + res[0][1:], res[1]))])
        self.assertEqual((run.failed, run.wrong), (1, 1))
        dropped = W.search_job(sv, 2, (F(1),), 2, brute_force=True)
        run = self.play([corrupted(dropped, lambda res: (res[0][1:], res[1][1:]))])
        self.assertEqual((run.failed, run.wrong), (1, 1))

    def test_solve_flipped_witness(self):
        job = W.roundtrip_job(sv, W.rand_tensor(rng(7), 2, 4))

        def corrupt(res):
            table, comps, witnesses, w = res
            return table, comps, witnesses, flip(w)

        run = self.play([corrupted(job, corrupt)])
        self.assertEqual((run.failed, run.wrong), (1, 1))

    def test_cli_flipped_sign(self):
        with tempfile.TemporaryDirectory() as tmp:
            jobs = [j for j in W.cli_round(sv, W.round_rng(5, "cli", 0), tmp) if j.kind != "usage"]
            run = self.play(jobs)
            self.assertEqual((run.failed, run.wrong), (0, 0), run.problems)

            def corrupt(res):
                code, out, err = res
                return code, out.replace(" + ", " - ", 1) if " + " in out else "-" + out, err

            brackets = [j for j in jobs if j.kind in ("bracket", "act")]
            run = self.play([corrupted(j, corrupt) for j in brackets])
            self.assertEqual(run.wrong, len(brackets))


class ScalingToReferenceSpeed(unittest.TestCase):
    def test_each_job_takes_the_mean_of_its_two_blocks(self):
        blocks = iter([1.0, 3.0, 5.0])     # round start, after 0.25 s of jobs, round end
        saved = B.calibrate, B.CAL_REF_S
        B.calibrate, B.CAL_REF_S = (lambda: next(blocks)), 2.0
        try:
            run = B.Run()
            run.play([W.Job("sleep", lambda: time.sleep(0.3), lambda _: None),
                      W.Job("sleep", lambda: time.sleep(0.01), lambda _: None)])
        finally:
            B.calibrate, B.CAL_REF_S = saved
        self.assertRaises(StopIteration, next, blocks)
        first, second = run.latencies
        self.assertAlmostEqual(run.scaled[0], first * 2.0 / 2.0)
        self.assertAlmostEqual(run.scaled[1], second * 2.0 / 4.0)
        self.assertAlmostEqual(run.round_scaled_wall[0], sum(run.scaled))


class TracerWrapsAndRestores(unittest.TestCase):
    def test_install_counts_and_uninstall_restores(self):
        import tracer as T

        before = {id(v) for m in (sv.tensors, sv.bialgebra, sv.cli) for v in vars(m).values()}
        tr = T.Tracer()
        tr.install()
        tr.enabled = True
        W.run_cli(sv, ["act", "L[1]", "--on", "M[1] (x) Y[1/2]"])
        tr.enabled = False
        tr.uninstall()
        after = {id(v) for m in (sv.tensors, sv.bialgebra, sv.cli) for v in vars(m).values()}
        self.assertEqual(before, after)
        m = T.layer_metrics(tr)
        self.assertEqual(m["cli.commands"][0], 1)
        self.assertEqual(m["tensors.diag_act2_calls"][0], 1)
        self.assertGreater(m["exprs.format_s"][0], 0)

    def test_missing_name_reads_zero(self):
        import tracer as T

        saved = T.SPANNED
        T.SPANNED = saved + (("exprs", "no_such_function", None),)
        try:
            tr = T.Tracer()
            tr.install()
            tr.uninstall()
            self.assertEqual(tr.calls["no_such_function"], 0)
        finally:
            T.SPANNED = saved


if __name__ == "__main__":
    unittest.main()
