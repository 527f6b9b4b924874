"""Self-checking benchmark of svlie: one workload per run, closed loop.

    python3 svbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: svlie is imported from ``src/`` there and
nowhere else.  The run sets up (imports svlie, generates the first round of
inputs from the seed, writes table files), then runs whole rounds of jobs,
one job at a time, until the timed jobs have taken ``--seconds`` and at
least ``MIN_JOBS`` jobs and ``MIN_ROUNDS`` rounds are done.  After each
round every output is checked against the reference model; a job that
raises or answers wrongly fails.  Every time is scaled to a reference
speed by calibration blocks run next to the jobs (see ``calibrate``),
because the shared host's speed drifts by up to a factor of two.
``setup_s`` is the median over ``SETUP_PROBES`` fresh processes, run
between rounds, of the time from spawning the process to the point where
it would start its first timed job.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run plays rounds until they
hold ``MIN_JOBS`` jobs, each round first untraced and then again with every
svlie module boundary wrapped, writes the spans to ``svbench/out/`` and
reports the per-layer metrics of the traced pass; the rounds are fixed by
the seed, so the counts repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

import reference as R

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_JOBS = 100
MIN_ROUNDS = 3
SETUP_PROBES = 9

# Calibration.  The speed of the shared host drifts by a factor of up to
# two over seconds to minutes, and a whole 20 s run can fall in a slow
# spell.  So every job time is scaled by the time of a fixed task of the
# benchmark's own reference model, measured right before and after it:
# c(r) of CAL_R, median of CAL_REPS repeats, with the cyclic GC off so that
# svlie's heap cannot slow it.  CAL_REF_S is that median on the reference
# machine in a quiet spell (see README.md), so scaled times read as seconds on
# that machine.  A block runs at the start and end of every round and
# between jobs once CAL_EVERY_S of job time has passed since the last.
CAL_R = {(("L", 2), ("Y", 1)): F(1), (("Y", 1), ("L", 2)): F(-1),
         (("M", -2), ("L", 0)): F(3), (("L", 0), ("M", -2)): F(-3),
         (("Y", -1), ("Y", 3)): F(2), (("Y", 3), ("Y", -1)): F(-2)}
CAL_REPS = 5
CAL_EVERY_S = 0.25
CAL_REF_S = 0.92e-3


def cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def clock() -> float:
    """CLOCK_MONOTONIC, which every process on the machine reads alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Median time of one reference c(CAL_R), after one warm-up."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        R.yang_baxter(CAL_R)
        times = []
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            R.yang_baxter(CAL_R)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def import_svlie():
    sys.path.insert(0, SRC)
    import svlie as sv
    import svlie.cli  # noqa: F401

    if not os.path.abspath(sv.__file__).startswith(os.path.join(SRC, "svlie")):
        raise ImportError(f"svlie came from {sv.__file__}, not from {SRC}")
    return sv


def probe_setup(args) -> float:
    """Set-up time of a fresh process, from spawn to ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = clock()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - t0


class Run:
    """Counts, latencies and checks of the jobs of one run."""

    def __init__(self, tracer=None):
        self.attempted = self.failed = self.wrong = 0
        self.latencies: list[float] = []      # seconds as measured
        self.scaled: list[float] = []         # seconds at the reference speed
        self.round_wall: list[float] = []     # as measured, per round
        self.round_scaled_wall: list[float] = []
        self.round_scaled_cpu: list[float] = []
        self.problems: dict = {}
        self.tracer = tracer
        self.metrics: dict = {}
        self.measured: dict = {}              # unscaled figures, for the log

    def play(self, jobs) -> None:
        """Run one round back to back, then check every output."""
        results, spans, cals = [], [], [calibrate()]
        since = 0.0
        tr = self.tracer
        for job in jobs:
            if since >= CAL_EVERY_S:
                cals.append(calibrate())
                since = 0.0
            if tr is not None:
                tr.job, tr.enabled = len(self.latencies), True
            c0 = cpu_s()
            t0 = time.perf_counter()
            try:
                out, exc = job.run(), None
            except Exception as e:  # a raising job is a failed job
                out, exc = None, e
            t1 = time.perf_counter()
            c1 = cpu_s()
            if tr is not None:
                tr.enabled = False
            results.append((job, out, exc))
            spans.append((t1 - t0, c1 - c0, len(cals) - 1))
            since += t1 - t0
        cals.append(calibrate())
        wall = cpu = 0.0
        for lat, cpu_t, k in spans:
            scale = 2 * CAL_REF_S / (cals[k] + cals[k + 1])
            self.latencies.append(lat)
            self.scaled.append(lat * scale)
            wall += lat * scale
            cpu += cpu_t * scale
        self.round_wall.append(sum(lat for lat, _, _ in spans))
        self.round_scaled_wall.append(wall)
        self.round_scaled_cpu.append(cpu)
        for job, out, exc in results:
            self.attempted += 1
            if exc is None:
                try:
                    job.check(out)
                    continue
                except Exception as e:  # any checker error is a wrong answer
                    self.wrong += 1
                    exc = e
            self.failed += 1
            key = f"{job.kind}: {type(exc).__name__}: {str(exc)[:160]}"
            self.problems[key] = self.problems.get(key, 0) + 1

    def report_problems(self) -> None:
        for key, n in sorted(self.problems.items()):
            print(f"failed x{n}  {key}", file=sys.stderr)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("certify", "search", "solve", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "svlie", "__init__.py")):
        print(f"error: no svlie sources under {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    make_round = W.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        sv = import_svlie()
        first = make_round(sv, W.round_rng(args.seed, args.workload, 0), workdir)
        if args.setup_probe:
            print(repr(clock()))
            return 0

        def rounds():
            yield first
            n = 1
            while True:
                yield make_round(sv, W.round_rng(args.seed, args.workload, n), workdir)
                n += 1

        if args.trace:
            result = traced(rounds(), args.workload)
        else:
            result = untraced(rounds(), args.seconds, lambda: probe_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.report_problems()
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in result.measured.items():
        print(f"{args.workload} {name} unscaled = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {result.attempted}  failed = {result.failed}"
          f"  wrong = {result.wrong}  rounds = {len(result.round_wall)}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def untraced(rounds, seconds: float, probe) -> Run:
    """Play rounds for `seconds` of timed jobs.  Between rounds, set-up
    probes are spread over the run, so that they meet the same machine load
    as the jobs; each is scaled by calibrations right before and after it."""
    run = Run()
    setups: list[float] = []

    def probe_scaled() -> float:
        before = calibrate()
        raw = probe()
        return raw * 2 * CAL_REF_S / (before + calibrate())

    for jobs in rounds:
        run.play(jobs)
        done = sum(run.round_wall)
        while len(setups) < SETUP_PROBES and done * SETUP_PROBES >= seconds * len(setups):
            setups.append(probe_scaled())
        if done >= seconds and run.attempted >= MIN_JOBS and len(run.round_wall) >= MIN_ROUNDS:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_scaled())
    lat_ms = [x * 1000 for x in run.scaled]
    run.metrics = {
        "wall_s": (statistics.median(run.round_scaled_wall), "s"),
        "cpu_s": (statistics.median(run.round_scaled_cpu), "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    run.measured = {
        "wall_s": (statistics.median(run.round_wall), "s"),
        "job_p50_ms": (statistics.median(run.latencies) * 1000, "ms"),
    }
    return run


def traced(rounds, workload: str) -> Run:
    """Play each round untraced and then traced, so that the two passes
    see the same machine load, until the traced pass holds MIN_JOBS jobs.
    Attempts and failures are those of the traced pass."""
    import tracer as T

    tr = T.Tracer()
    plain, run = Run(), Run(tracer=tr)
    for jobs in rounds:
        plain.play(jobs)
        tr.install()
        try:
            run.play(jobs)
        finally:
            tr.uninstall()
        if run.attempted >= MIN_JOBS:
            break
    run.wrong += plain.wrong    # a wrong answer in either pass is wrong
    run.metrics = T.layer_metrics(tr)
    run.metrics["trace.overhead_s"] = (sum(run.round_wall) - sum(plain.round_wall), "s")
    tr.write(os.path.join(OUT, f"trace-{workload}.csv"))
    return run


if __name__ == "__main__":
    sys.exit(main())
