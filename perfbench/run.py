"""Benchmark of the `fatou` command line, run in process.

    python3 perfbench/run.py --workload rays --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload's commands through `fatou.cli.dispatch`
(stdout captured, no threads of its own, FATOU_THREADS left as the user has
it) until --seconds have passed, checks every output with the independent
checks in checks.py, and prints one JSON object as the last line of stdout:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of a traced run (spans are written to perfbench/out/). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Setup:
    """Set-up time: a fresh process imports fatou.cli and builds the
    workload's maps. Samples are spread over the run, so that one slow spell
    of the machine does not set the median."""

    def __init__(self, map_names, seconds: float):
        self.code = ("import time\nt0 = time.perf_counter()\nimport fatou.cli\n"
                     "from fatou.catalog import by_name\n"
                     f"for name in {list(map_names)!r}:\n    by_name(name)\n"
                     "print(time.perf_counter() - t0)\n")
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.last = -float("inf")

    def sample(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.split()[-1]))
        self.last = time.perf_counter()

    def maybe_sample(self):
        if len(self.times) < SETUP_REPEATS and time.perf_counter() - self.last >= self.every:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def load_package():
    if not (SRC / "fatou" / "cli.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'fatou'}")
    sys.path.insert(0, str(SRC))
    import fatou.cli
    if Path(fatou.cli.__file__).resolve().parent != (SRC / "fatou").resolve():
        raise SystemExit(f"imported fatou from {fatou.cli.__file__}, not from {SRC}")
    return fatou.cli


def load_maps(cli) -> dict:
    """Catalog maps as the benchmark's own numpy maps, from `catalog --coeffs`."""
    rc, out, err, _ = call(cli, ["catalog", "--coeffs"])
    if rc != 0:
        raise SystemExit(f"fatou catalog --coeffs failed: {err.strip()}")
    return {m["name"]: checks.Map(m["num"], m["den"]) for m in json.loads(out)["maps"]}


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.dispatch(list(argv))
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            rc = f"uncaught {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


class Tally:
    def __init__(self):
        self.rounds = 0
        self.seconds = 0.0
        self.unexpected = []  # failures not covered by the fault named on the op
        self.outcomes = {}  # op label -> failure reason (None on success) of each attempt
        self.rays_reported = 0
        self.op_seconds = {}  # op label -> seconds of each attempt
        self.op_work = {}  # op label -> work delivered over all attempts

    def rate(self) -> float:
        """Work per second of a typical round: each operation's work per
        attempt over the median of its attempt times, summed over the round.
        The median keeps a slow or fast spell of the machine during one
        round from setting the figure."""
        work = sum(w / len(self.op_seconds[k]) for k, w in self.op_work.items())
        return work / sum(statistics.median(t) for t in self.op_seconds.values())

    def record(self, op, rc, out, err, dt):
        self.seconds += dt
        self.op_seconds.setdefault(op.label, []).append(dt)
        self.op_work.setdefault(op.label, 0)
        reason = None
        if rc != 0:
            first = (err.strip().splitlines() or [""])[-1]
            reason = f"exit {rc}: {first[:120]}"
            known = op.fault == "a" and rc == 1 and "RootFindingError" in err
        else:
            try:
                work = op.check(out)
            except checks.CheckFailed as exc:
                reason, known = f"check: {exc}", op.fault == "b"
            except Exception as exc:
                reason, known = f"checker crashed: {type(exc).__name__}: {exc}", False
        self.outcomes.setdefault(op.label, []).append(reason)
        if reason is None:
            self.op_work[op.label] += work
            if op.argv[0] == "ray":
                self.rays_reported += work
        elif not known:
            self.unexpected.append(f"{op.label}: {reason}")


def failures(tallies, unexpected: list) -> int:
    """Operations of one round that failed. Every round runs the same
    operations, so `attempted` and `failed` are given per round and do not
    grow with the program's speed; an operation that fails in some attempts
    only counts as failed and is reported as unexpected."""
    outcomes = {}
    for t in tallies:
        for label, reasons in t.outcomes.items():
            outcomes.setdefault(label, []).extend(reasons)
    failed = 0
    for label, reasons in sorted(outcomes.items()):
        bad = [r for r in reasons if r is not None]
        if not bad:
            continue
        failed += 1
        print(f"failed {len(bad)} of {len(reasons)}: {label}: {bad[0]}")
        if len(bad) < len(reasons):
            unexpected.append(f"{label}: fails in {len(bad)} of {len(reasons)} attempts")
    return failed


def run_round(cli, ops, rng, tally: Tally, setup: Setup, trace=None):
    """One pass over every operation in seeded order; returns the seconds the
    operations took."""
    before = tally.seconds
    for i in rng.permutation(len(ops)):
        op = ops[i]
        span = trace.root_span("cli.dispatch") if trace else None
        rc, out, err, dt = call(cli, op.argv)
        if span:
            trace.end(span)
        tally.record(op, rc, out, err, dt)
        setup.maybe_sample()
    tally.rounds += 1
    return tally.seconds - before


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_package()
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    maps = load_maps(cli)
    images = {}  # first image of each render, for the scipy cross-check
    ops = workloads.build(args.workload, maps, OUT, rng, images)
    setup = Setup(sorted({op.argv[2] for op in ops}), args.seconds)

    plain, traced = Tally(), Tally()
    tr = tracer.Tracer() if args.trace else None
    round_s = []
    setup.sample()
    start = time.perf_counter()
    while True:
        round_s.append(run_round(cli, ops, rng, plain, setup))
        if tr:
            tr.install()
            try:
                run_round(cli, ops, rng, traced, setup, tr)
            finally:
                tr.uninstall()
        # whole rounds only; stop at the round end nearest to --seconds, after
        # at least two untraced rounds so that every command has a median
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / plain.rounds >= args.seconds and (tr or plain.rounds > 1):
            break
    setup_s = setup.median()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unexpected = plain.unexpected + traced.unexpected
    failed = failures((plain, traced), unexpected)
    for label, cls in images.items():
        ours, theirs = checks.count_components(cls), checks.scipy_components(cls)
        if theirs is not None and ours != theirs:
            unexpected.append(f"{label}: union-find finds {ours} components, "
                              f"scipy.ndimage.label {theirs}")
    print("untraced round seconds: " + " ".join(f"{t:.3f}" for t in round_s))
    print(f"{args.workload}: {plain.rounds} untraced and {traced.rounds} traced rounds of "
          f"{len(ops)} operations, {failed} of them failed, "
          f"{len(unexpected)} failures outside the named faults")
    for reason in unexpected:
        print(f"unexpected: {reason}")
    if tr:
        tr.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = tracer.layer_metrics(tr.spans, traced.rounds, traced.rays_reported)
        plain_round = plain.seconds / plain.rounds
        traced_round = traced.seconds / traced.rounds
        metrics["trace.overhead.s"] = {"value": traced_round - plain_round, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_round - plain_round) / plain_round, "unit": "%"}
    else:
        metrics = {
            "work_per_s": {"value": plain.rate(), "unit": "items/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
