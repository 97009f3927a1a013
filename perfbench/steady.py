"""Steadiness report: repeat each workload with different seeds and print the
median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 [--workload rays ...] [--first-seed N]

Every run is as long as `run_seconds` in BENCHMARK.json, a separate process,
started and waited for one at a time. Spread is (Q3 - Q1) / median with
quartiles from statistics.quantiles(n=4); the bounds in BENCHMARK.json are
set from it. A workload is steady when every run is correct and fails the
same share of its operations, and every end-to-end metric's spread, set-up
time's too, is within its bound; the exit code is 0 only if all are. The
spread is also given as a share of the bound: a change smaller than the
spread cannot be told from the machine's own drift.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"]:
                steady = False
                print(f"{wl} seed {seed}: correct is false")
            shares.add((doc["failed"], doc["attempted"], doc["failed"] / doc["attempted"]))
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in doc["metrics"].items()), flush=True)
        print(f"{wl}: failed/attempted {sorted(shares)}")
        if len({s[2] for s in shares}) > 1:
            steady = False
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] else "  ABOVE the bound"
            if flag:
                steady = False
            print(f"  {name:14s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {spread:.2%}, {spread / bounds[name]:.2f} of the bound{flag}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
