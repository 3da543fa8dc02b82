#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1]
                                [--vary-seed] [--seconds S]

Runs perfbench/run.py N times on one seed (or, with --vary-seed, on seeds
seed, seed+1, ...). For every end-to-end metric in BENCHMARK.json it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median, and flags every metric,
setup_s included, whose spread exceeds its bound. This is how the bounds in
BENCHMARK.json were set, and how to re-check them.
Exits 1 if any flagged metric or any failed run was seen.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    bad_runs = 0
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        result = run_once(args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"] != 0:
            bad_runs += 1
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed={seed}: " + ", ".join(
            f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    flagged = 0
    print(f"\n{args.workload}: {args.runs} runs, "
          f"{'seeds vary' if args.vary_seed else f'seed {args.seed}'}, "
          f"{args.seconds} s each")
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        series = values[m["name"]]
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        over = spread > m["bound"]
        flagged += over
        note = "  OVER BOUND" if over else (
            "  above bound/3" if spread > m["bound"] / 3 else "")
        print(f"  {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6.3g}{note}")
    if bad_runs:
        print(f"  {bad_runs} run(s) reported incorrect output or failed ops")
    return 1 if flagged or bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())
