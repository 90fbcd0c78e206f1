#!/usr/bin/env python3
"""Run every workload several times, interleaved, and report each end-to-end
metric's median, quartiles and spread beside its bound in BENCHMARK.json.

    python3 figbench/spread.py [--runs 10] [--first-seed 1]

Run from the repository root. Every workload in BENCHMARK.json runs at its
default rank count for run_seconds. Run i of every workload uses seed
first_seed + i, and the workloads take turns (a1 b1 c1 ... a2 b2 c2 ...), so
a slow phase of the host spreads over all of them instead of landing on one.
The spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). Exits nonzero when a run fails, reports
incorrect output, or when the failed share of operations differs between
runs of one workload.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            results[w].append(json.loads(lines[-1]))
            print(f"run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)

    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        print(f"\n{w}: {len(runs)} runs, correct={correct}, failed share {sorted(shares)}")
        print(f"  {'metric':16s} {'unit':5s} {'median':>12s} {'Q1':>12s} {'Q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {name:16s} {m['unit']:5s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {m['bound']:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
