#!/usr/bin/env python3
"""Run-to-run spread of the gapbench end-to-end metrics.

Runs each workload once per seed and prints, per metric, the median and
the interquartile range as a share of the median (statistics.quantiles,
n=4), next to the metric's bound in BENCHMARK.json.  Run from the root of
a checkout after building once with gapbench/run.sh:

    python3 gapbench/stability.py --runs 10 [--workload serve-hot ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                ["bash", os.path.join(ROOT, "gapbench", "run.sh"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:12s} median {med:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds.get(name, float('nan')):.0%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
