#!/usr/bin/env python3
"""Append-only perf history: one row per change in perf/trajectory.jsonl.

A row records which tree was measured (git sha, plus "dirty" when the
measured tree had uncommitted changes on top of that sha), the host it
ran on (nproc, compiler, GM_THREADS), and per gapbench workload the
median of each end-to-end metric over that workload's runs.

    # median rows from gapbench summary lines (the JSON each run prints
    # last), one file of lines per workload:
    python3 tools/trajectory.py append --sha <sha> [--dirty] \\
        --label <text> serve-mixed=runs.jsonl [gap-suite=...] ...

    # every row parses and carries the keys above (CI tier 0):
    python3 tools/trajectory.py check [perf/trajectory.jsonl]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "..", "perf",
                            "trajectory.jsonl")
ENV_KEYS = ("nproc", "compiler", "gm_threads")


def environment():
    """The host fingerprint a row carries."""
    try:
        compiler = subprocess.run(
            [os.environ.get("CXX", "c++"), "--version"],
            capture_output=True, text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        compiler = "unknown"
    return {
        "nproc": os.cpu_count() or 0,
        "compiler": compiler,
        "gm_threads": os.environ.get("GM_THREADS", "unset"),
    }


def medians(path):
    """Run count and per-metric medians of the gapbench summaries in
    @p path; a run that failed a correctness check is an error."""
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    if not runs:
        sys.exit(f"{path}: no gapbench summaries")
    for run in runs:
        if not run.get("correct") or run.get("failed", 0) != 0:
            sys.exit(f"{path}: a run failed its correctness check")
    names = sorted(set().union(*(run["metrics"] for run in runs)))
    return {
        "runs": len(runs),
        "median": {
            name: statistics.median(run["metrics"][name]["value"]
                                    for run in runs
                                    if name in run["metrics"])
            for name in names
        },
    }


def append(args):
    workloads = {}
    for spec in args.workloads:
        name, _, path = spec.partition("=")
        if not path:
            sys.exit(f"expected <workload>=<file>, got {spec!r}")
        workloads[name] = medians(path)
    row = {"sha": args.sha, "dirty": args.dirty, "label": args.label,
           "env": environment(), "workloads": workloads}
    problems = row_problems(row)
    if problems:
        sys.exit("; ".join(problems))
    with open(args.path, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


def row_problems(row):
    """Why @p row is not a valid trajectory row (empty when it is)."""
    problems = []
    if not isinstance(row, dict):
        return ["not a JSON object"]
    if not re.fullmatch(r"[0-9a-f]{40}", str(row.get("sha", ""))):
        problems.append("sha is not a 40-hex git sha")
    if not isinstance(row.get("dirty"), bool):
        problems.append("dirty is not a boolean")
    if not isinstance(row.get("label"), str) or not row["label"]:
        problems.append("label is missing")
    env = row.get("env")
    if not isinstance(env, dict) or any(k not in env for k in ENV_KEYS):
        problems.append("env lacks one of " + ", ".join(ENV_KEYS))
    workloads = row.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        problems.append("workloads is missing or empty")
        return problems
    for name, w in workloads.items():
        median = w.get("median") if isinstance(w, dict) else None
        if (not isinstance(w, dict) or not isinstance(w.get("runs"), int)
                or w["runs"] < 1 or not isinstance(median, dict)
                or not median or not all(
                    isinstance(v, (int, float)) for v in median.values())):
            problems.append(f"workload {name} lacks runs or medians")
    return problems


def check(args):
    bad = 0
    with open(args.path) as f:
        for number, line in enumerate(f, 1):
            try:
                problems = row_problems(json.loads(line))
            except json.JSONDecodeError as e:
                problems = [f"does not parse: {e}"]
            for problem in problems:
                print(f"{args.path}:{number}: {problem}", file=sys.stderr)
                bad += 1
    if bad:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("append", help="append one row of medians")
    a.add_argument("--sha", required=True)
    a.add_argument("--dirty", action="store_true")
    a.add_argument("--label", required=True)
    a.add_argument("--path", default=DEFAULT_PATH)
    a.add_argument("workloads", nargs="+", metavar="WORKLOAD=FILE")
    a.set_defaults(run=append)
    c = sub.add_parser("check", help="validate every row")
    c.add_argument("path", nargs="?", default=DEFAULT_PATH)
    c.set_defaults(run=check)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
