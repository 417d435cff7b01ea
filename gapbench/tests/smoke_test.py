#!/usr/bin/env python3
"""gapbench smoke test: every workload at scale 8, untraced and traced.

Checks that each run exits 0 with correct=true, that every metric
BENCHMARK.json names is printed with its unit and a finite value, and that
the trace file parses, every span's parent exists, the spans of one
operation share its id, and self times are never negative.

    smoke_test.py <gapbench binary> <BENCHMARK.json>
"""
import json
import math
import os
import subprocess
import sys

WORKLOADS = ["gap-suite", "serve-hot", "serve-cold", "serve-mixed"]


def fail(message):
    sys.exit("FAIL: " + message)


def check_metrics(label, stdout, specs):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: summary keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (parts[1], parts[2])
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            fail(f"{label}: {name} missing or not in {unit}")
        if not isinstance(metric["value"], (int, float)) or \
                not math.isfinite(metric["value"]):
            fail(f"{label}: {name} = {metric['value']}")
        if name not in printed or printed[name][1] != unit:
            fail(f"{label}: {name} not printed with its unit")
    if len(result["metrics"]) != len(specs):
        fail(f"{label}: {len(result['metrics'])} metrics, "
             f"expected {len(specs)}")


def check_trace(label, path):
    spans = {}
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            spans[span["id"]] = span
    if not spans:
        fail(f"{label}: empty trace")
    children = {}
    for span in spans.values():
        if span["end_ns"] < span["start_ns"]:
            fail(f"{label}: span {span['id']} ends before it starts")
        if span["parent"] == 0:
            if span["op"] != span["id"]:
                fail(f"{label}: root {span['id']} is not its operation")
            continue
        parent = spans.get(span["parent"])
        if parent is None:
            fail(f"{label}: span {span['id']} has no parent")
        if parent["op"] != span["op"]:
            fail(f"{label}: span {span['id']} left its operation")
        children.setdefault(span["parent"], []).append(span)
    for span in spans.values():
        covered, reach = 0, span["start_ns"]
        for lo, hi in sorted(
                (max(c["start_ns"], span["start_ns"]),
                 min(c["end_ns"], span["end_ns"]))
                for c in children.get(span["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        if span["end_ns"] - span["start_ns"] - covered < 0:
            fail(f"{label}: negative self time on span {span['id']}")


def main():
    binary, benchmark = sys.argv[1], sys.argv[2]
    spec = json.load(open(benchmark))
    for workload in WORKLOADS:
        for traced in (False, True):
            label = workload + (" traced" if traced else "")
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--scale", "8",
                 "--trace", "1" if traced else "0"],
                capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                fail(f"{label}: exit {out.returncode}\n{out.stderr}")
            check_metrics(label, out.stdout,
                          spec["per_layer" if traced else "end_to_end"])
            if traced:
                # Traced runs write their spans beside the binary.
                check_trace(label, os.path.join(
                    os.path.dirname(os.path.abspath(binary)),
                    f"trace-{workload}-5.jsonl"))
            print(f"ok {label}")


if __name__ == "__main__":
    main()
