#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on a tiny size of every workload.

Run from the repository root:

    python3 cfxbench/selftest.py

For each workload in BENCHMARK.json it checks that
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is printed exactly once, with the unit BENCHMARK.json
    gives, both as a `metric` line and in the final JSON object;
  * the oracles pass: exit code 0, "correct": true, no failed operations;
  * the exact counts repeat across two runs of one seed and change under
    another seed.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCALE = "0.05"
SECONDS = "1"


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s seed %d trace %d exited %d\n%s\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-3000:],
            proc.stderr[-3000:]))
    return lines


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def check_metrics(workload, lines, expected):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: oracle divergence or failed ops: %s" % (workload, lines[-1]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted must be a positive integer" % workload)
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            if name in printed:
                fail("%s: metric %s printed twice" % (workload, name))
            printed[name] = (float(value), unit)
    want = {m["name"]: m["unit"] for m in expected}
    if set(printed) != set(want) or set(result["metrics"]) != set(want):
        fail("%s: metrics %s, want %s" % (
            workload, sorted(printed), sorted(want)))
    for name, unit in want.items():
        if printed[name][1] != unit or result["metrics"][name]["unit"] != unit:
            fail("%s: %s unit %s, want %s" % (
                workload, name, printed[name][1], unit))
        if result["metrics"][name]["value"] != printed[name][0]:
            fail("%s: %s printed and JSON values differ" % (workload, name))


def counts(lines):
    for line in lines:
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    fail("no counts line")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, 1, 0)
        check_metrics(name, first, spec["end_to_end"])
        again = run(name, 1, 0)
        other = run(name, 2, 0)
        if counts(first) != counts(again):
            fail("%s: counts differ across two runs of seed 1:\n%s\n%s" % (
                name, counts(first), counts(again)))
        if counts(first) == counts(other):
            fail("%s: counts identical under seeds 1 and 2" % name)
        traced = run(name, 1, 1)
        check_metrics(name, traced, spec["per_layer"])
        if counts(traced) != counts(first):
            fail("%s: traced run changed the exact counts" % name)
        print("ok %s" % name, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
