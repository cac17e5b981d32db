#!/usr/bin/env python3
"""Every workload emits exactly the metrics BENCHMARK.json declares.

Runs perfbench/run.py for each workload, untraced and traced, with a short
--seconds, and checks the last stdout line: the contract's four keys, a
correct run, whole-number counts, and exactly the declared end-to-end
(untraced) or per-layer (traced) metric names with their units. Takes a few
minutes (the job mixes always run two full passes, and traced runs add the
layer probes). Run from the repository root:

    python3 perfbench/tests/test_emit.py
"""

import json
import math
import subprocess
import sys

SECONDS = "1"


def check(workload, trace, declared):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s exited %d: %s" % (where, done.returncode,
                                      done.stderr[-400:])]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: run not correct" % where)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted is not a positive integer" % where)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append("%s: missing %s, undeclared %s" % (where, missing,
                                                           extra))
    for name, entry in metrics.items():
        if name in declared and entry.get("unit") != declared[name]:
            problems.append("%s: %s unit %r" % (where, name, entry.get("unit")))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (where, name, value))
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    sections = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check(workload, trace, sections[trace])
    for p in problems:
        print("FAIL: " + p)
    if not problems:
        print("every workload emits every declared metric")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
