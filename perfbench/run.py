#!/usr/bin/env python3
"""Build and run the powerlin benchmark (perfbench/README.md).

Run from the root of a powerlin checkout:

    python3 perfbench/run.py --workload cg_memory --seed 1 --seconds 15 --trace 0

The first run configures and builds the benchmark binary (and the powerlin
libraries it links) under .bench_build/ in Release mode; later runs only
re-check the build. Build output goes to stderr, so the last line on stdout
is the benchmark's result object. Exits non-zero, without a result, when the
checkout holds no powerlin sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cg_memory", "dense_lu", "serve_small")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "plbench")
RUN_TIMEOUT_S = 170  # a run must end within 180 s, set-up included
BUILD_TIMEOUT_S = 880


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def build():
    """Configures and builds plbench; returns an error message or None."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(needed):
            return "no powerlin sources here (missing %s)" % needed
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "plbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            return "build step %s failed: %s" % (step[:2], err)
        if done.returncode != 0:
            return "build step %s exited %d" % (step[:2], done.returncode)
    return None


def main(argv):
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("run.py: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    error = build()
    if error is not None:
        print("run.py: " + error, file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(".bench_build", "scratch")]
    try:
        # run() kills the child on timeout and waits for it.
        done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
