#!/usr/bin/env python3
"""Serve benchmark: builds spivar_serve and the servebench program in Release,
then runs one workload against a fresh server.

    python3 servebench/run.py --workload serve_hits --seed 1 --seconds 15 --trace 0

Run it from the root of the source tree. The build goes to .bench_build/servebench
(reused by later runs); build output goes to stderr. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of the traced
in-process replay with --trace 1. See servebench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("serve_hits", "serve_misses", "hits_under_misses", "compare_corpus")


def build():
    """Configures once and builds the two targets; a no-op when up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench", "spivar_serve",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("servebench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    command = [
        os.path.join(BUILD, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", os.path.join(BUILD, "spivar", "spivar_serve"),
        "--work-dir", WORK,
    ]
    sys.stdout.flush()
    # servebench replaces this process, so it starts its set-up clock itself
    # and no wrapper is left to outlive it.
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
