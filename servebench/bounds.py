#!/usr/bin/env python3
"""Runs each workload repeatedly, one seed per run, and prints for every metric
and workload the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json.

    python3 servebench/bounds.py --runs 10 --seconds 15
    python3 servebench/bounds.py --runs 5 --workloads hits_under_misses --first-seed 100
    python3 servebench/bounds.py --runs 3 --trace 1

A spread over a third of its bound is flagged; setup_s is exempt from the
spread rule (its medians are compared instead). Each run's JSON line is also
appended to --out (default .bench_build/bounds.jsonl), so two sets of runs can
be compared later with --compare.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hits", "serve_misses", "hits_under_misses", "compare_corpus")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summarize(rows, bounds):
    """rows: list of (workload, result) pairs."""
    by_workload = {}
    for workload, result in rows:
        by_workload.setdefault(workload, []).append(result)
    for workload, results in by_workload.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:34} {median:12.4g} {q1:12.4g} {q3:12.4g} {spread:8.3f} {bound_text:>6}{flag}")


def compare(first, second, bounds, higher_is_better):
    """Median of the second set against the first, per workload and metric."""
    def medians(rows):
        table = {}
        for workload, result in rows:
            for name, metric in result["metrics"].items():
                table.setdefault((workload, name), []).append(metric["value"])
        return {key: statistics.median(values) for key, values in table.items()}

    a, b = medians(first), medians(second)
    print(f"\n  {'workload':18} {'metric':26} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for key in sorted(a):
        if key not in b or key[1] not in bounds:
            continue
        worse = (a[key] - b[key]) / a[key] if key[1] in higher_is_better else (b[key] - a[key]) / a[key]
        flag = "  REGRESSION" if worse > bounds[key[1]] else ""
        print(f"  {key[0]:18} {key[1]:26} {a[key]:12.4g} {b[key]:12.4g} {worse:9.3f} {bounds[key[1]]:6.2f}{flag}")


def read_rows(path):
    with open(path) as f:
        return [(row["workload"], row["result"]) for row in map(json.loads, f)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "bounds.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two saved sets of runs instead of running")
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher_is_better = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    if args.compare:
        compare(read_rows(args.compare[0]), read_rows(args.compare[1]), bounds, higher_is_better)
        return

    rows = []
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(workload, seed, args.seconds, args.trace)
                rows.append((workload, result))
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summarize(rows, bounds)


if __name__ == "__main__":
    main()
