#!/usr/bin/env python3
"""Run-to-run spread of lakebench's end-to-end metrics, and agreement checks.

Run each workload N times, one seed per run, and print per metric the
median, the quartiles and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json:

    python3 bench/lake/spread.py --runs 10 --save a.json
    python3 bench/lake/spread.py --workloads cold_scan,ingest --runs 5 --save b.json

Check that two saved sets agree: for every workload and end-to-end metric
the medians may differ by at most the metric's bound. Exits 1 when they
do not:

    python3 bench/lake/spread.py --agree a.json b.json

Suggest bounds from a saved set (at least 5 runs): 3 * spread, at least
5% (1% for compression_ratio and success_rate) and at most 25%; setup_s
gets the largest bound:

    python3 bench/lake/spread.py --suggest a.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit("spread: %s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("spread: %s seed %d reported wrong results" % (workload, seed))
    print("%s seed %d: %.1f s" % (workload, seed, time.monotonic() - start),
          file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def print_set(results, bounds):
    for workload, metrics in results.items():
        print("%s (%d runs)" % (workload, len(next(iter(metrics.values())))))
        print("  %-22s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3",
                                                  "spread", "bound"))
        for name, values in metrics.items():
            median, q1, q3, spread = summary(values)
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print("  %-22s %14.6g %14.6g %14.6g %7.2f%% %7s%s" % (
                name, median, q1, q3, 100 * spread,
                "-" if bound is None else "%.1f%%" % (100 * bound), flag))


def agree(a_path, b_path, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for workload in sorted(set(a) & set(b)):
        for name, bound in bounds.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            ma = statistics.median(a[workload][name])
            mb = statistics.median(b[workload][name])
            diff = abs(mb - ma) / ma if ma else 0.0
            verdict = "ok" if diff <= bound else "DIFFER"
            ok = ok and diff <= bound
            print("%-13s %-22s %14.6g %14.6g %7.2f%% (bound %.1f%%) %s" % (
                workload, name, ma, mb, 100 * diff, 100 * bound, verdict))
    return ok


def suggest(path):
    with open(path) as f:
        results = json.load(f)
    spreads = {}
    for metrics in results.values():
        for name, values in metrics.items():
            spreads[name] = max(spreads.get(name, 0.0), summary(values)[3])
    bounds = {}
    for name, spread in spreads.items():
        if name == "setup_s":
            continue
        floor = 0.01 if name in ("compression_ratio", "success_rate") else 0.05
        bounds[name] = min(max(floor, 3 * spread), 0.25)
        if 3 * spread > 0.25:
            print("warning: %s spread %.1f%% is above a third of the 25%% cap" % (
                name, 100 * spread))
    bounds["setup_s"] = max([spreads.get("setup_s", 0.0)] + list(bounds.values()))
    for name, bound in bounds.items():
        print("%-22s spread %6.2f%%  bound %.3f" % (name, 100 * spreads[name], bound))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the collected values here")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--suggest", metavar="SET")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.agree:
        sys.exit(0 if agree(args.agree[0], args.agree[1], bench) else 1)
    if args.suggest:
        suggest(args.suggest)
        return

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    results = {}
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        results[workload] = {name: [r[name] for r in runs] for name in runs[0]}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    print_set(results, {m["name"]: m["bound"] for m in bench["end_to_end"]})


if __name__ == "__main__":
    main()
