#!/usr/bin/env python3
"""Noise study for the contract benchmark.

Runs every workload of BENCHMARK.json several times, each time with another
seed, and prints for every end-to-end metric the median and the spread the
acceptance rule uses: the distance between the first and the third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread above
a third of the metric's bound is flagged.

    python3 bench/noise.py                 # 10 runs per workload, seeds 1..10
    python3 bench/noise.py --runs 5 --first-seed 101 --workloads live_http

Run from the repository root. NOISE.md in this directory is this script's
output at the commit that added the benchmark.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result["metrics"], elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    names = args.workloads or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    print(f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"--seconds {seconds}; spread = (Q3 - Q1) / median\n")
    print("| workload | metric | min | median | max | spread | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    worst = {}
    for workload in names:
        series, walls = {}, []
        for i in range(args.runs):
            metrics, elapsed = run_once(contract["command"], workload, args.first_seed + i, seconds, 0)
            walls.append(elapsed)
            for name, m in metrics.items():
                series.setdefault(name, []).append(m["value"])
        for name in bounds:
            vals = series[name]
            s = spread(vals)
            worst[name] = max(worst.get(name, 0.0), s)
            flag = "" if s <= bounds[name] / 3 else ("over a third" if s <= bounds[name] else "OVER BOUND")
            print(f"| {workload} | {name} | {min(vals):.6g} | {statistics.median(vals):.6g} | {max(vals):.6g} "
                  f"| {s:.4f} | {bounds[name]} | {flag} |", flush=True)
        print(f"| {workload} | (process wall, s) | {min(walls):.1f} | {statistics.median(walls):.1f} | {max(walls):.1f} | | | |",
              flush=True)
    print("\nworst spread per metric:")
    for name, s in worst.items():
        print(f"  {name:20s} {s:.4f}  (bound {bounds[name]}, a third {bounds[name] / 3:.4f})")


if __name__ == "__main__":
    main()
