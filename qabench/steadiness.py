#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs each workload --runs times, each with another seed, and prints per
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread: the interquartile distance as a share of the median.
A held-out seed is then run once per workload and its deviation from the
median is compared with the metric's bound in BENCHMARK.json. Each bound
in BENCHMARK.json is at or above the worst spread this script reported
for its metric, and at most 0.25, the largest a bound may be (setup_s
takes the largest). A spread above a third of its bound is flagged: the
metric is then noisier than the bound's intended safety margin.

    python3 qabench/steadiness.py [--runs 10] [--workloads a,b] [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--holdout-seed", type=int, default=90001)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    worst = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for i in range(args.runs):
            r = run_once(workload, args.seed_base + i, args.seconds, args.trace)
            attempted += r["attempted"]
            failed += r["failed"]
            for name in values:
                values[name].append(r["metrics"][name]["value"])
            print(f"{workload} seed {args.seed_base + i}: " +
                  " ".join(f"{name}={v[-1]:.5g}" for name, v in values.items()),
                  flush=True)
        held = run_once(workload, args.holdout_seed, args.seconds, args.trace)
        print(f"\n{workload}: {args.runs} runs, {attempted} requests attempted, "
              f"{failed} failed")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'held-out':>12} {'dev':>8}")
        for m in metrics:
            name = m["name"]
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            h = held["metrics"][name]["value"]
            dev = (h - med) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worse = -dev if m["better"] == "higher" else dev
                if name != "setup_s" and spread > bound / 3:
                    flag += " SPREAD>bound/3"
                if worse > bound:
                    flag += " HELD-OUT WORSE THAN BOUND"
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6} {h:12.5g} "
                  f"{dev:+8.4f}{flag}")
    bounds = {m["name"]: m.get("bound") for m in metrics}
    print("\nworst spread per metric, against its bound:")
    for name, spread in worst.items():
        print(f"  {name:28} {spread:.4f}  bound {bounds[name]}")


if __name__ == "__main__":
    main()
