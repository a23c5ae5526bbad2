#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs every workload (or the ones named) `--runs` times, each with another
seed, and reports for every end-to-end metric the median and the quartile
spread (q3 - q1, as a share of the median, from statistics.quantiles(n=4))
that its bound in BENCHMARK.json is set against.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--second-seed N] [workload ...]

With `--second-seed`, a second set of runs (seeds N, N+1, ...) alternates
with the first, one run of each set in turn, so host drift falls on both
sets alike; each set is reported on its own, and the second set's median
must not be worse than the first's by more than the metric's bound.

Run from the repository root. Prints each run's wall time, one line per
metric and set and, last, a JSON summary; exits 1 when any spread exceeds
its bound or the second set's median is worse than the first's by more.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong results\n{out.stderr[-2000:]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload:13} seed {seed}: {time.monotonic() - t0:.1f} s  "
          + "  ".join(f"{k} {v:.6g}" for k, v in values.items()), flush=True)
    return values


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    firsts = [args.first_seed]
    if args.second_seed is not None:
        firsts.append(args.second_seed)
    summary = {}
    failures = []
    for w in args.workloads:
        sets = [{} for _ in firsts]
        for i in range(args.runs):
            for values, first in zip(sets, firsts):
                for name, v in run_once(bench, w, first + i, args.seconds).items():
                    values.setdefault(name, []).append(v)
        summary[w] = []
        for s, values in enumerate(sets, 1):
            stats = {}
            for name, v in values.items():
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = metrics[name]["bound"]
                stats[name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": v}
                if spread > bound:
                    failures.append(f"{w} set {s} {name}: spread {spread:.4f} > {bound}")
                print(f"{w:13} set {s} {name:18} median {med:12.6g}  "
                      f"spread {spread:7.4f}  bound {bound}", flush=True)
            summary[w].append(stats)
        if len(sets) == 2:
            for name, first in summary[w][0].items():
                a, b = first["median"], summary[w][1][name]["median"]
                change = (b - a) / a if a else 0.0
                worse = change if metrics[name]["better"] == "lower" else -change
                if worse > metrics[name]["bound"]:
                    failures.append(f"{w} {name}: set 2 median worse by {worse:.4f}")
                print(f"{w:13} {name:18} set 2 vs set 1 median {change:+.4f}", flush=True)
    print(json.dumps(summary))
    for f in failures:
        print(f"NOT STEADY: {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
