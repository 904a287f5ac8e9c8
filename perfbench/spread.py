#!/usr/bin/env python3
"""Run one workload repeatedly and print the spread of each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload sphere_warm --runs 10
    python3 perfbench/spread.py --workload box_cold --runs 10 --against ../parent

Every run is untraced and lasts run_seconds from BENCHMARK.json; run i
uses seed first_seed + i. With --against (the root of a second
checkout, for example the parent commit) the two builds alternate run by
run, and which side goes first alternates from pair to pair. For each
metric and side the tool prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the quartile spread as a
share of the median, and min/max; with two sides it also prints the
change of the median and in how many pairs this checkout read lower.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}, exit "
                         f"{proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  seed {seed} in {root}: correct=false, "
              f"{result['failed']} of {result['attempted']} failed")
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread, min(values), max(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", default=None,
                    help="root of a second checkout to alternate with")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    sides = [("this", ROOT)]
    if args.against:
        sides.append(("against", os.path.abspath(args.against)))
    results = {name: [] for name, _ in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for name, root in order:
            results[name].append(
                run_once(root, args.workload, seed, seconds))
            metrics = results[name][-1]["metrics"]
            print(f"run {i + 1:2d} seed {seed:3d} {name:7s} " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s per side")
    print(f"{'metric':26s} {'side':7s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'iqr/med':>8s} {'min':>10s} {'max':>10s}")
    for metric, first in results["this"][0]["metrics"].items():
        for name, _ in sides:
            vals = [r["metrics"][metric]["value"] for r in results[name]]
            med, q1, q3, spread, lo, hi = summary(vals)
            print(f"{metric:26s} {name:7s} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:8.3f} {lo:10.4g} {hi:10.4g}")
        if len(sides) == 2:
            a = [r["metrics"][metric]["value"] for r in results["this"]]
            b = [r["metrics"][metric]["value"] for r in results["against"]]
            change = statistics.median(a) / statistics.median(b) - 1
            lower = sum(x < y for x, y in zip(a, b))
            print(f"{metric:26s} this/against median {change:+.3f}; this "
                  f"lower in {lower} of {len(a)} pairs ({first['unit']})")
    failed = sum(r["failed"] for rs in results.values() for r in rs)
    attempted = sum(r["attempted"] for rs in results.values() for r in rs)
    print(f"failed requests: {failed} of {attempted}")


if __name__ == "__main__":
    main()
