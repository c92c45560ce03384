#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload stream_feed --seeds 1-10 \
        [--seconds 20] [--trace 0]

For every metric: the median over the runs and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, beside the metric's bound from BENCHMARK.json. A run that fails
or prints no result line stops the script with its exit status.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    """'1-5' -> 1..5; '3,3,7' -> 3, 3, 7."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr[-2000:], file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary = [line for line in lines if line.startswith("# ")]
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} | {summary[-1] if summary else ''}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
        spread = (q[2] - q[0]) / abs(median) if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " !" if spread > bound / 3 else ""
        print(f"{name:34} {median:14.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}{flag:2}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
