#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py campaign-paper [--seeds 10] [--first-seed 1]

Runs `perfbench/run.py` once per seed on one workload with the settings in
BENCHMARK.json, then prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4), next to the metric's bound. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    options = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in range(options.first_seed, options.first_seed + options.seeds):
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", options.workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed or incorrect: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)
    for metric in bench["end_to_end"]:
        series = values.get(metric["name"], [])
        if len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median
        print(f"{metric['name']:<14} median {median:<12.6g} spread {spread:.4f} "
              f"bound {metric['bound']} (a third: {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
