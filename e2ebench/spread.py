#!/usr/bin/env python3
"""Run the benchmark in alternated same-code pairs and report each metric's spread.

Usage (from the repository root):

    python3 e2ebench/spread.py

For every workload in BENCHMARK.json and every seed from 1 to 10, the
benchmark runs twice in a row as sides A and B of the same code,
alternating which side goes first. Per end-to-end metric and side it
prints, as a Markdown table row, the median and quartiles of the ten
values (statistics.quantiles, n=4), the spread (q3 - q1) / median, the
distance between the two sides' medians, and the largest distance of
any single run from the median of all twenty. A spread above a third
of the metric's bound is flagged.
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported failures:\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in (w["name"] for w in bench["workloads"]):
        sides = {"A": {}, "B": {}}
        start = time.monotonic()
        for i, seed in enumerate(SEEDS):
            for side in ("AB" if i % 2 == 0 else "BA"):
                for name, value in run_once(cmd, wl, seed, seconds).items():
                    sides[side].setdefault(name, []).append(value)
        print(f"\n### {wl}\n\n{2 * len(SEEDS)} runs in "
              f"{time.monotonic() - start:.0f} s\n")
        print("| metric | bound | A median | A q1 | A q3 | A spread "
              "| B median | B q1 | B q3 | B spread | \\|A-B\\|/A "
              "| worst seed vs median |")
        print("|---" * 12 + "|")
        for name, a_values in sides["A"].items():
            a, b = summary(a_values), summary(sides["B"][name])
            both = a_values + sides["B"][name]
            med = statistics.median(both)
            worst = max(abs(v - med) / med for v in both)
            bound = bounds[name]
            flag = " (above bound/3)" if max(a[3], b[3]) > bound / 3 else ""
            cells = [f"`{name}`", str(bound)]
            for m, q1, q3, spread in (a, b):
                cells += [f"{m:.4f}", f"{q1:.4f}", f"{q3:.4f}", f"{spread:.4f}"]
            cells += [f"{abs(a[0] - b[0]) / a[0]:.4f}", f"{worst:.4f}{flag}"]
            print("| " + " | ".join(cells) + " |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
