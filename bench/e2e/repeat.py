#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json N times and reports the spread.

    python3 bench/e2e/repeat.py N [--sets 2] [--trace 0|1] [--workloads a,b]
                                  [--seed-base 1] [--same-seed]

Runs are interleaved (workload A seed 1, workload B seed 1, ..., A seed 2,
...), each with its own seed unless --same-seed. For each end-to-end metric
and workload it prints the median, the quartiles (statistics.quantiles with
n=4), the spread (Q3 - Q1) / median, and the robust sigma IQR / 1.349. A
metric whose spread exceeds its BENCHMARK.json bound is flagged "OVER";
one above a third of the bound is flagged "wide" (the benchmark is meant to
stay below a third). setup_s spreads are reported but, like the acceptance
rule, not flagged. With --sets 2 the N runs are made twice and every
metric whose second median is worse than the first by more than its bound
is flagged "DRIFT".
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread, (q3 - q1) / 1.349


def worse(first, second, better):
    """Relative worsening of the second median against the first."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=int)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    sets = []
    for s in range(opts.sets):
        samples = {w: [] for w in workloads}
        for i in range(opts.runs):
            seed = opts.seed_base + (0 if opts.same_seed else i)
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                samples[w].append(run_once(bench["command"], w, seed,
                                           bench["run_seconds"], opts.trace))
                print(f"set {s + 1} run {i + 1}/{opts.runs} {w} done",
                      file=sys.stderr, flush=True)
        sets.append(samples)

    flagged = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'sigma':>10} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            stats = [summarize([run[name] for run in samples[w]])
                     for samples in sets]
            median, q1, q3, spread, sigma = stats[0]
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "OVER"
                elif spread > bound / 3:
                    flag = "wide"
            if bound is not None and len(stats) == 2 and \
                    worse(stats[0][0], stats[1][0], m["better"]) > bound:
                flag = (flag + " DRIFT").strip()
            if "OVER" in flag or "DRIFT" in flag:
                flagged += 1
            bound_text = "-" if bound is None else f"{bound:.2f}"
            print(f"  {name:<40} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {sigma:>10.4g} {bound_text:>6} {flag}")
            if len(stats) == 2:
                print(f"  {'':<40} {stats[1][0]:>12.6g} (second set, "
                      f"spread {stats[1][3]:.4f})")
            if opts.raw:
                for samples in sets:
                    values = " ".join(f"{run[name]:.4g}" for run in samples[w])
                    print(f"    {values}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
