#!/usr/bin/env python3
"""Steadiness report: run one workload k times and show each metric's
spread against the bound BENCHMARK.json declares for it.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload grid [--runs 10]
        [--seed0 1] [--trace 0] [--seconds S] [--save FILE]
        [--against FILE]

Run i uses seed seed0 + i. For every metric of the section (end-to-end
for --trace 0, per-layer for --trace 1) it prints the median, the first
and third quartiles (Python's statistics.quantiles, n=4), the spread
(q3 - q1) / median, and, for end-to-end metrics, the spread as a share
of the bound and whether it is under a third of the bound. --save
writes the raw values as JSON; --against FILE compares this set's
medians with a saved set's and reports each shift, in the metric's
worse direction, as a share of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"steadiness: run with seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.exit(f"steadiness: run with seed {seed} was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_shift(before, after, better):
    """Relative change of the median in the metric's worse direction."""
    change = (after - before) / before
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in section}
    walls = []
    for i in range(args.runs):
        seed = args.seed0 + i
        start = time.monotonic()
        got = run_once(args.workload, seed, seconds, args.trace)
        walls.append(time.monotonic() - start)
        for name in values:
            values[name].append(got[name])
        print(f"run {i + 1}/{args.runs} (seed {seed}) done in "
              f"{walls[-1]:.1f} s", file=sys.stderr)

    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            against = json.load(f)["values"]

    print(f"workload {args.workload}, {args.runs} runs, seeds "
          f"{args.seed0}..{args.seed0 + args.runs - 1}, {seconds:g} s "
          f"each, trace {args.trace}; wall per run {min(walls):.1f}.."
          f"{max(walls):.1f} s")
    header = (f"{'metric':38} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}")
    if not args.trace:
        header += f" {'bound':>6} {'/bound':>7} verdict"
    if against:
        header += f" {'shift':>7}"
    print(header)
    for m in section:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        line = (f"{m['name']:38} {m['unit']:6} {med:12.6g} {q1:12.6g} "
                f"{q3:12.6g} {spread:7.2%}")
        if not args.trace:
            bound = m["bound"]
            verdict = ("exempt" if m["name"] == "setup_s" else
                       "ok" if spread < bound / 3 else
                       "within" if spread <= bound else "TOO NOISY")
            line += f" {bound:6.3f} {spread / bound:7.2f} {verdict}"
        if against:
            before = statistics.median(against[m["name"]])
            shift = worse_shift(before, med, m["better"])
            line += f" {shift:+7.2%}"
            if not args.trace and shift > m["bound"]:
                line += " WORSE THAN BOUND"
        print(line)

    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seeds": [args.seed0 + i for i in range(args.runs)],
                       "walls": walls, "values": values}, f, indent=1)


if __name__ == "__main__":
    main()
