#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and its failure mode.

Usage (from the repository root): python3 perfbench/test_gate.py

1. A run with --corrupt-oracle (every oracle reply has one byte
   flipped) must report ok_frac below 1 and correct = false, which
   proves the replies really are compared with the oracles.
2. A clean run on the same seed must report ok_frac == 1.
3. A copy of only BENCHMARK.json and perfbench/, without the library
   sources, must exit non-zero without printing a result.

Uses short runs (2 s) and the build run.py keeps under .bench_build.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(root, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", "interactive", "--seed", "1", "--seconds", "2",
         "--trace", "0", *extra],
        stdout=subprocess.PIPE, text=True, cwd=root)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    failures = []

    corrupted = result_of(run(ROOT, "--corrupt-oracle"))
    ok_frac = corrupted["metrics"]["ok_frac"]["value"]
    if not (ok_frac < 1.0 and not corrupted["correct"] and
            corrupted["failed"] > 0):
        failures.append(f"corrupted oracle not caught: ok_frac "
                        f"{ok_frac}, correct {corrupted['correct']}")

    clean = result_of(run(ROOT))
    if clean["metrics"]["ok_frac"]["value"] != 1.0 or not clean["correct"]:
        failures.append("clean run is not fully correct")

    bare = os.path.join(ROOT, ".bench_build", "gate-test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare)
    if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
        failures.append("run without library sources did not fail")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAIL: {f}")
    print("gate self-test:", "FAILED" if failures else "ok "
          f"(corrupted ok_frac {ok_frac:.4f}, clean 1.0, bare copy "
          f"exits {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
