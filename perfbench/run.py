#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload interactive|grid \\
        --seed N --seconds S --trace 0|1 [--corrupt-oracle]

Configures and builds perfbench/ (a CMake package that compiles the
library from ../src) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark binary. The
binary's standard output is passed through; its last line is the JSON
result. Per-run result files (environment block, metric table and,
for --trace 1, the chrome trace) go to <build dir>/perfbench-results.

The metric names in the result are checked against BENCHMARK.json.
Exits non-zero without a result when the library sources are missing,
the build fails, or the binary fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    jobs = str(os.cpu_count() or 2)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def check_metrics(result, trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}, units "
             f"{[k for k in expected if k in got and got[k] != expected[k]]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["interactive", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="flip a byte of every oracle reply (the "
                             "correctness gate's self-test)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    bench_build = build_root()
    try:
        binary = build(os.path.join(bench_build, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as exc:
        fail(f"build failed: {exc}")
    out_dir = os.path.join(bench_build, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", out_dir, "--git-sha",
           source_id()]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no JSON result")
    check_metrics(result, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
