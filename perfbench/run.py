#!/usr/bin/env python3
"""Builds and runs the librevise end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick]

Run from the repository root.  The library (../src) and the benchmark
binary are built with CMake in Release mode under $CARGO_TARGET_DIR
(default .bench_build), the inputs are generated there, and the binary's
output is passed through: its last line is the JSON result.  See
README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1_small", "table1_large", "stream_serve")
# Build jobs never exceed the reference machine's four cores
# (revise_perfbench caps the library's workers the same way).
MAX_JOBS = 4


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures and rebuilds incrementally; returns the binary."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    # Concurrent runs in one checkout must not build into each other.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "revise_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return out / "revise_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--quick", action="store_true",
                        help="one small round, for the benchmark's tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    workdir = out / "work"
    workdir.mkdir(exist_ok=True)
    # Library settings come from the environment; the benchmark fixes
    # them (default model cache, no tracing, its own worker cap).
    env = {k: v for k, v in os.environ.items() if not k.startswith("REVISE_")}
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(workdir)]
    if args.quick:
        command.append("--quick")
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
