#!/usr/bin/env python3
"""Builds and runs the ARM-Net benchmark.

    python3 armbench/run.py --workload <train|score> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
`armbench` binary (armbench/CMakeLists.txt, the repository's sources, a
release build) under .bench_build/armbench; later runs only check that the
build is up to date. Build output goes to standard error; the last line of
standard output is the benchmark's result line (see armbench/README.md).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "score")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build" / "armbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "armbench",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr)
        if built.returncode != 0:
            print("armbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    out = root / ".bench_build" / "armbench-out"
    run = subprocess.run(
        [str(build_dir / "armbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--work-dir", str(root / ".bench_build" / "armbench-work"),
         "--out-dir", str(out)],
        cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
