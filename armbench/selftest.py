#!/usr/bin/env python3
"""Smoke self-test of the ARM-Net benchmark.

    python3 armbench/selftest.py

Runs every workload at --seconds 1, untraced and traced, and checks that
each run exits 0, reports correct, and prints exactly the metrics that
BENCHMARK.json names for its mode, each finite and with its unit.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            run = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}\n"
                                f"{run.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            if sorted(metrics) != sorted(names):
                problems.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json: {sorted(metrics)}")
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got["unit"] != m["unit"] or not math.isfinite(
                        got["value"]):
                    problems.append(f"{where}: {m['name']} = {got}")
            print(("ok   " if len(problems) == before else "FAIL ") + where,
                  flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
