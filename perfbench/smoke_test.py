#!/usr/bin/env python3
"""Smoke self-test of the roomnet benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size, untraced and traced, through run.py, which
refuses any run whose metrics differ by name or unit from BENCHMARK.json,
and checks that each run is correct with no failed operation. Takes about a
minute after the build. Exits non-zero if any run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    problems = 0
    for workload in workloads:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: run.py exited {proc.returncode}")
                problems += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                print(f"FAIL {label}: correct={result['correct']} "
                      f"failed={result['failed']}")
                problems += 1
                continue
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
