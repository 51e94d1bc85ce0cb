#!/usr/bin/env python3
"""Builds and runs the roomnet benchmark.

    python3 perfbench/run.py --workload study|fleet|replay|all --seed N \\
        --seconds S --trace 0|1 [--tiny]

Builds perfbench/ (and the library it links, from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
checkout root, then runs one workload. Prints the benchmark's note lines and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, every per-layer metric
with --trace 1, as BENCHMARK.json names them. `--workload all` runs the three
workloads one after another, each in its own process, and ends with one JSON
object holding the three results by workload name. Exits non-zero without a
result line when the checkout is incomplete, the build fails, or the output
does not match BENCHMARK.json. perfbench/README.md describes the workloads.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join("quickstart_pcaps", "all.pcap")
CORPUS_SHA256 = "0eaf5e78e85308761f169eb5913ba95be743570cf766bad48cdcf241ae0cc414"
WORKLOADS = ("study", "fleet", "replay")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    ninja = shutil.which("ninja") is not None
    marker = "build.ninja" if ninja else "Makefile"
    if not os.path.exists(os.path.join(out, marker)):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if ninja:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "roomnet_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns what is wrong with a result line, or None."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys differ from the contract"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizing (seconds of work per workload)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no roomnet sources under {ROOT}: run from a full checkout")
    corpus = os.path.join(ROOT, CORPUS)
    if not os.path.exists(corpus):
        fail(f"replay corpus {CORPUS} is missing")
    with open(corpus, "rb") as f:
        if hashlib.sha256(f.read()).hexdigest() != CORPUS_SHA256:
            fail(f"replay corpus {CORPUS} does not match its recorded SHA-256")

    binary = build()
    if args.workload != "all":
        print("\n".join(run_workload(binary, args.workload, args)[0]))
        return
    # Each workload in its own process: VmHWM covers the whole process.
    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run_workload(binary, workload, args)
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
    print(json.dumps(results))


def run_workload(binary, workload, args):
    """Runs one workload; returns its output lines and parsed result."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not JSON")
    problem = check_result(result, bool(args.trace))
    if problem:
        fail(f"{workload}: {problem}")
    return lines, result


if __name__ == "__main__":
    main()
