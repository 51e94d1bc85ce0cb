#!/usr/bin/env python3
"""Fails CI when a bench report regresses past per-metric thresholds.

Usage:
    bench_guard.py CURRENT.json BASELINE.json [--max-regression 0.25]
                   [--max-alloc-regression 0.10] [--max-rss-regression 0.10]

CURRENT.json is a fresh BENCH_<name>.json written by scripts/bench.sh;
BASELINE.json is the committed reference under bench/baselines/. Three gate
families, each with its own threshold and a one-line summary per metric:

  time   wall_s                           --max-regression (default +25%)
  alloc  scalars whose key names an       --max-alloc-regression (default
         allocation count/byte rate        +10%); these are deterministic
         (heap_bytes/heap_calls/           for a fixed workload, so they
         heap_allocs/arena_*)              compare even across machines
  rss    scalars containing "peak_rss"    --max-rss-regression (default +10%)

Wall-clock and RSS comparisons only mean something on comparable machines,
so when the two reports disagree on scalars.hardware_threads those gates
SKIP (with a notice) instead of judging: the committed baseline records the
machine shape it was measured on. Allocation gates always compare.

Every alloc- or rss-family scalar in the baseline must also be in the
current report, whatever the machine shape: a renamed or dropped gated
scalar fails the guard by name instead of silently leaving its gate.

Exit 0 when every compared gate passes, 1 when any metric regressed past
its limit or a gated scalar is missing (the summary names the first one).
"""

import argparse
import json
import sys

# Substrings that mark a scalar as an allocation metric (lower is better).
# Deliberately narrow: ratios like "alloc_reduction_ratio" are higher-is-
# better and must NOT be gated here.
ALLOC_KEY_MARKS = (
    "heap_bytes",
    "heap_calls",
    "heap_allocs",
    "arena_bytes",
    "arena_allocs",
)
RSS_KEY_MARK = "peak_rss"


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def is_alloc_key(key):
    return any(mark in key for mark in ALLOC_KEY_MARKS)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("current", help="fresh BENCH_<name>.json")
    parser.add_argument("baseline", help="committed baseline json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum allowed wall-time slowdown ratio (default 0.25)",
    )
    parser.add_argument(
        "--max-alloc-regression",
        type=float,
        default=0.10,
        help="maximum allowed allocation-metric increase (default 0.10)",
    )
    parser.add_argument(
        "--max-rss-regression",
        type=float,
        default=0.10,
        help="maximum allowed peak-RSS increase (default 0.10)",
    )
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    name = current.get("name", args.current)
    cur_scalars = current.get("scalars", {})
    base_scalars = baseline.get("scalars", {})

    same_hardware = cur_scalars.get("hardware_threads") == base_scalars.get(
        "hardware_threads"
    )
    if not same_hardware:
        print(
            f"bench_guard: SKIP time+rss gates for {name} — "
            f"hardware_threads {cur_scalars.get('hardware_threads')} does "
            f"not match baseline {base_scalars.get('hardware_threads')}; "
            f"wall-clock/RSS comparison would be noise"
        )

    compared = 0
    skipped = 0
    failures = []

    def gate(metric, cur_value, base_value, limit, enabled):
        nonlocal compared, skipped
        if not enabled or base_value is None or cur_value is None:
            skipped += 1
            return
        base_value = float(base_value)
        cur_value = float(cur_value)
        if base_value <= 0:
            print(f"bench_guard: SKIP {name}.{metric} — baseline not positive")
            skipped += 1
            return
        ratio = (cur_value - base_value) / base_value
        verdict = "REGRESSED" if ratio > limit else "ok"
        print(
            f"bench_guard: {name}.{metric}: {cur_value:.6g} vs baseline "
            f"{base_value:.6g} ({ratio:+.1%}, limit +{limit:.0%}) {verdict}"
        )
        compared += 1
        if ratio > limit:
            failures.append(metric)

    gate(
        "wall_s",
        current.get("wall_s"),
        baseline.get("wall_s"),
        args.max_regression,
        enabled=same_hardware,
    )
    # Scalar gates key off the baseline: a metric added since the baseline
    # was committed has nothing to compare against yet, but a gated metric
    # the current report lacks has left its gate.
    for key in sorted(base_scalars):
        if (is_alloc_key(key) or RSS_KEY_MARK in key) and key not in cur_scalars:
            print(
                f"bench_guard: {name}.{key}: MISSING from the current report "
                f"(renamed or dropped; regenerate the baseline)"
            )
            failures.append(key)
        elif is_alloc_key(key):
            gate(
                key,
                cur_scalars.get(key),
                base_scalars[key],
                args.max_alloc_regression,
                enabled=True,
            )
        elif RSS_KEY_MARK in key:
            gate(
                key,
                cur_scalars.get(key),
                base_scalars[key],
                args.max_rss_regression,
                enabled=same_hardware,
            )

    print(f"bench_guard: summary — {compared} compared, {skipped} skipped")
    if failures:
        print(
            f"bench_guard: FAIL — {len(failures)} metric(s) regressed past "
            f"the limit or missing, first: {failures[0]}"
        )
        return 1
    print("bench_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
