#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and gate on regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json \
        [--threshold 0.15] [--counter NAME ...] [--filter REGEX]

Compares every benchmark present in both files. When a file was written
with --benchmark_repetitions, the row compared for a benchmark is its
`median` aggregate; otherwise it is the benchmark's single plain row.
The compared metric per benchmark is, in order of preference:

  1. each counter named by --counter (repeatable) that the benchmark
     reports — higher is better (counters the repo commits are rates:
     episodes_per_second, events_per_second, items_per_second, ...);
  2. otherwise `real_time` — lower is better.

A change worse than --threshold (default 0.15 = 15%) in the unfavourable
direction is a regression. A baseline benchmark (matching --filter, if
given) that the current file does not report also fails the gate: a
benchmark that silently disappears cannot regress. Benchmarks only in
the current file are listed but never fail (new rows are expected as the
repo grows). Exit status: 0 when nothing regressed or went missing, 1 on
any regression or missing baseline benchmark, 2 on usage/file errors.

Typical gate for this repo's committed numbers:

    scripts/bench_compare.py BENCH_runtime.json /tmp/new_runtime.json \
        --counter episodes_per_second
"""

import argparse
import json
import re
import sys


def load_benchmarks(path):
    """Map each benchmark name to the row to gate on: its `median`
    aggregate when the file has repetitions, else its plain row."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    benchmarks = {}
    medians = {}
    for entry in data.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev/cv of a repetition run) are
        # named "<run_name>_<aggregate>"; key the median by its run name.
        aggregate = entry.get("aggregate_name")
        name = entry.get("run_name", entry.get("name"))
        if not name:
            continue
        if aggregate == "median":
            medians[name] = entry
        elif not aggregate:
            benchmarks[name] = entry
    benchmarks.update(medians)
    if not benchmarks:
        print(f"error: no benchmarks in {path}", file=sys.stderr)
        sys.exit(2)
    return benchmarks


def metrics_of(entry, counters):
    """Yield (metric_name, value, higher_is_better) for one benchmark."""
    found_counter = False
    for counter in counters:
        if counter in entry:
            yield counter, float(entry[counter]), True
            found_counter = True
    if not found_counter and "real_time" in entry:
        yield "real_time", float(entry["real_time"]), False


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails the gate "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--counter", action="append", default=[],
                        metavar="NAME",
                        help="counter to compare (higher is better); "
                             "repeatable; falls back to real_time "
                             "(lower is better) per benchmark")
    parser.add_argument("--filter", default=None, metavar="REGEX",
                        help="only compare benchmarks whose name matches")
    args = parser.parse_args()

    base = load_benchmarks(args.baseline)
    curr = load_benchmarks(args.current)
    pattern = re.compile(args.filter) if args.filter else None

    if pattern:
        base = {n: e for n, e in base.items() if pattern.search(n)}
        curr = {n: e for n, e in curr.items() if pattern.search(n)}
    shared = [n for n in base if n in curr]
    missing = sorted(n for n in base if n not in curr)
    only_curr = sorted(n for n in curr if n not in base)

    regressions = []
    rows = []
    for name in shared:
        base_metrics = dict(
            (m, (v, hib)) for m, v, hib in metrics_of(base[name], args.counter))
        for metric, new_value, higher_is_better in metrics_of(
                curr[name], args.counter):
            if metric not in base_metrics:
                continue
            old_value, _ = base_metrics[metric]
            if old_value == 0:
                continue
            # Positive change = improvement, in either metric direction.
            if higher_is_better:
                change = new_value / old_value - 1.0
            else:
                change = old_value / new_value - 1.0 if new_value else 0.0
            regressed = change < -args.threshold
            rows.append((name, metric, old_value, new_value, change, regressed))
            if regressed:
                regressions.append((name, metric, change))

    if not rows and not missing:
        print("error: no comparable benchmarks between the two files",
              file=sys.stderr)
        sys.exit(2)

    width = max((len(f"{name} [{metric}]") for name, metric, *_ in rows),
                default=0)
    for name, metric, old_value, new_value, change, regressed in rows:
        flag = "  REGRESSION" if regressed else ""
        print(f"{f'{name} [{metric}]':<{width}}  "
              f"{old_value:>14.4g} -> {new_value:>14.4g}  "
              f"{change:+8.1%}{flag}")
    for name in missing:
        print(f"{name}: MISSING from current")
    for name in only_curr:
        print(f"{name}: only in current (skipped)")

    if regressions or missing:
        if regressions:
            print(f"\n{len(regressions)} regression(s) beyond "
                  f"{args.threshold:.0%}:", file=sys.stderr)
            for name, metric, change in regressions:
                print(f"  {name} [{metric}]: {change:+.1%}", file=sys.stderr)
        if missing:
            print(f"\n{len(missing)} baseline benchmark(s) missing from "
                  f"{args.current}:", file=sys.stderr)
            for name in missing:
                print(f"  {name}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: {len(rows)} comparison(s), none worse than "
          f"{args.threshold:.0%}.")


if __name__ == "__main__":
    main()
