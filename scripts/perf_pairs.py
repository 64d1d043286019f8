#!/usr/bin/env python3
"""Paired parent-versus-change runs of the pipeline benchmark.

Usage (from the repository root):

    scripts/perf_pairs.py --base REV --workload W --seed N --pairs K \\
        [--trace 0|1]

Exports REV with `git archive` under .bench_build/pairs/<sha>/ and runs
K pairs of perfbench/run.py: per pair one run from the exported tree
(the parent) and one from this checkout (the change), alternating which
side runs first. Both sides run the same workload, seed and trace mode
for BENCHMARK.json's run_seconds. The parent's runs see no enclosing git
repository, so their results record the commit as "unknown" beside the
source digest; the raw JSON names the exported commit.

For each end-to-end metric of BENCHMARK.json (the per-layer metrics
with --trace 1) it prints each side's median and quartiles, the pairs
each side won (ties count for neither), whether the median gap exceeds
the parent's interquartile range, and whether the change's median is
within the metric's bound. The gain rule holds when at least ten pairs
ran, the change won at least nine tenths of them and improved the
median by more than the parent's interquartile range. A metric whose
parent spread is wider than its bound is unresolved unless every
change run beat every parent run. Attempted and failed check counts
(and each run's FAILED lines) are printed per side, and the raw
results are written to .bench_build/pairs/<workload>-....json.

Exits 1 if any run fails or reports failed checks, 2 on bad usage.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_build" / "pairs"
WIN_SHARE = 0.9  # of all pairs run, ties counting for neither side
MIN_PAIRS = 10   # fewer pairs never support a gain claim


def quartiles(values):
    """(q1, median, q3) with linear interpolation between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base, change, better, bound=None):
    """Compare paired samples of one metric (base[i] pairs change[i]).

    `better` is "lower" or "higher"; `bound` is the metric's relative
    regression bound from BENCHMARK.json, or None when it has none.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of samples per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    ties = len(base) - wins - losses
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = b_q3 - b_q1
    gain = sign * (b_med - c_med)  # > 0: the change's median is better
    result = {
        "pairs": len(base),
        "better": better,
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_wins": wins,
        "base_wins": losses,
        "ties": ties,
        "base_iqr": iqr,
        "median_gain": gain,
        "gap_exceeds_iqr": abs(b_med - c_med) > iqr,
        "gain_holds": (len(base) >= MIN_PAIRS
                       and wins >= WIN_SHARE * len(base) and gain > iqr),
        "within_bound": None,
        "unresolved": None,
    }
    if bound is not None:
        limit = b_med * (1.0 + sign * bound)
        result["within_bound"] = sign * (limit - c_med) >= 0
        all_better = all(sign * (b - c) > 0 for b in base for c in change)
        spread = iqr / abs(b_med) if b_med != 0 else (0.0 if iqr == 0 else
                                                      math.inf)
        result["unresolved"] = spread > bound and not all_better
    return result


def fail(message, code=2):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    out = subprocess.run(["git", "-C", str(ROOT), *args],
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def export_tree(rev):
    """Export `rev` once under .bench_build/pairs/<sha>; reused later so
    the parent's perfbench build stays warm."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = PAIRS_DIR / sha[:12]
    marker = dest / ".exported"
    if not marker.exists():
        dest.mkdir(parents=True, exist_ok=True)
        archive = PAIRS_DIR / f"{sha[:12]}.tar"
        git("archive", "--format=tar", f"--output={archive}", sha)
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
        archive.unlink()
        marker.write_text(sha + "\n")
    return sha, dest


def run_side(tree, args, seconds):
    """One perfbench run from `tree`: (returncode, result or None, the
    report's FAILED lines)."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace)]
    # An exported tree lies inside this checkout; without a ceiling its
    # `git rev-parse HEAD` would name this checkout's commit.
    env = dict(os.environ)
    if tree != ROOT:
        env["GIT_CEILING_DIRECTORIES"] = str(PAIRS_DIR)
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    lines = out.stdout.rstrip("\n").splitlines()
    failures = [line.strip() for line in lines
                if line.lstrip().startswith("FAILED:")]
    if out.returncode != 0 or not lines:
        return out.returncode, None, failures
    try:
        return 0, json.loads(lines[-1]), failures
    except json.JSONDecodeError:
        return 1, None, failures


def fmt(value):
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4g}"
    return f"{value:.3e}"


def fmt_spread(q):
    return f"{fmt(q['median'])} [{fmt(q['q1'])}, {fmt(q['q3'])}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    sha, base_tree = export_tree(args.base)
    trees = {"base": base_tree, "change": ROOT}

    runs = []
    problems = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            started = time.time()
            code, result, failures = run_side(trees[side], args, seconds)
            runs.append({"pair": pair, "side": side, "first": side == order[0],
                         "returncode": code, "result": result,
                         "failures": failures,
                         "wall_s": round(time.time() - started, 1)})
            failed = result["failed"] if result else None
            print(f"pair {pair + 1}/{args.pairs} {side:6s} exit {code}"
                  + (f", failed {failed}" if result else ""), flush=True)
            if result is None:
                problems.append(f"pair {pair + 1} {side}: run exited {code}")
            elif failed:
                problems.append(f"pair {pair + 1} {side}: {failed} failed "
                                f"checks")
            for failure in failures:
                print(f"  {failure}", flush=True)

    complete = [p for p in range(args.pairs)
                if all(r["result"] for r in runs if r["pair"] == p)]
    samples = {side: {r["pair"]: r["result"] for r in runs
                      if r["side"] == side and r["result"]}
               for side in trees}
    summary = {}
    print(f"\n{args.workload} seed {args.seed} trace {args.trace}, "
          f"{seconds:g} s runs, {len(complete)} complete pairs; "
          f"parent {sha[:12]} vs this checkout")
    header = (f"{'metric':32s} {'parent median [q1, q3]':28s} "
              f"{'change median [q1, q3]':28s} {'won c/p/tie':11s} "
              f"{'gap>IQR':7s} {'gain':5s} bound")
    print(header)
    for metric in metrics:
        name = metric["name"]
        try:
            base = [samples["base"][p]["metrics"][name]["value"]
                    for p in complete]
            change = [samples["change"][p]["metrics"][name]["value"]
                      for p in complete]
        except KeyError:
            continue
        if not base:
            continue
        v = verdict(base, change, metric["better"], metric.get("bound"))
        summary[name] = v
        if v["within_bound"] is None:
            bound = "-"
        elif v["unresolved"]:
            bound = "unresolved"
        else:
            bound = "within" if v["within_bound"] else "WORSE"
        won = f"{v['change_wins']}/{v['base_wins']}/{v['ties']}"
        print(f"{name:32s} {fmt_spread(v['base']):28s} "
              f"{fmt_spread(v['change']):28s} {won:11s} "
              f"{'yes' if v['gap_exceeds_iqr'] else 'no':7s} "
              f"{'yes' if v['gain_holds'] else 'no':5s} {bound}")
    for side in ("base", "change"):
        results = [r["result"] for r in runs if r["side"] == side
                   and r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        label = "parent" if side == "base" else "change"
        print(f"{label}: {len(results)} runs, {attempted} checks attempted, "
              f"{failed} failed")

    PAIRS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = PAIRS_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                       f"{sha[:12]}-{stamp}.json")
    out.write_text(json.dumps({
        "base": sha, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": seconds, "pairs": args.pairs,
        "runs": runs, "summary": summary, "problems": problems,
    }, indent=1) + "\n")
    print(f"raw results: {out.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
