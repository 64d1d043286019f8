#!/usr/bin/env python3
"""Pipeline benchmark of optibar: profile -> plan -> simulate -> execute -> serve.

Usage (from the repository root):

    python3 perfbench/run.py --workload hex-120 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (an optimized, standalone build of the library sources
plus the pipeline_bench program) into .bench_build/perfbench, runs one
workload, and prints a report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes a Chrome trace under .bench_build/traces).
setup_s is the median set-up time (process start to the first timed
iteration) of COLD_SETUPS fresh processes: COLD_SETUPS - 1 that stop
after set-up, and the measuring run itself. Every run also writes its
full result, with provenance, under .bench_build/results. Exits non-zero, without a result line, when the
library sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("hex-120", "tenk-10240", "service-quad-32")
RUN_TIMEOUT_S = 175
COLD_SETUPS = 3


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return BUILD_DIR / "pipeline_bench"


def commit_id():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurements)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not (ROOT / "src" / "core" / "library.hpp").exists():
        fail(f"optibar sources not found under {ROOT / 'src'}")
    binary = build()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.tiny:
        tag += "-tiny"
    for sub in ("work", "traces", "results"):
        (BUILD_ROOT / sub).mkdir(parents=True, exist_ok=True)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(BUILD_ROOT / "work" / tag),
        "--trace-out", str(BUILD_ROOT / "traces" / f"{tag}.json"),
        "--results-out", str(BUILD_ROOT / "results" / f"{tag}.json"),
        "--commit", commit_id(),
        "--source-digest", source_digest(),
    ]
    if args.tiny:
        command.append("--tiny")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        for _ in range(COLD_SETUPS - 1):
            setup = subprocess.run(command + ["--setup-only"],
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=deadline - time.monotonic())
            if setup.returncode != 0:
                fail(f"set-up exited with code {setup.returncode}", 1)
            setups.append(setup.stdout.split()[-1])
        if setups:
            command += ["--setup-samples", ",".join(setups)]
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"pipeline_bench exited with code {run.returncode}", 1)

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            fail(f"metrics do not match BENCHMARK.json (missing {missing}, "
                 f"unexpected {extra}, or a unit differs)", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
