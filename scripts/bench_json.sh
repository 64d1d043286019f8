#!/usr/bin/env bash
# Perf trajectory: run the cost-kernel and tuning-pipeline benches and
# write their google-benchmark JSON to the repo root, where each PR
# commits the refreshed numbers.
#
#   BENCH_predict.json    — bench_predict_throughput (compiled kernel vs
#                           reference predict, compile cost, search step);
#                           five interleaved repetitions
#   BENCH_tuning.json     — bench_tuning_speed (full pipeline, stages,
#                           thread scaling, library batch tuning, and
#                           the text loads every tune starts from:
#                           dense v3 profiles at P = 32/120 and the
#                           tiled 10240-rank profile); five interleaved
#                           repetitions, as for BENCH_rma.json below
#   BENCH_collective.json — bench_collective (collective tuning on hex,
#                           payload-aware predict/compile/sim throughput);
#                           five interleaved repetitions
#   BENCH_runtime.json    — bench_thread_runtime (episode throughput:
#                           spawn vs pooled ranks x global vs sharded
#                           message board, P = 16/48/120); five
#                           interleaved repetitions
#   BENCH_overlap.json    — bench_overlap (episode throughput with
#                           per-rank compute overlapped through the
#                           post/test/wait lifecycle, ratio 0/50/100%);
#                           five interleaved repetitions
#   BENCH_netsim.json     — bench_netsim (simulated events/sec: event-
#                           heap engine vs reference, P = 120/1000 x
#                           dissemination/heap-tree/radix-4 families);
#                           five interleaved repetitions, as for
#                           BENCH_rma.json below
#   BENCH_rma.json        — bench_rma (one-sided flag-store puts/sec on
#                           the sharded board, episode throughput
#                           with two-sided / one-sided / hybrid
#                           transport on pooled ranks, the wall
#                           time of the hybrid transport assignment on
#                           tuned hex plans, BM_RmaAssignHybrid, and
#                           one hybrid episode on a fresh world,
#                           BM_RmaFreshWorldEpisode); five
#                           repetitions, interleaved across rows so a
#                           median spans the whole run rather than one
#                           phase of a shared host; the gate reads the
#                           median rows
#   BENCH_service.json    — bench_service (plan-service mixed soak: 1M
#                           ops across 4 clients with the background
#                           repair worker live; ops_per_second gated,
#                           p50/p99 committed for trajectory); five
#                           interleaved repetitions
#   BENCH_scale.json      — bench_scale (tune/predict/simulate scaling
#                           to 10240 ranks: dense pipeline vs tiled
#                           hierarchical, with exact model-memory
#                           counters and netsim events/sec at 10k);
#                           five interleaved repetitions
#
# Usage: scripts/bench_json.sh [build-dir]   (default: build)
# BENCH_FILTER limits both runs, e.g.
#   BENCH_FILTER=BM_PredictThroughput scripts/bench_json.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
FILTER="${BENCH_FILTER:-}"

for bench in bench_predict_throughput bench_tuning_speed bench_collective \
             bench_thread_runtime bench_overlap bench_netsim bench_rma \
             bench_service bench_scale; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: $BUILD_DIR/bench/$bench not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

# run BENCH OUT [EXTRA-ARGS...]
run() {
  local bench="$1" out="$2"
  shift 2
  "$BUILD_DIR/bench/$bench" \
    --benchmark_format=json \
    ${FILTER:+--benchmark_filter="$FILTER"} \
    "$@" \
    >"$out"
  echo "wrote $out"
}

run bench_predict_throughput BENCH_predict.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_tuning_speed BENCH_tuning.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_collective BENCH_collective.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_thread_runtime BENCH_runtime.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_overlap BENCH_overlap.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_netsim BENCH_netsim.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_rma BENCH_rma.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_service BENCH_service.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
run bench_scale BENCH_scale.json --benchmark_repetitions=5 \
    --benchmark_enable_random_interleaving=true
