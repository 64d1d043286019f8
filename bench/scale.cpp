// Google-benchmark: scaling of tune / predict / simulate with rank count.
//
// Section VIII notes tuning "requires on the order of 0.1 seconds" at
// paper scale; this bench tracks how that cost grows towards 10k ranks
// and contrasts the dense pipeline (P x P profile + flat tuner) with the
// hierarchical one (tiled profile + per-class sub-barriers + leader
// stage). Counters record exact model memory so BENCH_scale.json shows
// the sub-quadratic footprint directly:
//   mem_profile_bytes — cost-model storage (dense matrices vs tiles)
//   mem_plan_bytes    — schedule storage (flat edge lists vs blocked form)
//   mem_compiled_bytes — the compiled 10k plan the predictor and netsim
//                       read (CompiledSchedule::memory_bytes)
//   events_per_second — netsim throughput on the compiled 10k schedule
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "core/hierarchical.hpp"
#include "core/tuner.hpp"
#include "netsim/engine.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/profile.hpp"

namespace {

using namespace optibar;

// A tenk-cluster slice with exactly `ranks` cores (40 per node).
MachineSpec tenk_slice(std::size_t ranks) {
  return tenk_cluster(ranks / 40);
}

// Dense matrices actually held by a TopologyProfile (O, L, and the
// optional G/R planes); TopologyProfile exposes no byte count itself.
double dense_profile_bytes(const TopologyProfile& profile) {
  const double cells =
      static_cast<double>(profile.ranks()) * static_cast<double>(profile.ranks());
  const double planes = 2.0 + (profile.has_bandwidth() ? 1.0 : 0.0) +
                        (profile.has_rma_latency() ? 1.0 : 0.0);
  return cells * planes * static_cast<double>(sizeof(double));
}

// A Schedule stores each stage as its sorted signals.
double flat_plan_bytes(const Schedule& schedule) {
  return static_cast<double>(schedule.total_signals() * sizeof(Signal) +
                             schedule.stage_count() * sizeof(Stage));
}

// Full dense pipeline: P x P synthetic profile is built once (profiling
// is the machine's job, not the tuner's); the timed region is clustering
// + composition + validation + prediction, exactly what `optibar tune`
// runs after loading a profile.
void BM_DenseTunePipeline(benchmark::State& state) {
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  const TopologyProfile profile = generate_profile(tenk_slice(ranks), ranks);
  double plan_bytes = 0.0;
  for (auto _ : state) {
    const TuneResult result = tune_barrier(profile);
    plan_bytes = flat_plan_bytes(result.schedule());
    benchmark::DoNotOptimize(plan_bytes);
  }
  state.counters["mem_profile_bytes"] = dense_profile_bytes(profile);
  state.counters["mem_plan_bytes"] = plan_bytes;
}
BENCHMARK(BM_DenseTunePipeline)->Arg(640)->Arg(1280)->Arg(2560)
    ->Unit(benchmark::kMillisecond);

// Hierarchical pipeline on the tiled profile: one tile tune per cluster
// class + a leader stage over 256-ish representatives. Cost should stay
// near-flat in P (it depends on tile size and cluster count, not P^2).
void BM_HierarchicalTune(benchmark::State& state) {
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  const TiledProfile tiled = generate_tiled_profile(tenk_slice(ranks), ranks);
  double plan_bytes = 0.0;
  for (auto _ : state) {
    const HierarchicalTuneResult result = tune_hierarchical(tiled);
    plan_bytes = static_cast<double>(result.blocked.memory_bytes());
    benchmark::DoNotOptimize(plan_bytes);
  }
  state.counters["mem_profile_bytes"] =
      static_cast<double>(tiled.memory_bytes());
  state.counters["mem_plan_bytes"] = plan_bytes;
}
BENCHMARK(BM_HierarchicalTune)
    ->Arg(640)->Arg(1280)->Arg(2560)->Arg(5120)->Arg(10240)
    ->Unit(benchmark::kMillisecond);

// Prediction alone at 10k: compile the blocked plan against tiled costs
// and run the critical-path predictor. This is the steady-state retune
// inner loop, so it gets its own number.
void BM_HierarchicalPredict(benchmark::State& state) {
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  const TiledProfile tiled = generate_tiled_profile(tenk_slice(ranks), ranks);
  const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
  PredictOptions options;
  options.awaited_stages = tuned.blocked.awaited_stages();
  PredictWorkspace workspace;
  CompiledSchedule compiled;
  for (auto _ : state) {
    compile_blocked(tuned.blocked, tiled, compiled);
    benchmark::DoNotOptimize(predicted_time(compiled, options, workspace));
  }
  state.counters["mem_plan_bytes"] =
      static_cast<double>(tuned.blocked.memory_bytes());
  state.counters["mem_compiled_bytes"] =
      static_cast<double>(compiled.memory_bytes());
}
BENCHMARK(BM_HierarchicalPredict)->Arg(10240)->Unit(benchmark::kMillisecond);

// Event-driven simulation of the tuned 10k barrier, consuming tiled
// costs directly (no densification). events_per_second is the event
// heap's sustained throughput at this scale.
void BM_NetsimBlocked(benchmark::State& state) {
  const std::size_t ranks = static_cast<std::size_t>(state.range(0));
  const TiledProfile tiled = generate_tiled_profile(tenk_slice(ranks), ranks);
  const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
  SimOptions options;
  options.jitter = 0.02;
  SimWorkspace workspace;
  SimResult result;
  double events_per_run = 0.0;
  for (auto _ : state) {
    options.seed += 1;
    simulate_compiled_into(tuned.compiled, tiled, options, workspace, result);
    events_per_run = static_cast<double>(workspace.queue.scheduled());
    benchmark::DoNotOptimize(result.barrier_time());
  }
  state.counters["events_per_second"] = benchmark::Counter(
      events_per_run * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetsimBlocked)->Arg(10240)->Unit(benchmark::kMillisecond);

}  // namespace
