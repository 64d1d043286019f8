// Google-benchmark: cost-model evaluation throughput, compiled kernel vs
// reference implementation. The cost model is the inner loop of the
// tuning engine (every composer candidate, search node and re-tune
// decision is one predict() call), so predictions/sec is the direct
// multiplier on how many candidate schedules the generator can afford to
// score — the feasibility constraint Section VII-B turns on.
//
// BM_PredictReference     — the uncompiled Section VI recurrence (the
//                           pre-compiled-kernel predict())
// BM_PredictThroughput    — CompiledSchedule + PredictWorkspace,
//                           compile once / evaluate many (zero-alloc)
// BM_PredictWrapper       — predict() facade: compile-and-evaluate per
//                           call through thread-local reused storage
// BM_CompileSchedule      — the one-time compile cost
// BM_IncrementalAppend    — IncrementalPredictor push/pop of one stage,
//                           the branch-and-bound search step
#include <benchmark/benchmark.h>

#include "barrier/algorithms.hpp"
#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "core/tuner.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "netsim/engine.hpp"
#include "topology/mapping.hpp"

namespace {

using namespace optibar;

struct Workload {
  TopologyProfile profile;
  Schedule schedule{1};
  PredictOptions options;
};

/// Tuned schedule on the paper's machines (quad <= 64 ranks, hex above),
/// priced with its awaited-stage pattern; optionally with the analytic
/// egress-contention term.
Workload workload_for(std::size_t p, bool contended) {
  const MachineSpec machine = p <= 64 ? quad_cluster() : hex_cluster();
  const Mapping mapping = round_robin_mapping(machine, p);
  Workload w;
  w.profile = generate_profile(machine, mapping);
  const TuneResult tuned = tune_barrier(w.profile);
  w.schedule = tuned.schedule();
  w.options.awaited_stages = tuned.barrier().awaited_stages;
  if (contended) {
    w.options.egress_resource_of = node_egress_resources(machine, mapping);
  }
  return w;
}

void BM_PredictReference(benchmark::State& state) {
  const Workload w = workload_for(static_cast<std::size_t>(state.range(0)),
                                  state.range(1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predict_reference(w.schedule, w.profile, w.options).critical_path);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictReference)
    ->ArgsProduct({{64, 120}, {0, 1}})
    ->ArgNames({"p", "egress"});

void BM_PredictThroughput(benchmark::State& state) {
  const Workload w = workload_for(static_cast<std::size_t>(state.range(0)),
                                  state.range(1) != 0);
  const CompiledSchedule compiled(w.schedule, w.profile);
  PredictWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predicted_time(compiled, w.options, workspace));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictThroughput)
    ->ArgsProduct({{64, 120}, {0, 1}})
    ->ArgNames({"p", "egress"});

void BM_PredictWrapper(benchmark::State& state) {
  const Workload w =
      workload_for(static_cast<std::size_t>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predicted_time(w.schedule, w.profile, w.options));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictWrapper)->Arg(64)->Arg(120)->ArgName("p");

void BM_CompileSchedule(benchmark::State& state) {
  const Workload w =
      workload_for(static_cast<std::size_t>(state.range(0)), false);
  CompiledSchedule compiled;
  for (auto _ : state) {
    compiled.compile(w.schedule, w.profile);
    benchmark::DoNotOptimize(compiled.stage_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileSchedule)->Arg(64)->Arg(120)->ArgName("p");

void BM_IncrementalAppend(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const Workload w = workload_for(p, false);
  IncrementalPredictor predictor(w.profile);
  const Schedule tree = tree_barrier(p);
  const Stage& stage = tree.stage(0);
  for (auto _ : state) {
    predictor.push_stage(stage);
    benchmark::DoNotOptimize(predictor.max_ready());
    predictor.pop_stage();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalAppend)->Arg(4)->Arg(64)->Arg(120)->ArgName("p");

}  // namespace
