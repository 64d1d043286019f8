// Google-benchmark: discrete-event simulation throughput, event-heap
// engine vs the retained reference engine. netsim stands in for measured
// execution time everywhere the tuner needs feedback (workload sweeps,
// retuning, overlap CI runs), so simulated events/sec is the direct
// multiplier on how many episodes those loops can afford.
//
// BM_SimulateReference — the original engine: std::function closures on
//                        a binary-heap EventQueue, per-stage adjacency
//                        vectors, nested buffered-message vectors
// BM_SimulateCompiled  — CompiledSchedule + SimWorkspace steady state:
//                        compile once / simulate many, zero allocations
//                        once the workspace is warm
// BM_SimulateWrapper   — the simulate() facade (thread-local workspace,
//                        compile per call): what casual callers get
//
// Both engines execute the same event sequence bit for bit, so one
// event count per configuration (taken from the event heap's
// scheduled() counter) is the honest numerator for every variant's
// events_per_second rate — the counter BENCH_netsim.json commits and
// scripts/bench_compare.py gates.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "barrier/algorithms.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace {

using namespace optibar;

struct Setup {
  TopologyProfile profile;
  Schedule schedule{1};
  SimOptions options;
  double events_per_run = 0.0;
};

Schedule family_schedule(std::size_t p, int family) {
  switch (family) {
    case 0:
      return dissemination_barrier(p);
    case 1:
      return heap_tree_barrier(p);
    default:
      // Radix-4 dissemination: the high-fan-out end of the tuned
      // hex-composed schedules (fewer stages, wider batches).
      return radix_dissemination_barrier(p, 4);
  }
}

/// Hex preset up to its 120-core capacity, a wider quad cluster above
/// (250 nodes x 4 cores = the P=1000 point of the scaling sweep).
Setup setup_for(std::size_t p, int family) {
  const MachineSpec machine = p <= 120 ? hex_cluster() : quad_cluster(250);
  Setup s;
  s.profile =
      generate_profile(machine, round_robin_mapping(machine, p),
                       GenerateOptions{});
  s.schedule = family_schedule(p, family);
  s.options.jitter = 0.05;  // keep the per-message RNG draws in the loop
  s.options.seed = 7;
  // One warm-up run counts the events; the engines are bit-identical,
  // so this count holds for every variant below.
  SimWorkspace workspace;
  SimResult out;
  simulate_into(s.schedule, s.profile, s.options, workspace, out);
  s.events_per_run = static_cast<double>(workspace.queue.scheduled());
  return s;
}

void set_rate(benchmark::State& state, double events_per_run) {
  state.counters["events_per_second"] = benchmark::Counter(
      events_per_run * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}

void BM_SimulateReference(benchmark::State& state) {
  const Setup s = setup_for(static_cast<std::size_t>(state.range(0)),
                            static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const SimResult r = simulate_reference(s.schedule, s.profile, s.options);
    benchmark::DoNotOptimize(r.completion.data());
  }
  set_rate(state, s.events_per_run);
}
BENCHMARK(BM_SimulateReference)
    ->ArgsProduct({{120, 1000}, {0, 1, 2}})
    ->ArgNames({"p", "family"})
    ->Unit(benchmark::kMicrosecond);

void BM_SimulateCompiled(benchmark::State& state) {
  const Setup s = setup_for(static_cast<std::size_t>(state.range(0)),
                            static_cast<int>(state.range(1)));
  const CompiledSchedule compiled(s.schedule, s.profile);
  SimWorkspace workspace;
  SimResult out;
  for (auto _ : state) {
    simulate_compiled_into(compiled, s.profile, s.options, workspace, out);
    benchmark::DoNotOptimize(out.completion.data());
  }
  set_rate(state, s.events_per_run);
}
BENCHMARK(BM_SimulateCompiled)
    ->ArgsProduct({{120, 1000}, {0, 1, 2}})
    ->ArgNames({"p", "family"})
    ->Unit(benchmark::kMicrosecond);

void BM_SimulateWrapper(benchmark::State& state) {
  const Setup s = setup_for(static_cast<std::size_t>(state.range(0)),
                            static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const SimResult r = simulate(s.schedule, s.profile, s.options);
    benchmark::DoNotOptimize(r.completion.data());
  }
  set_rate(state, s.events_per_run);
}
BENCHMARK(BM_SimulateWrapper)
    ->ArgsProduct({{120, 1000}, {0, 1, 2}})
    ->ArgNames({"p", "family"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
