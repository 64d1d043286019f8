// Google-benchmark: the one-sided transport's two costs that matter.
//
// BM_RmaPutThroughput drives raw Window::put calls into the sharded
// RMA board (no rank threads, zero modelled latency), so the counter
// is the board's flag-store ceiling: how fast the runtime can absorb
// one-sided signals before schedule structure enters the picture.
//
// BM_RmaEpisode runs full dissemination episodes on pooled rank
// threads with the stage signals carried two-sided, fully one-sided,
// or hybrid (alternating stages — the shape the transport tuner
// produces on the modelled clusters, where puts pay off across node
// boundaries but not inside them). With zero injected latency the
// spread between the three rows is pure runtime overhead: matched
// send/recv bookkeeping versus fire-and-forget flag stores.
//
// BM_RmaAssignHybrid times the transport tuner itself: the hybrid
// per-edge descent of assign_transports() on a plan tuned once for the
// hex preset at P = 48 and 120 (4 and 10 nodes), re-run on a fresh
// copy of the untagged schedule each iteration (wall clock).
//
// BM_RmaFreshWorldEpisode is the per-world cost of one hybrid episode:
// the same hex plans, tagged hybrid once outside the loop; each
// iteration builds a zero-latency Communicator and its rank contexts,
// posts every rank, steps test() from this one thread until all ranks
// are done, and tears the world down. That includes allocating the
// executor's flag window on the first post, which BM_RmaEpisode, on
// one reused communicator, never pays again.
//
// All rows land in BENCH_rma.json via scripts/bench_json.sh and are
// regression-gated by scripts/bench_compare.py.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/schedule.hpp"
#include "core/tuner.hpp"
#include "rma/transport.hpp"
#include "rma/window.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace {

using namespace optibar;
using simmpi::Communicator;
using simmpi::RankContext;
using simmpi::ScheduleExecutor;

simmpi::LatencyModel zero_latency() {
  return [](std::size_t, std::size_t) {
    return simmpi::Clock::duration::zero();
  };
}

void BM_RmaPutThroughput(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  Communicator comm(p, zero_latency());
  rma::Window window(comm, p);
  std::size_t episode = 0;
  std::size_t src = 1;
  for (auto _ : state) {
    // Rank src signals rank 0's slot `src`; rotating the source spreads
    // the stores across board shards, and bumping the episode each lap
    // exercises the double-buffered epoch arithmetic on the hot path.
    window.put(src, 0, episode, src);
    if (++src == p) {
      src = 1;
      ++episode;
    }
  }
  state.counters["puts_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RmaPutThroughput)->Arg(16)->Arg(48);

// Transport rows for BM_RmaEpisode's second argument.
enum : int { kTwoSidedRow = 0, kOneSidedRow = 1, kHybridRow = 2 };

Schedule tagged_dissemination(std::size_t p, int row) {
  Schedule schedule = dissemination_barrier(p);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    if (row == kOneSidedRow || (row == kHybridRow && s % 2 == 0)) {
      schedule.set_all_one_sided(s, true);
    }
  }
  return schedule;
}

void BM_RmaEpisode(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const ScheduleExecutor executor(
      tagged_dissemination(p, static_cast<int>(state.range(1))));
  Communicator comm(p, zero_latency());
  simmpi::RankPool pool(p);
  int episode = 0;
  for (auto _ : state) {
    simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
      executor.execute(ctx, episode);
    });
    ++episode;
  }
  state.counters["episodes_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RmaEpisode)
    ->ArgsProduct({{16, 48}, {kTwoSidedRow, kOneSidedRow, kHybridRow}})
    ->Unit(benchmark::kMillisecond);

void BM_RmaAssignHybrid(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const MachineSpec machine = hex_cluster(p / 12);
  const TuneResult tuned = tune_barrier(
      generate_profile(machine, round_robin_mapping(machine, p)), {});
  double cost = 0.0;
  for (auto _ : state) {
    Schedule schedule = tuned.schedule();
    cost = rma::assign_transports(schedule, tuned.profile(),
                                  tuned.barrier().awaited_stages,
                                  rma::Transport::kHybrid);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_RmaAssignHybrid)
    ->Arg(48)
    ->Arg(120)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RmaFreshWorldEpisode(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const MachineSpec machine = hex_cluster(p / 12);
  const TuneResult tuned = tune_barrier(
      generate_profile(machine, round_robin_mapping(machine, p)), {});
  Schedule schedule = tuned.schedule();
  rma::assign_transports(schedule, tuned.profile(),
                         tuned.barrier().awaited_stages,
                         rma::Transport::kHybrid);
  const ScheduleExecutor executor(schedule);
  // Every stage completes within one sweep once its senders have run.
  const std::size_t max_sweeps = 4 * schedule.stage_count() + 16;
  for (auto _ : state) {
    Communicator comm(p, zero_latency());
    std::vector<RankContext> contexts;
    contexts.reserve(p);
    for (std::size_t r = 0; r < p; ++r) {
      contexts.emplace_back(comm, r);
    }
    std::vector<ScheduleExecutor::EpisodeHandle> handles;
    handles.reserve(p);
    for (std::size_t r = 0; r < p; ++r) {
      handles.push_back(executor.post(contexts[r], 0));
    }
    std::size_t remaining = p;
    for (std::size_t sweep = 0; remaining > 0 && sweep < max_sweeps;
         ++sweep) {
      remaining = 0;
      for (ScheduleExecutor::EpisodeHandle& handle : handles) {
        remaining += executor.test(handle) ? 0 : 1;
      }
    }
    if (remaining > 0) {
      state.SkipWithError("a rank never finished its episode");
      break;
    }
    benchmark::DoNotOptimize(comm.unmatched_operations());
  }
  state.counters["episodes_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RmaFreshWorldEpisode)
    ->Arg(48)
    ->Arg(120)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
