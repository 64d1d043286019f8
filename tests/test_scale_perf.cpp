// Wall-clock smoke test for hierarchical tuning at 10k ranks (CTest
// label `perf`). The paper's §VIII feasibility claim — tuning on the
// order of 0.1 seconds — must survive at 10240 ranks on the tiled path:
// generate the tenk preset, tune it, predict, and netsim-simulate the
// compiled plan, all inside a deliberately loose budget (observed total
// is ~50 ms in a release build; the bound leaves two orders of
// magnitude for sanitizer builds and loaded CI runners). A dense
// pipeline at this scale would blow the budget on the profile alone
// (a 10240^2 double matrix is 840 MB), so passing here is direct
// evidence the hierarchical path never densifies. The simulated run is
// also pinned bit for bit, the only tier-1 check of netsim's pop order
// at this scale.
#include <gtest/gtest.h>

#include <chrono>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "core/hierarchical.hpp"
#include "netsim/engine.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/machine.hpp"

namespace optibar {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ScalePerf, TenKRankTuneAndSimulateInsideBudget) {
  constexpr std::size_t kRanks = 10240;
  constexpr double kBudgetSeconds = 10.0;

  const auto start = std::chrono::steady_clock::now();

  const TiledProfile tiled = generate_tiled_profile(tenk_cluster(), kRanks);
  const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
  ASSERT_FALSE(tuned.used_dense_fallback) << tuned.fallback_reason;
  ASSERT_EQ(tuned.blocked.ranks(), kRanks);
  EXPECT_GT(tuned.predicted_cost, 0.0);

  CompiledSchedule compiled;
  compile_blocked(tuned.blocked, tiled, compiled);

  SimOptions options;
  options.jitter = 0.02;
  options.seed = 7;
  SimWorkspace workspace;
  SimResult result;
  simulate_compiled_into(compiled, tiled, options, workspace, result);
  ASSERT_FALSE(result.deadlocked);
  EXPECT_GT(result.barrier_time(), 0.0);
  // Simulation identity at 10240 ranks: the scheduler pops in exact
  // (time, insertion-seq) order, which fixes every RNG draw, so the
  // seed-7 barrier time and event count are pinned to the bit.
  EXPECT_EQ(result.barrier_time(), 0x1.09fb5858c3fdfp-12);
  EXPECT_EQ(workspace.queue.scheduled(), 54272u);

  const double elapsed = seconds_since(start);
  EXPECT_LT(elapsed, kBudgetSeconds)
      << "10k-rank tune+predict+simulate took " << elapsed
      << " s; the hierarchical path has regressed toward dense scaling";
}

}  // namespace
}  // namespace optibar
