// Tests for dynamic re-tuning: drift monitoring, the amortization rule,
// and the plan service's drift re-tunes end to end (Section VIII future
// work).
#include "core/retune.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/library.hpp"
#include "util/matrix.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TopologyProfile base_profile(std::size_t ranks = 16) {
  const MachineSpec m = quad_cluster();
  return generate_profile(m, round_robin_mapping(m, ranks));
}

/// The "conditions changed" truth used by the re-tuning tests: the
/// same machine under a *different* rank placement (block instead of
/// round-robin). This models the affinity drift the paper warns about —
/// "valid predictions require consistency between the run time
/// conditions reflected in the profile and those of an experimental
/// verification" — and guarantees the old schedule's locality
/// assumptions are wrong, so a re-tune has something to win.
TopologyProfile remapped_profile(std::size_t ranks = 16) {
  const MachineSpec m = quad_cluster();
  return generate_profile(m, block_mapping(m, ranks));
}

std::vector<std::size_t> all_ranks(std::size_t ranks = 16) {
  std::vector<std::size_t> world(ranks);
  std::iota(world.begin(), world.end(), std::size_t{0});
  return world;
}

/// A library that re-tunes drifted plans in the background, adopting
/// every observation outright.
EngineOptions retune_options(double expected_calls) {
  EngineOptions options;
  options.service.auto_repair = true;
  options.service.drift_alpha = 1.0;
  options.service.drift_retune_threshold = 0.5;
  options.service.expected_calls = expected_calls;
  return options;
}

/// Report every pairwise O and L of `truth`, draining the repair worker
/// after each report so every decision sees exactly the reports before
/// it.
void feed_observations(BarrierLibrary& library,
                       const std::vector<std::size_t>& subset,
                       const TopologyProfile& truth) {
  for (std::size_t i = 0; i < truth.ranks(); ++i) {
    for (std::size_t j = i + 1; j < truth.ranks(); ++j) {
      library.report_measured_overhead(subset, i, j, truth.o(i, j));
      library.wait_for_repairs();
      library.report_measured_latency(subset, i, j, truth.l(i, j));
      library.wait_for_repairs();
    }
  }
}

TEST(DriftMonitor, StartsWithZeroDrift) {
  DriftMonitor monitor(base_profile());
  EXPECT_DOUBLE_EQ(monitor.max_drift(), 0.0);
  EXPECT_EQ(monitor.observation_count(), 0u);
}

TEST(DriftMonitor, EwmaConvergesToObservations) {
  TopologyProfile profile = base_profile();
  const double old_value = profile.o(0, 1);
  DriftMonitor monitor(std::move(profile), /*alpha=*/0.5);
  const double target = old_value * 3.0;
  for (int i = 0; i < 30; ++i) {
    monitor.observe_overhead(0, 1, target);
  }
  EXPECT_NEAR(monitor.current().o(0, 1), target, 1e-3 * target);
  EXPECT_NEAR(monitor.current().o(1, 0), target, 1e-3 * target);
  EXPECT_NEAR(monitor.max_drift(), 2.0, 0.01);  // 3x = 200% drift
}

TEST(DriftMonitor, SingleObservationMovesByAlpha) {
  TopologyProfile profile = base_profile();
  const double old_value = profile.o(0, 8);
  DriftMonitor monitor(std::move(profile), /*alpha=*/0.25);
  monitor.observe_overhead(0, 8, 2.0 * old_value);
  EXPECT_NEAR(monitor.current().o(0, 8), 1.25 * old_value, 1e-12);
}

TEST(DriftMonitor, LatencyObservationsUpdateL) {
  TopologyProfile profile = base_profile();
  const double old_value = profile.l(0, 1);
  DriftMonitor monitor(std::move(profile), /*alpha=*/1.0);
  monitor.observe_latency(0, 1, 5.0 * old_value);
  EXPECT_DOUBLE_EQ(monitor.current().l(0, 1), 5.0 * old_value);
  EXPECT_DOUBLE_EQ(monitor.current().l(1, 0), 5.0 * old_value);
}

TEST(DriftMonitor, RebaselineZeroesDrift) {
  DriftMonitor monitor(base_profile(), 1.0);
  monitor.observe_overhead(0, 1, 1.0);
  EXPECT_GT(monitor.max_drift(), 0.0);
  monitor.rebaseline();
  EXPECT_DOUBLE_EQ(monitor.max_drift(), 0.0);
}

TEST(DriftMonitor, RebaselineToSnapshotKeepsLaterDrift) {
  // Re-anchoring to an earlier snapshot forgets only what the snapshot
  // holds: an observation folded after it still counts as drift.
  TopologyProfile profile = base_profile();
  const double old_value = profile.l(2, 3);
  DriftMonitor monitor(std::move(profile), 1.0);
  monitor.observe_overhead(0, 1, 1.0);
  const TopologyProfile snapshot = monitor.current();
  monitor.observe_latency(2, 3, 3.0 * old_value);
  monitor.rebaseline(snapshot);
  EXPECT_NEAR(monitor.max_drift(), 2.0, 1e-12);
  EXPECT_THROW(monitor.rebaseline(base_profile(8)), Error);
}

TEST(DriftMonitor, RejectsBadInputs) {
  EXPECT_THROW(DriftMonitor(base_profile(), 0.0), Error);
  EXPECT_THROW(DriftMonitor(base_profile(), 1.5), Error);
  DriftMonitor monitor(base_profile());
  EXPECT_THROW(monitor.observe_overhead(0, 99, 1e-6), Error);
  EXPECT_THROW(monitor.observe_overhead(0, 1, -1.0), Error);
  EXPECT_THROW(monitor.observe_latency(3, 3, 1e-6), Error);
}

TEST(DriftMonitor, RejectsNonFiniteObservations) {
  // One poisoned sample would contaminate the EWMA window for good, so
  // every observe_* entry point rejects NaN/Inf/negative at the
  // boundary — and a rejected sample must not move the view at all.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DriftMonitor monitor(base_profile());
  for (const double bad : {nan, inf, -inf, -1e-9}) {
    EXPECT_THROW(monitor.observe_overhead(0, 1, bad), Error);
    EXPECT_THROW(monitor.observe_latency(0, 1, bad), Error);
  }
  EXPECT_EQ(monitor.observation_count(), 0u);
  EXPECT_DOUBLE_EQ(monitor.max_drift(), 0.0);
  EXPECT_EQ(monitor.current(), monitor.baseline());

  // The R-matrix path enforces the same contract.
  TopologyProfile with_r = base_profile();
  Matrix<double> r(with_r.ranks(), with_r.ranks());
  for (std::size_t i = 0; i < with_r.ranks(); ++i) {
    for (std::size_t j = 0; j < with_r.ranks(); ++j) {
      r(i, j) = i == j ? 0.0 : 1e-6;
    }
  }
  with_r.set_rma_latency(std::move(r));
  DriftMonitor rma_monitor(with_r);
  for (const double bad : {nan, inf, -inf, -1e-9}) {
    EXPECT_THROW(rma_monitor.observe_rma_latency(0, 1, bad), Error);
  }
  EXPECT_EQ(rma_monitor.observation_count(), 0u);
  rma_monitor.observe_rma_latency(0, 1, 5e-6);
  EXPECT_GT(rma_monitor.max_drift(), 0.0);  // R drift is monitored too

  // A profile without R data cannot fold one-sided observations.
  Matrix<double> o(4, 4);
  Matrix<double> l(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      o(i, j) = i == j ? 0.0 : 1e-6;
      l(i, j) = i == j ? 0.0 : 2e-6;
    }
  }
  DriftMonitor bare(TopologyProfile(std::move(o), std::move(l)));
  EXPECT_THROW(bare.observe_rma_latency(0, 1, 1e-6), Error);
}

TEST(Amortization, RetunesWhenGainCoversOverhead) {
  // Gain 10us/call, overhead 0.1s -> break-even at 10,000 calls.
  const RetuneDecision d = evaluate_retune(1e-4, 9e-5, 0.1, 20'000);
  EXPECT_TRUE(d.retune);
  EXPECT_NEAR(d.gain_per_call, 1e-5, 1e-12);
  EXPECT_NEAR(d.break_even_calls, 10'000.0, 1.0);
}

TEST(Amortization, DeclinesShortHorizons) {
  const RetuneDecision d = evaluate_retune(1e-4, 9e-5, 0.1, 5'000);
  EXPECT_FALSE(d.retune);
  EXPECT_NEAR(d.break_even_calls, 10'000.0, 1.0);
}

TEST(Amortization, NeverRetunesForWorseCandidate) {
  const RetuneDecision d = evaluate_retune(1e-4, 2e-4, 0.0, 1e12);
  EXPECT_FALSE(d.retune);
  EXPECT_TRUE(std::isinf(d.break_even_calls));
}

TEST(Amortization, ZeroOverheadRetunesOnAnyGain) {
  const RetuneDecision d = evaluate_retune(1e-4, 9.9e-5, 0.0, 1.0);
  EXPECT_TRUE(d.retune);
  EXPECT_DOUBLE_EQ(d.break_even_calls, 0.0);
}

TEST(LibraryRetune, NoDriftStartsNoEvaluation) {
  BarrierLibrary library(base_profile(), retune_options(1e9));
  const LibraryEntry& tuned = library.subset_plan(all_ranks());
  feed_observations(library, all_ranks(), base_profile());
  EXPECT_EQ(library.stats().repairs_started, 0u);
  EXPECT_DOUBLE_EQ(library.plan_health(all_ranks()).observed_drift, 0.0);
  EXPECT_EQ(&library.subset_plan(all_ranks()), &tuned);
}

TEST(LibraryRetune, AdaptsToChangedPlacement) {
  // The placement changed from round-robin to block; the served plan's
  // "node-local" sub-barriers now cross nodes. Report the new truth as
  // O and L observations with a long horizon, and check the library
  // both re-tunes and actually improves the simulated cost on the new
  // truth.
  const TopologyProfile after = remapped_profile();
  BarrierLibrary library(base_profile(), retune_options(1e9));
  const Schedule original = library.subset_plan(all_ranks()).stored.schedule;

  feed_observations(library, all_ranks(), after);
  const ServiceStats stats = library.stats();
  EXPECT_GE(stats.repairs_started, 1u);
  EXPECT_GE(stats.drift_retunes, 1u);

  // The served plan must beat the stale one on the re-mapped machine.
  const LibraryEntry& served = library.subset_plan(all_ranks());
  EXPECT_FALSE(served.degraded);
  EXPECT_EQ(library.plan_state(all_ranks()), PlanState::kHealthy);
  const double old_cost = simulate(original, after).barrier_time();
  const double new_cost = simulate(served.stored.schedule, after).barrier_time();
  EXPECT_LT(new_cost, old_cost);

  // Every re-tune re-anchored the monitor to the view it evaluated.
  EXPECT_LT(library.plan_health(all_ranks()).observed_drift, 0.5);
}

TEST(LibraryRetune, ZeroHorizonDeclines) {
  // No remaining calls can amortize a re-tune: the library evaluates
  // the drifted view but keeps serving the plan it has.
  BarrierLibrary library(base_profile(), retune_options(0.0));
  const LibraryEntry& tuned = library.subset_plan(all_ranks());
  feed_observations(library, all_ranks(), remapped_profile());
  const ServiceStats stats = library.stats();
  EXPECT_GE(stats.repairs_started, 1u);
  EXPECT_EQ(stats.drift_retunes, 0u);
  EXPECT_EQ(stats.repairs_failed, 0u);  // a declined drift job never "fails"
  EXPECT_EQ(&library.subset_plan(all_ranks()), &tuned);
}

}  // namespace
}  // namespace optibar
