// Tests for the schedule post-optimization passes: validity
// preservation, monotone cost, known minimal forms, and behaviour on
// tuned hybrids.
#include "barrier/optimize.hpp"

#include <gtest/gtest.h>

#include "barrier/algorithms.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

TopologyProfile uniform_profile(std::size_t p, double o, double l) {
  Matrix<double> om(p, p, o);
  Matrix<double> lm(p, p, l);
  for (std::size_t i = 0; i < p; ++i) {
    om(i, i) = o / 10;
    lm(i, i) = 0.0;
  }
  return TopologyProfile(std::move(om), std::move(lm));
}

TEST(Prune, TreeBarrierIsAlreadyMinimal) {
  // 2(P-1) signals in a gather/broadcast pair: nothing to remove.
  const std::size_t p = 16;
  const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
  const OptimizeResult result =
      prune_redundant_signals(tree_barrier(p), profile);
  EXPECT_EQ(result.signals_removed, 0u);
  EXPECT_EQ(result.schedule, tree_barrier(p));
}

TEST(Prune, DisseminationIsPathUnique) {
  // A notable structural fact the pruner exposes: although the
  // dissemination barrier sends P*ceil(log2 P) signals (vs the tree's
  // 2(P-1)), *every* one of them is essential — knowledge of rank i
  // reaches rank j along exactly one chain of power-of-two offsets (the
  // binary representation of j-i), so removing any signal breaks the
  // Eq. 3 all-ones property. Redundancy only exists in combined or
  // over-synchronized patterns.
  const std::size_t p = 16;
  const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
  const OptimizeResult result =
      prune_redundant_signals(dissemination_barrier(p), profile);
  EXPECT_EQ(result.signals_removed, 0u);
}

TEST(Prune, DoubleBarrierCollapsesToSingle) {
  // Two back-to-back barriers: once the first completes knowledge, the
  // whole second one is redundant and must be stripped.
  const std::size_t p = 16;
  const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
  Schedule twice = dissemination_barrier(p);
  const Schedule second = dissemination_barrier(p);
  for (const Stage& stage : second.stages()) {
    twice.append_stage(stage);
  }
  const OptimizeResult result = prune_redundant_signals(twice, profile);
  EXPECT_EQ(result.signals_removed, second.total_signals());
  EXPECT_EQ(result.schedule, dissemination_barrier(p));
  EXPECT_LT(result.cost_after, 0.6 * result.cost_before);
}

TEST(Prune, PrefersDroppingExpensiveSignals) {
  // Rank 2's arrival can reach rank 1 either directly (expensive link)
  // or relayed through rank 0 (cheap); exactly one of the redundant
  // pair of paths survives, and the greedy pass drops the expensive
  // direct signal.
  const std::size_t p = 3;
  Matrix<double> o(p, p, 1e-6);
  Matrix<double> l(p, p, 1e-7);
  for (std::size_t i = 0; i < p; ++i) {
    o(i, i) = 5e-7;
    l(i, i) = 0.0;
  }
  o(2, 1) = o(1, 2) = 1e-4;  // slow direct link between 1 and 2
  l(2, 1) = l(1, 2) = 1e-5;
  const TopologyProfile profile(std::move(o), std::move(l));
  // Stage 0: 1->0, 2->0 and the redundant direct 2->1.
  // Stage 1: 0->1, 0->2 (carries everyone's arrival to both).
  Schedule s(p);
  oracle::StageMatrix s0(p, p, 0);
  s0(1, 0) = s0(2, 0) = s0(2, 1) = 1;
  oracle::StageMatrix s1(p, p, 0);
  s1(0, 1) = s1(0, 2) = 1;
  s.append_stage(oracle::stage_from_matrix(s0));
  s.append_stage(oracle::stage_from_matrix(s1));
  ASSERT_TRUE(s.is_barrier());
  const OptimizeResult result = prune_redundant_signals(s, profile);
  EXPECT_EQ(result.signals_removed, 1u);
  EXPECT_FALSE(result.schedule.has_signal(0, 2, 1));  // the slow one went
  EXPECT_TRUE(result.schedule.has_signal(0, 2, 0));  // the relay stayed
}

TEST(Fuse, CollapsesArtificiallySplitStages) {
  // A barrier split into one-signal-per-stage steps fuses back down.
  const std::size_t p = 4;
  const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
  Schedule split(p);
  // Arrival 1->0, 2->0, 3->0 in three separate stages, then broadcast.
  for (std::size_t i = 1; i < p; ++i) {
    oracle::StageMatrix m(p, p, 0);
    m(i, 0) = 1;
    split.append_stage(oracle::stage_from_matrix(m));
  }
  oracle::StageMatrix bcast(p, p, 0);
  for (std::size_t i = 1; i < p; ++i) {
    bcast(0, i) = 1;
  }
  split.append_stage(oracle::stage_from_matrix(bcast));
  ASSERT_TRUE(split.is_barrier());

  const OptimizeResult result = fuse_stages(split, profile);
  EXPECT_GT(result.stages_fused, 0u);
  EXPECT_LT(result.schedule.stage_count(), split.stage_count());
  EXPECT_TRUE(result.schedule.is_barrier());
  EXPECT_LE(result.cost_after, result.cost_before + 1e-18);
}

TEST(Fuse, NeverAcceptsCostlierSchedules) {
  const std::size_t p = 24;
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p));
  for (const Schedule& s :
       {tree_barrier(p), dissemination_barrier(p), linear_barrier(p)}) {
    const OptimizeResult result = fuse_stages(s, profile);
    EXPECT_LE(result.cost_after, result.cost_before + 1e-18);
    EXPECT_TRUE(result.schedule.is_barrier());
  }
}

TEST(Optimize, FixpointCombinesBothPasses) {
  const std::size_t p = 12;
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 12);
  const OptimizeResult result =
      optimize_schedule(dissemination_barrier(p), profile);
  EXPECT_TRUE(result.schedule.is_barrier());
  EXPECT_LE(result.cost_after, result.cost_before + 1e-18);
  // Running again is a no-op: it is a fixpoint.
  const OptimizeResult again = optimize_schedule(result.schedule, profile);
  EXPECT_EQ(again.signals_removed, 0u);
  EXPECT_EQ(again.stages_fused, 0u);
  EXPECT_EQ(again.schedule, result.schedule);
}

TEST(Optimize, TunedHybridGainsLittle) {
  // The hybrid is constructed near-minimal; the optimizer's gain on it
  // must be small (this bounds how much the greedy composition leaves
  // on the table at the schedule level).
  const MachineSpec m = quad_cluster();
  const std::size_t p = 32;
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p));
  const TuneResult tuned = tune_barrier(profile);
  const OptimizeResult result =
      optimize_schedule(tuned.schedule(), profile);
  EXPECT_TRUE(result.schedule.is_barrier());
  EXPECT_GE(result.cost_after, 0.5 * result.cost_before);
}

TEST(Optimize, OptimizedSchedulesSimulateNoWorse) {
  // The passes are priced by the predictor; confirm on the simulator.
  const std::size_t p = 16;
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, p);
  const Schedule original = dissemination_barrier(p);
  const OptimizeResult result = optimize_schedule(original, profile);
  EXPECT_LE(simulate(result.schedule, profile).barrier_time(),
            1.05 * simulate(original, profile).barrier_time());
}

TEST(Optimize, PropertyRandomBarriersSurviveOptimization) {
  Rng rng(42);
  for (int round = 0; round < 6; ++round) {
    const std::size_t p = 3 + rng.next_below(8);
    // Random gather tree + transposed broadcast, then pad with a full
    // dissemination to create redundancy.
    Schedule s = dissemination_barrier(p);
    const Schedule tree = tree_barrier(p);
    for (const Stage& stage : tree.stages()) {
      s.append_stage(stage);
    }
    const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
    const OptimizeResult result = optimize_schedule(s, profile);
    EXPECT_TRUE(result.schedule.is_barrier()) << "P=" << p;
    EXPECT_GT(result.signals_removed, 0u) << "P=" << p;
    EXPECT_LE(result.cost_after, result.cost_before + 1e-18);
  }
}

TEST(Optimize, RejectsNonBarriers) {
  const TopologyProfile profile = uniform_profile(2, 1e-5, 1e-6);
  Schedule s(2);
  oracle::StageMatrix m(2, 2, 0);
  m(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  EXPECT_THROW(prune_redundant_signals(s, profile), Error);
  EXPECT_THROW(fuse_stages(s, profile), Error);
}

}  // namespace
}  // namespace optibar
