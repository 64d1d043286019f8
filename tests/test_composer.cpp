// Tests for the hierarchical barrier composition (Section VII-B):
// validity across machines/mappings/sizes, merge-early stage alignment,
// the dissemination-at-root departure exception, and competitiveness
// against the classic algorithms.
#include "core/composer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "core/cluster_tree.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

ComposedBarrier compose_for(const MachineSpec& machine, std::size_t ranks,
                            bool round_robin = false,
                            const ComposeOptions& options = {}) {
  const Mapping mapping = round_robin ? round_robin_mapping(machine, ranks)
                                      : block_mapping(machine, ranks);
  const TopologyProfile profile =
      generate_profile(machine, mapping, GenerateOptions{});
  const ClusterNode tree = build_cluster_tree(profile);
  return compose_barrier(profile, tree, options);
}

TEST(Composer, TrivialSingleRank) {
  const MachineSpec m = quad_cluster(1);
  const ComposedBarrier b = compose_for(m, 1);
  EXPECT_EQ(b.schedule.stage_count(), 0u);
  EXPECT_TRUE(b.schedule.is_barrier());
}

class ComposerValidity
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(ComposerValidity, HybridIsAlwaysABarrierOnQuadCluster) {
  const auto [p, rr] = GetParam();
  const ComposedBarrier b = compose_for(quad_cluster(), p, rr);
  EXPECT_TRUE(b.schedule.is_barrier()) << "P=" << p << " rr=" << rr;
  EXPECT_EQ(b.schedule.ranks(), p);
  EXPECT_EQ(b.awaited_stages.size(), b.schedule.stage_count());
}

TEST_P(ComposerValidity, HybridIsAlwaysABarrierOnHexCluster) {
  const auto [p, rr] = GetParam();
  if (p > hex_cluster().total_cores()) {
    GTEST_SKIP();
  }
  const ComposedBarrier b = compose_for(hex_cluster(), p, rr);
  EXPECT_TRUE(b.schedule.is_barrier()) << "P=" << p << " rr=" << rr;
}

INSTANTIATE_TEST_SUITE_P(
    RankSweep, ComposerValidity,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8, 9, 12, 16, 22, 24, 31,
                                         32, 40, 48, 57, 64),
                       ::testing::Bool()));

TEST(Composer, RecordsOneChoicePerTreeLevelDecision) {
  // 22 procs round-robin on 3 nodes (Figure 10): 3 leaf decisions + 1
  // root decision.
  const MachineSpec m = quad_cluster();
  const ComposedBarrier b = compose_for(m, 22, /*round_robin=*/true);
  ASSERT_EQ(b.choices.size(), 4u);
  EXPECT_EQ(b.choices.front().depth, 0u);
  EXPECT_EQ(b.choices.front().participants.size(), 3u);  // 3 node reps
  for (std::size_t i = 1; i < b.choices.size(); ++i) {
    EXPECT_EQ(b.choices[i].depth, 1u);
  }
}

TEST(Composer, RootSelfCompletingOmitsRootDeparture) {
  // Force dissemination as the only candidate: the root block needs no
  // departure, so stage count is (child arrival) + (root dissemination)
  // + (child departure) — strictly fewer than 2x the full arrival.
  ComposeOptions only_diss;
  only_diss.algorithms = {paper_algorithms()[1]};
  const MachineSpec m = quad_cluster();
  const ComposedBarrier b =
      compose_for(m, 32, /*round_robin=*/false, only_diss);
  EXPECT_TRUE(b.root_self_completing);
  EXPECT_EQ(b.root_algorithm, "dissemination");
  EXPECT_TRUE(b.schedule.is_barrier());
  EXPECT_LT(b.schedule.stage_count(), 2 * b.arrival_stages);
}

TEST(Composer, NonSelfCompletingRootMirrorsArrival) {
  ComposeOptions only_tree;
  only_tree.algorithms = {paper_algorithms()[2]};
  const MachineSpec m = quad_cluster();
  const ComposedBarrier b =
      compose_for(m, 32, /*round_robin=*/false, only_tree);
  EXPECT_FALSE(b.root_self_completing);
  // Arrival and departure mirror each other stage for stage.
  EXPECT_EQ(b.schedule.stage_count(), 2 * b.arrival_stages);
  for (std::size_t s = 0; s < b.arrival_stages; ++s) {
    EXPECT_EQ(oracle::stage_matrix(b.schedule, s),
              oracle::stage_matrix(b.schedule, b.schedule.stage_count() - 1 - s)
                  .transposed());
  }
}

TEST(Composer, AwaitedFlagsMarkExactlyDepartureStages) {
  const MachineSpec m = quad_cluster();
  const ComposedBarrier b = compose_for(m, 24);
  for (std::size_t s = 0; s < b.awaited_stages.size(); ++s) {
    EXPECT_EQ(b.awaited_stages[s], s >= b.arrival_stages) << "stage " << s;
  }
}

TEST(Composer, MergeEarlyPutsShortLocalPhasesInStageZero) {
  // Whatever algorithms the leaves choose, every leaf's first arrival
  // signals appear in stage 0 ("merging shorter sequences with longer
  // ones as early as possible").
  const MachineSpec m = quad_cluster();
  const ComposedBarrier b = compose_for(m, 24, /*round_robin=*/true);
  const oracle::StageMatrix s0 = oracle::stage_matrix(b.schedule, 0);
  // Each node cluster contributes at least one stage-0 signal.
  std::set<std::size_t> nodes_signalling;
  const Mapping mapping = round_robin_mapping(m, 24);
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      if (s0(i, j)) {
        nodes_signalling.insert(m.location(mapping.core_of(i)).node);
      }
    }
  }
  EXPECT_EQ(nodes_signalling.size(), 3u);
}

TEST(Composer, NoEmptyStagesSurviveCompaction) {
  const MachineSpec m = hex_cluster();
  const ComposedBarrier b = compose_for(m, 60);
  for (std::size_t s = 0; s < b.schedule.stage_count(); ++s) {
    EXPECT_FALSE(b.schedule.stage(s).empty()) << "stage " << s;
  }
}

TEST(Composer, GreedyChoosesCheapestScoredAlgorithm) {
  // On a two-rank profile all hierarchical algorithms coincide; on a
  // profile where linear's single fan-in is cheapest, linear must win
  // the leaf decision.
  const MachineSpec m = quad_cluster(1);
  const TopologyProfile profile = generate_profile(m, 8);
  const ClusterNode tree = build_cluster_tree(profile);
  const ComposedBarrier b = compose_barrier(profile, tree);
  ASSERT_FALSE(b.choices.empty());
  double best = b.choices[0].scored_cost;
  // Verify against a manual evaluation of all three candidates.
  for (const ComponentAlgorithm& algo : paper_algorithms()) {
    const Schedule arrival = algo.arrival(8);
    const double cost = predicted_time(arrival, profile);
    const double score = algo.self_completing ? cost : 2 * cost;
    EXPECT_GE(score + 1e-18, best);
  }
}

TEST(Composer, HybridNeverLosesToClassicAlgorithmsByPrediction) {
  // The greedy construction considers the classic algorithms as special
  // cases at every level, so its predicted cost must not exceed the
  // best classic algorithm by more than the hierarchy overhead; in
  // practice it should win at multi-node scale. Check P where locality
  // matters.
  const MachineSpec m = quad_cluster();
  for (std::size_t p : {16u, 32u, 64u}) {
    const Mapping mapping = round_robin_mapping(m, p);
    const TopologyProfile profile =
        generate_profile(m, mapping, GenerateOptions{});
    const ClusterNode tree = build_cluster_tree(profile);
    const ComposedBarrier hybrid = compose_barrier(profile, tree);
    PredictOptions opts;
    opts.awaited_stages = hybrid.awaited_stages;
    const double hybrid_cost =
        predicted_time(hybrid.schedule, profile, opts);
    const double tree_cost = predicted_time(tree_barrier(p), profile);
    EXPECT_LT(hybrid_cost, tree_cost) << "P=" << p;
  }
}

TEST(Composer, AdaptsToSkewedTopology) {
  // On the pathological machine (cross-socket slower than network) the
  // composition must still produce a valid and competitive barrier,
  // without any machine-specific logic.
  const MachineSpec m = skewed_cluster();
  const std::size_t p = 32;
  const TopologyProfile profile =
      generate_profile(m, block_mapping(m, p), GenerateOptions{});
  const ClusterNode tree = build_cluster_tree(profile);
  const ComposedBarrier hybrid = compose_barrier(profile, tree);
  EXPECT_TRUE(hybrid.schedule.is_barrier());
  PredictOptions opts;
  opts.awaited_stages = hybrid.awaited_stages;
  EXPECT_LE(predicted_time(hybrid.schedule, profile, opts),
            predicted_time(tree_barrier(p), profile));
}

TEST(Composer, ExtendedAlgorithmSetIsAccepted) {
  ComposeOptions extended;
  extended.algorithms = extended_algorithms();
  const ComposedBarrier b =
      compose_for(quad_cluster(), 40, /*round_robin=*/true, extended);
  EXPECT_TRUE(b.schedule.is_barrier());
}

TEST(Composer, DescribeListsChoices) {
  const ComposedBarrier b = compose_for(quad_cluster(), 22, true);
  const std::string text = b.describe();
  EXPECT_NE(text.find("hybrid barrier"), std::string::npos);
  EXPECT_NE(text.find("depth 0"), std::string::npos);
  EXPECT_NE(text.find("depth 1"), std::string::npos);
}

TEST(Composer, RootAlgorithmSetCanBeRestricted) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 32);
  const ClusterNode tree = build_cluster_tree(profile);
  ComposeOptions options;
  options.root_algorithms = {paper_algorithms()[2]};  // force tree root
  const ComposedBarrier b = compose_barrier(profile, tree, options);
  EXPECT_EQ(b.root_algorithm, "tree");
  EXPECT_TRUE(b.schedule.is_barrier());
  // Leaves were still free to choose from the full set.
  for (const LevelChoice& choice : b.choices) {
    if (choice.depth > 0) {
      EXPECT_NE(choice.algorithm, "");
    }
  }
}

TEST(Composer, SearchedCompositionNeverLosesToGreedy) {
  const MachineSpec m = quad_cluster();
  for (std::size_t p : {16u, 22u, 32u, 40u, 64u}) {
    const Mapping mapping = round_robin_mapping(m, p);
    const TopologyProfile profile =
        generate_profile(m, mapping, GenerateOptions{});
    const ClusterNode tree = build_cluster_tree(profile);
    const ComposedBarrier greedy = compose_barrier(profile, tree);
    const ComposedBarrier searched = compose_barrier_searched(profile, tree);
    EXPECT_TRUE(searched.schedule.is_barrier()) << "P=" << p;
    PredictOptions greedy_opts;
    greedy_opts.awaited_stages = greedy.awaited_stages;
    PredictOptions searched_opts;
    searched_opts.awaited_stages = searched.awaited_stages;
    EXPECT_LE(predicted_time(searched.schedule, profile, searched_opts),
              predicted_time(greedy.schedule, profile, greedy_opts) + 1e-18)
        << "P=" << p;
  }
}

TEST(Composer, SearchedCompositionOnSkewedMachine) {
  // Where greedy's x2 approximation is most wrong, the search can only
  // help; validity must hold throughout.
  const MachineSpec m = skewed_cluster();
  const TopologyProfile profile = generate_profile(m, 32);
  const ClusterNode tree = build_cluster_tree(profile);
  ComposeOptions options;
  options.algorithms = extended_algorithms();
  const ComposedBarrier searched =
      compose_barrier_searched(profile, tree, options);
  EXPECT_TRUE(searched.schedule.is_barrier());
}

TEST(Composer, ThreeLevelHierarchyComposesRecursively) {
  // A metric with nested gaps (pairs of 1us, quads of 10us, everything
  // else 100us) yields a 3-level cluster tree; the composition must
  // recurse through all levels and stay valid, with one choice per tree
  // decision (4 pairs + 2 quads + 1 root = 7).
  const std::size_t p = 8;
  Matrix<double> o(p, p, 0.0);
  Matrix<double> l(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i == j) {
        o(i, j) = 1e-7;
      } else if (i / 2 == j / 2) {
        o(i, j) = 1e-6;
        l(i, j) = 1e-7;
      } else if (i / 4 == j / 4) {
        o(i, j) = 1e-5;
        l(i, j) = 1e-6;
      } else {
        o(i, j) = 1e-4;
        l(i, j) = 1e-5;
      }
    }
  }
  const TopologyProfile profile(std::move(o), std::move(l));
  const ClusterNode tree = build_cluster_tree(profile);
  ASSERT_EQ(tree.height(), 2u);
  const ComposedBarrier hybrid = compose_barrier(profile, tree);
  EXPECT_TRUE(hybrid.schedule.is_barrier());
  EXPECT_EQ(hybrid.choices.size(), 7u);
  // Depths 0, 1, 2 all appear among the decisions.
  std::set<std::size_t> depths;
  for (const LevelChoice& choice : hybrid.choices) {
    depths.insert(choice.depth);
  }
  EXPECT_EQ(depths, (std::set<std::size_t>{0, 1, 2}));
  // And the hierarchy pays: cheaper than any flat classic algorithm.
  PredictOptions opts;
  opts.awaited_stages = hybrid.awaited_stages;
  const double hybrid_cost = predicted_time(hybrid.schedule, profile, opts);
  EXPECT_LT(hybrid_cost, predicted_time(tree_barrier(p), profile));
  EXPECT_LT(hybrid_cost, predicted_time(dissemination_barrier(p), profile));
}

TEST(Composer, RejectsMismatchedTree) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 8);
  ClusterNode wrong;
  wrong.ranks = {0, 1, 2};
  EXPECT_THROW(compose_barrier(profile, wrong), Error);
}

TEST(Composer, RejectsEmptyAlgorithmSet) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 16);
  const ClusterNode tree = build_cluster_tree(profile);
  ComposeOptions empty;
  empty.algorithms = {};
  EXPECT_THROW(compose_barrier(profile, tree, empty), Error);
}

}  // namespace
}  // namespace optibar
