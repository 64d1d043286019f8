// Tests cross-validating the explicit layered dependency graph against
// the compact DP predictor, and checking critical-path extraction.
#include "barrier/dependency_graph.hpp"

#include <gtest/gtest.h>

#include "barrier/algorithms.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace optibar {
namespace {

class GraphVsPredictor : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GraphVsPredictor, CriticalPathMatchesDpOnAllAlgorithms) {
  const std::size_t p = GetParam();
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(
      m, round_robin_mapping(m, p), GenerateOptions{0.1, 3});
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p),
        pairwise_exchange_barrier(p)}) {
    const DependencyGraph graph(s, profile);
    EXPECT_NEAR(graph.critical_path_cost(), predicted_time(s, profile),
                1e-15)
        << "P=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, GraphVsPredictor,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 24, 32));

TEST(DependencyGraph, PathStartsAtEntryAndEndsAtExit) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 16);
  const Schedule s = tree_barrier(16);
  const DependencyGraph graph(s, profile);
  const auto& path = graph.critical_path();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().stage, 0u);
  EXPECT_EQ(path.back().stage, s.stage_count());
}

TEST(DependencyGraph, PathStagesAreConsecutive) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 8);
  const DependencyGraph graph(tree_barrier(8), profile);
  const auto& path = graph.critical_path();
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(path[i].stage, path[i - 1].stage + 1);
  }
}

TEST(DependencyGraph, PathEdgesAreRealDependencies) {
  // Every consecutive path pair is either the same rank (local
  // sequencing) or a (sender -> receiver) signal of that stage.
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 16);
  const Schedule s = dissemination_barrier(16);
  const DependencyGraph graph(s, profile);
  const auto& path = graph.critical_path();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const DepNode& from = path[i - 1];
    const DepNode& to = path[i];
    if (from.rank != to.rank) {
      EXPECT_TRUE(s.has_signal(from.stage, from.rank, to.rank))
          << "edge " << from.rank << "->" << to.rank << " at stage "
          << from.stage << " is not a signal";
    }
  }
}

TEST(DependencyGraph, CompletionTimesAreMonotoneAcrossStages) {
  const MachineSpec m = hex_cluster();
  const TopologyProfile profile = generate_profile(m, 24);
  const DependencyGraph graph(tree_barrier(24), profile);
  const auto& times = graph.completion_times();
  for (std::size_t s = 1; s < times.size(); ++s) {
    for (std::size_t r = 0; r < times[s].size(); ++r) {
      EXPECT_GE(times[s][r], times[s - 1][r]);
    }
  }
}

TEST(DependencyGraph, CriticalPathOfLinearGoesThroughRoot) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 32);
  const DependencyGraph graph(linear_barrier(32), profile);
  bool touches_root = false;
  for (const DepNode& node : graph.critical_path()) {
    if (node.rank == 0) {
      touches_root = true;
    }
  }
  EXPECT_TRUE(touches_root);
}

TEST(DependencyGraph, DescribeMentionsEveryPathNode) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 4);
  const DependencyGraph graph(linear_barrier(4), profile);
  const std::string text = graph.describe_critical_path();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("stage"), std::string::npos);
}

TEST(DependencyGraph, HonorsEntrySkewLikePredictor) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = tree_barrier(8);
  PredictOptions opts;
  opts.entry_times.assign(8, 0.0);
  opts.entry_times[5] = 3.0e-4;
  const DependencyGraph graph(s, profile, opts);
  EXPECT_NEAR(graph.critical_path_cost(), predicted_time(s, profile, opts),
              1e-12);
}

}  // namespace
}  // namespace optibar
