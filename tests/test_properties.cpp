// Property-based tests: invariants checked over randomly constructed
// barriers, profiles and machines (seed-parameterized so failures
// reproduce exactly).
#include <gtest/gtest.h>

#include <sstream>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "barrier/dependency_graph.hpp"
#include "barrier/schedule_io.hpp"
#include "barrier/validate.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "simmpi/executor.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

/// Random layered prefix (0-3 stages of random signals) completed into a
/// barrier by appending dissemination stages.
Schedule random_barrier(std::size_t p, Rng& rng) {
  Schedule s(p);
  const std::size_t prefix_stages = rng.next_below(4);
  for (std::size_t st = 0; st < prefix_stages; ++st) {
    oracle::StageMatrix m(p, p, 0);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t fan_out = rng.next_below(3);
      for (std::size_t k = 0; k < fan_out; ++k) {
        const std::size_t j = rng.next_below(p);
        if (j != i) {
          m(i, j) = 1;
        }
      }
    }
    s.append_stage(oracle::stage_from_matrix(m));
  }
  // Keep the schedule alive across the loop: in C++20 a range-for over
  // `dissemination_arrival(p).stages()` would iterate a dangling member.
  const Schedule completion = dissemination_arrival(p);
  for (const Stage& stage : completion.stages()) {
    s.append_stage(stage);
  }
  return s;
}

/// Random gather tree arrival: each rank signals a random
/// lower-indexed parent, scheduled deepest level first.
Schedule random_tree_arrival(std::size_t p, Rng& rng) {
  std::vector<std::size_t> parent(p, 0);
  std::vector<std::size_t> depth(p, 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 1; i < p; ++i) {
    parent[i] = rng.next_below(i);
    depth[i] = depth[parent[i]] + 1;
    max_depth = std::max(max_depth, depth[i]);
  }
  Schedule s(p);
  for (std::size_t d = max_depth; d >= 1; --d) {
    oracle::StageMatrix m(p, p, 0);
    for (std::size_t i = 1; i < p; ++i) {
      if (depth[i] == d) {
        m(i, parent[i]) = 1;
      }
    }
    s.append_stage(oracle::stage_from_matrix(m));
  }
  return s;
}

/// Random profile over a random machine shape with random (ordered)
/// tier costs and mild heterogeneity.
TopologyProfile random_profile(Rng& rng, std::size_t& ranks_out) {
  const std::size_t nodes = 1 + rng.next_below(4);
  const std::size_t sockets = 1 + rng.next_below(3);
  // cores >= 2 keeps total_cores >= 2 so a 2-rank job always fits.
  const std::size_t cores = 2 + rng.next_below(3);
  // cores_per_cache must divide cores: pick a random divisor.
  std::vector<std::size_t> divisors;
  for (std::size_t d = 1; d <= cores; ++d) {
    if (cores % d == 0) {
      divisors.push_back(d);
    }
  }
  const std::size_t cache = divisors[rng.next_below(divisors.size())];

  LatencyTiers tiers;
  tiers.self_overhead = rng.uniform(5e-7, 3e-6);
  double o = rng.uniform(1e-6, 4e-6);
  double l = rng.uniform(5e-8, 3e-7);
  tiers.shared_cache = {o, l};
  o *= rng.uniform(1.0, 2.0);
  l *= rng.uniform(1.0, 2.0);
  tiers.same_chip = {o, l};
  o *= rng.uniform(1.1, 3.0);
  l *= rng.uniform(1.1, 4.0);
  tiers.cross_socket = {o, l};
  o *= rng.uniform(2.0, 20.0);
  l *= rng.uniform(2.0, 30.0);
  tiers.inter_node = {o, l};

  const MachineSpec machine("random", nodes, sockets, cores, cache, tiers);
  const std::size_t total = machine.total_cores();
  const std::size_t ranks = 2 + rng.next_below(total - 1);
  ranks_out = ranks;
  const Mapping mapping = rng.next_below(2) == 0
                              ? block_mapping(machine, ranks)
                              : round_robin_mapping(machine, ranks);
  GenerateOptions options;
  options.heterogeneity = rng.uniform(0.0, 0.3);
  options.asymmetry = rng.uniform(0.0, 0.1);
  options.seed = rng.next_u64();
  return generate_profile(machine, mapping, options);
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, RandomBarriersSatisfyEquation3) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::size_t p = 2 + rng.next_below(15);
    EXPECT_TRUE(random_barrier(p, rng).is_barrier()) << "P=" << p;
  }
}

TEST_P(PropertySweep, RandomTreeArrivalsFunnelToRoot) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::size_t p = 2 + rng.next_below(15);
    const Schedule arrival = random_tree_arrival(p, rng);
    const Knowledge k = arrival.final_knowledge();
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(k(i, 0), 1) << "P=" << p << " rank " << i;
    }
    // Gather + transposed broadcast is always a full barrier.
    EXPECT_TRUE(
        arrival.concatenated(arrival.transposed_reversed()).is_barrier());
  }
}

TEST_P(PropertySweep, PredictorAgreesWithDependencyGraph) {
  Rng rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    std::size_t ranks = 0;
    const TopologyProfile profile = random_profile(rng, ranks);
    Rng barrier_rng(rng.next_u64());
    const Schedule s = random_barrier(ranks, barrier_rng);
    const DependencyGraph graph(s, profile);
    EXPECT_NEAR(graph.critical_path_cost(), predicted_time(s, profile),
                1e-15 + 1e-9 * predicted_time(s, profile));
  }
}

TEST_P(PropertySweep, CompactionPreservesBarrierAndCost) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const std::size_t p = 2 + rng.next_below(10);
    Schedule s = random_barrier(p, rng);
    // Inject empty stages at random positions by rebuilding.
    Schedule padded(p);
    for (const Stage& stage : s.stages()) {
      if (rng.next_below(2) == 0) {
        padded.append_stage(Stage{});
      }
      padded.append_stage(stage);
    }
    std::size_t ranks = 0;
    Rng profile_rng(GetParam() ^ 0xABCDEF);
    (void)ranks;
    const Schedule compacted = padded.compacted();
    EXPECT_EQ(compacted, s.compacted());
    EXPECT_TRUE(compacted.is_barrier());
    const MachineSpec m = quad_cluster();
    if (p <= m.total_cores()) {
      const TopologyProfile profile = generate_profile(m, p);
      EXPECT_DOUBLE_EQ(predicted_time(padded, profile),
                       predicted_time(compacted, profile));
    }
  }
}

TEST_P(PropertySweep, NetsimDelayInjectionOnRandomBarriers) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    std::size_t ranks = 0;
    const TopologyProfile profile = random_profile(rng, ranks);
    Rng barrier_rng(rng.next_u64());
    const Schedule s = random_barrier(ranks, barrier_rng);
    SimOptions options;
    options.entry_times.assign(ranks, 0.0);
    const std::size_t late = rng.next_below(ranks);
    options.entry_times[late] = 1.0;
    const SimResult result = simulate(s, profile, options);
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      EXPECT_GE(result.completion[rank], 1.0)
          << "rank " << rank << " escaped before late rank " << late;
    }
  }
}

TEST_P(PropertySweep, NetsimIsDeterministicUnderNoise) {
  Rng rng(GetParam());
  std::size_t ranks = 0;
  const TopologyProfile profile = random_profile(rng, ranks);
  Rng barrier_rng(rng.next_u64());
  const Schedule s = random_barrier(ranks, barrier_rng);
  SimOptions options;
  options.jitter = 0.1;
  options.spike_probability = 0.05;
  options.seed = GetParam();
  EXPECT_EQ(simulate(s, profile, options).completion,
            simulate(s, profile, options).completion);
}

TEST_P(PropertySweep, TunerProducesValidCompetitiveBarriers) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    std::size_t ranks = 0;
    const TopologyProfile profile = random_profile(rng, ranks);
    const TuneResult tuned = tune_barrier(profile);
    EXPECT_TRUE(tuned.schedule().is_barrier()) << "ranks=" << ranks;
    // The hybrid may not dominate on arbitrary random machines, but it
    // must stay in the same league as the classic baselines.
    const TopologyProfile priced = tuned.profile();
    const double best_classic =
        std::min({predicted_time(linear_barrier(ranks), priced),
                  predicted_time(dissemination_barrier(ranks), priced),
                  predicted_time(tree_barrier(ranks), priced)});
    EXPECT_LE(tuned.predicted_cost(), 2.0 * best_classic) << "ranks=" << ranks;
  }
}

TEST_P(PropertySweep, ScheduleIoRoundTripsRandomBarriers) {
  Rng rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    const std::size_t p = 2 + rng.next_below(12);
    StoredSchedule stored;
    stored.schedule = random_barrier(p, rng);
    stored.awaited_stages.resize(stored.schedule.stage_count());
    for (std::size_t i = 0; i < stored.awaited_stages.size(); ++i) {
      // The loader now refuses awaited stages with a directed wait
      // cycle (they would deadlock an eager blocking-send replay), so
      // honor the composer invariant: awaited implies acyclic.
      stored.awaited_stages[i] =
          rng.next_below(2) == 1 &&
          !stage_has_cycle(stored.schedule.stage(i), p);
    }
    std::stringstream ss;
    save_schedule(ss, stored);
    const StoredSchedule loaded = load_schedule(ss);
    EXPECT_EQ(loaded.schedule, stored.schedule);
    EXPECT_EQ(loaded.awaited_stages, stored.awaited_stages);
  }
}

TEST_P(PropertySweep, ExecutorRunsRandomBarriers) {
  Rng rng(GetParam());
  const std::size_t p = 2 + rng.next_below(6);  // keep thread counts small
  const Schedule s = random_barrier(p, rng);
  const simmpi::ScheduleExecutor executor(s);
  simmpi::Communicator comm(p);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    executor.execute(ctx);
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace optibar
