// Parity of the edge-list Schedule with the dense representation it
// replaced (tests/dense_schedule_oracle.*, kept verbatim): generators,
// transforms under random transport tags, hierarchical composition,
// Eq. 3 knowledge on random schedules and edge-drop mutants, the v1/v2
// writer, BlockedSchedule flattening and both executors' edge tables
// must agree with the oracle bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/blocked_schedule.hpp"
#include "barrier/schedule.hpp"
#include "barrier/schedule_io.hpp"
#include "collective/executor.hpp"
#include "collective/schedule.hpp"
#include "core/cluster_tree.hpp"
#include "core/composer.hpp"
#include "core/hierarchical.hpp"
#include "dense_schedule_oracle.hpp"
#include "profile/generate_tiled.hpp"
#include "simmpi/executor.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

using oracle::DenseSchedule;
using oracle::StageMatrix;

/// P = 1..70, then the sizes around the power-of-two edges the
/// generators branch on.
std::vector<std::size_t> rank_counts() {
  std::vector<std::size_t> counts(70);
  std::iota(counts.begin(), counts.end(), std::size_t{1});
  counts.insert(counts.end(), {120, 255, 256, 257, 512});
  return counts;
}

/// Same stages, cells and transport tags, checked in both directions.
void expect_same(const Schedule& edges, const DenseSchedule& dense,
                 const std::string& where) {
  EXPECT_EQ(edges, oracle::to_edges(dense)) << where;
  EXPECT_TRUE(oracle::to_dense(edges) == dense) << where;
}

Schedule random_schedule(std::size_t p, std::size_t stages, double density,
                         bool tagged, Rng& rng) {
  Schedule out(p);
  for (std::size_t s = 0; s < stages; ++s) {
    Stage stage;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (i != j && rng.next_double() < density) {
          stage.push_back(Signal{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(j),
                                 tagged && rng.next_below(2) == 0});
        }
      }
    }
    out.append_stage(std::move(stage));
  }
  return out;
}

/// Every K_a of the edge kernel against the dense recurrence; counts
/// the cells that differ.
std::size_t knowledge_mismatches(const Schedule& edges,
                                 const DenseSchedule& dense) {
  std::size_t bad = 0;
  for (std::size_t a = 0; a < edges.stage_count(); ++a) {
    const Knowledge k = edges.knowledge_after(a);
    const StageMatrix d = dense.knowledge_after(a);
    for (std::size_t i = 0; i < edges.ranks(); ++i) {
      for (std::size_t j = 0; j < edges.ranks(); ++j) {
        bad += k(i, j) != (d(i, j) != 0) ? 1 : 0;
      }
    }
  }
  bad += edges.is_barrier() != dense.is_barrier() ? 1 : 0;
  return bad;
}

/// The complete barriers of every generator at `p`, edge and dense.
std::vector<std::pair<Schedule, DenseSchedule>> barriers_at(std::size_t p) {
  std::vector<std::pair<Schedule, DenseSchedule>> out = {
      {linear_barrier(p), oracle::linear_barrier(p)},
      {dissemination_barrier(p), oracle::dissemination_barrier(p)},
      {tree_barrier(p), oracle::tree_barrier(p)},
      {kary_tree_barrier(p, 3), oracle::kary_tree_barrier(p, 3)},
      {heap_tree_barrier(p), oracle::heap_tree_barrier(p)},
      {pairwise_exchange_barrier(p), oracle::pairwise_exchange_barrier(p)},
      {radix_dissemination_barrier(p, 4),
       oracle::radix_dissemination_barrier(p, 4)},
      {radix_dissemination_barrier(p, 3),
       oracle::radix_dissemination_barrier(p, 3)},
  };
  if (p <= 120) {  // P - 1 stages each way: dense cost grows as P^3
    out.emplace_back(ring_barrier(p), oracle::ring_barrier(p));
  }
  return out;
}

TEST(ScheduleParity, ArrivalsMatchTheDenseGenerators) {
  const auto dense = oracle::extended_arrivals();
  const std::vector<ComponentAlgorithm> algorithms = extended_algorithms();
  ASSERT_EQ(algorithms.size(), dense.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    ASSERT_EQ(algorithms[a].name, dense[a].first);
    for (const std::size_t p : rank_counts()) {
      const Schedule arrival = algorithms[a].arrival(p);
      const DenseSchedule oracle_arrival = dense[a].second(p);
      const std::string where = algorithms[a].name + " P=" + std::to_string(p);
      expect_same(arrival, oracle_arrival, where);
      // The composer's departure construction on every arrival.
      expect_same(arrival.concatenated(arrival.transposed_reversed()),
                  oracle_arrival.concatenated(
                      oracle_arrival.transposed_reversed()),
                  where + " complete");
    }
  }
}

TEST(ScheduleParity, CompleteBarriersMatchTheDenseGenerators) {
  for (const std::size_t p : rank_counts()) {
    std::size_t kind = 0;
    for (const auto& [edges, dense] : barriers_at(p)) {
      const std::string where =
          "barrier " + std::to_string(kind++) + " P=" + std::to_string(p);
      expect_same(edges, dense, where);
      EXPECT_TRUE(edges.is_barrier()) << where;
    }
  }
}

TEST(ScheduleParity, TransformsAgreeUnderRandomTags) {
  Rng rng(31);
  for (int round = 0; round < 400; ++round) {
    const std::size_t p = 1 + rng.next_below(24);
    const double density = 0.02 + 0.3 * rng.next_double();
    const bool tagged = round % 4 != 0;
    const Schedule a =
        random_schedule(p, rng.next_below(6), density, tagged, rng);
    const Schedule b =
        random_schedule(p, rng.next_below(4), density, tagged, rng);
    const DenseSchedule da = oracle::to_dense(a);
    const DenseSchedule db = oracle::to_dense(b);
    const std::string where = "round " + std::to_string(round);
    expect_same(a.transposed_reversed(), da.transposed_reversed(), where);
    expect_same(a.concatenated(b), da.concatenated(db), where);
    expect_same(a.compacted(), da.compacted(), where);
    EXPECT_EQ(a.total_signals(), da.total_signals()) << where;
    EXPECT_EQ(a.nonempty_stage_count(), da.nonempty_stage_count()) << where;
    EXPECT_EQ(a.one_sided_signal_count(), da.one_sided_signal_count())
        << where;
    EXPECT_EQ(a.has_one_sided(), da.has_one_sided()) << where;
    for (std::size_t s = 0; s < a.stage_count(); ++s) {
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(a.targets_of(r, s), da.targets_of(r, s)) << where;
        EXPECT_EQ(a.sources_of(r, s), da.sources_of(r, s)) << where;
      }
    }
    std::ostringstream edge_text;
    std::ostringstream dense_text;
    edge_text << a;
    dense_text << da;
    EXPECT_EQ(edge_text.str(), dense_text.str()) << where;

    // Embedding into a larger tagged schedule at a random offset under a
    // random injective rank map.
    const std::size_t g = p + rng.next_below(9);
    const Schedule global =
        random_schedule(g, rng.next_below(5), density, tagged, rng);
    std::vector<std::size_t> map(g);
    std::iota(map.begin(), map.end(), std::size_t{0});
    for (std::size_t k = g; k > 1; --k) {
      std::swap(map[k - 1], map[rng.next_below(k)]);
    }
    map.resize(p);
    const std::size_t offset = rng.next_below(4);
    Schedule embedded = global;
    embed_schedule(embedded, a, map, offset);
    DenseSchedule dense_embedded = oracle::to_dense(global);
    oracle::embed_schedule(dense_embedded, da, map, offset);
    expect_same(embedded, dense_embedded, where + " embed");
  }
}

TEST(ScheduleParity, KnowledgeMatchesOnRandomSchedules) {
  Rng rng(47);
  std::size_t barriers = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t p = 1 + rng.next_below(90);
    // Expected out-degree 0.3..3 per rank and stage: both verdicts.
    const double density =
        (0.3 + 2.7 * rng.next_double()) / static_cast<double>(p);
    const Schedule s =
        random_schedule(p, rng.next_below(10), density, round % 2 == 0, rng);
    EXPECT_EQ(knowledge_mismatches(s, oracle::to_dense(s)), 0u)
        << "round " << round << " P=" << p;
    barriers += s.is_barrier() ? 1 : 0;
  }
  EXPECT_GT(barriers, 20u);  // the sample reaches both verdicts
  EXPECT_LT(barriers, 280u);
}

TEST(ScheduleParity, KnowledgeMatchesOnEveryEdgeDropMutant) {
  // Every single-signal-drop mutant of every generator's barrier at
  // P <= 64. Most mutants are not barriers; which arrival goes missing
  // where is compared cell by cell.
  std::size_t mutants = 0;
  std::size_t broken = 0;
  for (const std::size_t p : {2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 31, 32, 33,
                              48, 63, 64}) {
    for (const auto& [edges, dense] : barriers_at(p)) {
      for (std::size_t s = 0; s < edges.stage_count(); ++s) {
        for (std::size_t k = 0; k < edges.stage(s).size(); ++k) {
          std::vector<Stage> stages = edges.stages();
          const Signal dropped = stages[s][k];
          stages[s].erase(stages[s].begin() + static_cast<std::ptrdiff_t>(k));
          const Schedule mutant(p, std::move(stages));
          std::vector<StageMatrix> cells = dense.stages();
          cells[s](dropped.src, dropped.dst) = 0;
          const DenseSchedule dense_mutant(p, std::move(cells));
          const Knowledge k_edges = mutant.final_knowledge();
          const StageMatrix k_dense = dense_mutant.final_knowledge();
          std::size_t bad =
              mutant.is_barrier() != dense_mutant.is_barrier() ? 1 : 0;
          for (std::size_t i = 0; i < p; ++i) {
            for (std::size_t j = 0; j < p; ++j) {
              bad += k_edges(i, j) != (k_dense(i, j) != 0) ? 1 : 0;
            }
          }
          EXPECT_EQ(bad, 0u) << "P=" << p << " stage " << s << " drop "
                             << dropped.src << "->" << dropped.dst;
          ++mutants;
          broken += mutant.is_barrier() ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(mutants, 10000u);
  EXPECT_GT(broken, mutants / 2);
}

TEST(ScheduleParity, KnowledgeMatchesOnSampledMutantsAt512) {
  // Eight 64-bit words per knowledge row. The dense recurrence costs
  // O(P^2) per known arrival per stage, so the sample draws from the
  // generators with at most nine stages.
  const std::size_t p = 512;
  std::vector<std::pair<Schedule, DenseSchedule>> barriers;
  for (auto& barrier : barriers_at(p)) {
    if (barrier.first.stage_count() <= 9) {
      barriers.push_back(std::move(barrier));
    }
  }
  Rng rng(512);
  for (int m = 0; m < 200; ++m) {
    const auto& [edges, dense] = barriers[rng.next_below(barriers.size())];
    const std::size_t s = rng.next_below(edges.stage_count());
    if (edges.stage(s).empty()) {
      continue;
    }
    const std::size_t k = rng.next_below(edges.stage(s).size());
    std::vector<Stage> stages = edges.stages();
    const Signal dropped = stages[s][k];
    stages[s].erase(stages[s].begin() + static_cast<std::ptrdiff_t>(k));
    const Schedule mutant(p, std::move(stages));
    std::vector<StageMatrix> cells = dense.stages();
    cells[s](dropped.src, dropped.dst) = 0;
    const DenseSchedule dense_mutant(p, std::move(cells));
    EXPECT_EQ(mutant.is_barrier(), dense_mutant.is_barrier()) << "mutant " << m;
    const Knowledge k_edges = mutant.final_knowledge();
    const StageMatrix k_dense = dense_mutant.final_knowledge();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        bad += k_edges(i, j) != (k_dense(i, j) != 0) ? 1 : 0;
      }
    }
    EXPECT_EQ(bad, 0u) << "mutant " << m;
  }
}

TEST(ScheduleParity, SavedBytesMatchTheDenseWriter) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::size_t p = 1 + rng.next_below(14);
    StoredSchedule stored;
    stored.schedule = random_schedule(p, rng.next_below(5),
                                      0.05 + 0.3 * rng.next_double(),
                                      seed % 3 != 0, rng);
    const DenseSchedule dense = oracle::to_dense(stored.schedule);
    if (seed % 2 == 0) {
      // Awaited flags only on acyclic stages: the loader refuses cycles.
      for (std::size_t s = 0; s < dense.stage_count(); ++s) {
        stored.awaited_stages.push_back(
            rng.next_below(2) == 0 && !oracle::stage_has_cycle(dense.stage(s)));
      }
    }
    std::ostringstream edge_bytes;
    std::ostringstream dense_bytes;
    save_schedule(edge_bytes, stored);
    oracle::save_schedule(dense_bytes, dense, stored.awaited_stages);
    ASSERT_EQ(edge_bytes.str(), dense_bytes.str()) << "seed " << seed;
    std::istringstream in(edge_bytes.str());
    const StoredSchedule loaded = load_schedule(in);
    EXPECT_EQ(loaded.schedule, stored.schedule) << "seed " << seed;
    std::ostringstream again;
    save_schedule(again, loaded);
    EXPECT_EQ(again.str(), edge_bytes.str()) << "seed " << seed;
  }
}

// ---- Composition: the product's greedy choices replayed densely ----

struct DenseBuild {
  DenseSchedule arrival{1};
  std::size_t level_start = 0;
};

/// compose_arrival's recursion over `node` with the dense transforms,
/// taking each level's algorithm from the product's post-order choices.
DenseBuild replay(const ClusterNode& node, std::size_t p,
                  const std::vector<LevelChoice>& post_order,
                  std::size_t& cursor) {
  DenseBuild out{DenseSchedule(p), 0};
  if (node.ranks.size() == 1) {
    return out;
  }
  std::vector<std::size_t> participants;
  std::vector<std::size_t> identity(p);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  if (node.is_leaf()) {
    participants = node.ranks;
  } else {
    for (const ClusterNode& child : node.children) {
      const DenseBuild sub = replay(child, p, post_order, cursor);
      participants.push_back(child.representative());
      out.level_start = std::max(out.level_start, sub.arrival.stage_count());
      oracle::embed_schedule(out.arrival, sub.arrival, identity, 0);
    }
  }
  EXPECT_LT(cursor, post_order.size());
  if (cursor >= post_order.size()) {
    return out;
  }
  const LevelChoice& choice = post_order[cursor++];
  EXPECT_EQ(choice.participants, participants);
  for (const auto& [name, generate] : oracle::extended_arrivals()) {
    if (name == choice.algorithm) {
      oracle::embed_schedule(out.arrival, generate(participants.size()),
                             participants, out.level_start);
      return out;
    }
  }
  ADD_FAILURE() << "unknown algorithm " << choice.algorithm;
  return out;
}

/// The dense composer's tail: departure as reversed transposes (without
/// the root block when it is self-completing), compaction, and awaited
/// flags on acyclic departure stages.
std::pair<DenseSchedule, std::vector<bool>> dense_barrier(
    const DenseSchedule& arrival, std::size_t root_start,
    bool root_self_completing) {
  const std::size_t p = arrival.ranks();
  DenseSchedule base(p);
  for (std::size_t s = 0;
       s < (root_self_completing ? root_start : arrival.stage_count()); ++s) {
    base.append_stage(arrival.stage(s));
  }
  const DenseSchedule full = arrival.concatenated(base.transposed_reversed());
  DenseSchedule compacted(p);
  std::vector<bool> awaited;
  for (std::size_t s = 0; s < full.stage_count(); ++s) {
    if (full.stage(s).all_zero()) {
      continue;
    }
    compacted.append_stage(full.stage(s));
    awaited.push_back(s >= arrival.stage_count() &&
                      !oracle::stage_has_cycle(full.stage(s)));
  }
  return {compacted, awaited};
}

void expect_compose_parity(const TopologyProfile& profile,
                           const ComposeOptions& options,
                           const std::string& where) {
  const std::size_t p = profile.ranks();
  const ClusterNode tree = build_cluster_tree(profile);
  const ComposedBarrier composed = compose_barrier(profile, tree, options);
  const std::vector<LevelChoice> post_order(composed.choices.rbegin(),
                                            composed.choices.rend());
  std::size_t cursor = 0;
  const DenseBuild build = replay(tree, p, post_order, cursor);
  EXPECT_EQ(cursor, post_order.size()) << where;
  const auto [dense, awaited] = dense_barrier(
      build.arrival, build.level_start, composed.root_self_completing);
  expect_same(composed.schedule, dense, where + " compose_barrier");
  EXPECT_EQ(composed.awaited_stages, awaited) << where;

  const ArrivalComposition arrival =
      compose_arrival(profile, tree, options, /*treat_root_as_global=*/true);
  expect_same(arrival.arrival, build.arrival, where + " compose_arrival");
  EXPECT_EQ(arrival.root_level_start, build.level_start) << where;
}

TEST(ScheduleParity, ComposerMatchesADenseReplayOnThePresets) {
  ComposeOptions extended;
  extended.algorithms = extended_algorithms();
  for (const bool round_robin : {false, true}) {
    for (const auto& [machine, ranks] :
         std::vector<std::pair<MachineSpec, std::size_t>>{
             {quad_cluster(), 24}, {quad_cluster(), 13}, {hex_cluster(), 120},
             {hex_cluster(), 61}}) {
      const Mapping mapping = round_robin ? round_robin_mapping(machine, ranks)
                                          : block_mapping(machine, ranks);
      const TopologyProfile profile = generate_profile(machine, mapping);
      const std::string where = machine.name() + " P=" + std::to_string(ranks) +
                                (round_robin ? " rr" : " block");
      expect_compose_parity(profile, {}, where);
      expect_compose_parity(profile, extended, where + " extended");
    }
  }
}

TEST(ScheduleParity, ComposerMatchesADenseReplayOnATenkSlice) {
  const MachineSpec machine = tenk_cluster(16);
  const TopologyProfile profile = generate_profile(machine, 640);
  expect_compose_parity(profile, {}, "tenk-640");
}

/// The hierarchical tuner's class and leader arrivals against
/// compose_arrival replayed densely, with the leader profile built the
/// general way (TiledProfile::restrict_to, all four planes).
void expect_hierarchical_parity(const TiledProfile& tiled,
                                const std::string& where) {
  const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
  ASSERT_FALSE(tuned.used_dense_fallback) << where;
  const BlockedSchedule& blocked = tuned.blocked;
  const EngineOptions options;
  for (std::size_t k = 0; k < tiled.class_count(); ++k) {
    const TopologyProfile tile = tiled.class_tile(k).symmetrized();
    const ClusterNode tree = build_cluster_tree(tile, options.clustering);
    const ArrivalComposition arrival = compose_arrival(
        tile, tree, options.composition, /*treat_root_as_global=*/false);
    std::size_t cursor = 0;
    const DenseBuild build = replay(tree, tile.ranks(), arrival.choices, cursor);
    expect_same(arrival.arrival, build.arrival, where + " class");
    EXPECT_EQ(blocked.class_arrivals()[k], arrival.arrival) << where;
  }
  const TopologyProfile leaders =
      tiled.restrict_to(blocked.leader_ranks()).symmetrized();
  const ClusterNode tree = build_cluster_tree(leaders, options.clustering);
  const ArrivalComposition arrival = compose_arrival(
      leaders, tree, options.composition, /*treat_root_as_global=*/true);
  std::size_t cursor = 0;
  const DenseBuild build = replay(tree, leaders.ranks(), arrival.choices, cursor);
  expect_same(arrival.arrival, build.arrival, where + " leaders");
  EXPECT_EQ(blocked.leader_arrival(), arrival.arrival) << where;
  EXPECT_EQ(blocked.leader_self_completing(), arrival.root_self_completing);
}

TEST(ScheduleParity, HierarchicalArrivalsMatchOnTenkSlices) {
  for (const std::size_t ranks : {640, 2560}) {
    expect_hierarchical_parity(
        generate_tiled_profile(tenk_cluster(ranks / 40), ranks),
        "tenk-" + std::to_string(ranks));
  }
}

// ---- BlockedSchedule against the dense composition of its parts ----

void expect_blocked_parity(const BlockedSchedule& blocked,
                           const std::string& where) {
  const std::size_t p = blocked.ranks();
  DenseSchedule arrival(p);
  for (std::size_t c = 0; c < blocked.cluster_count(); ++c) {
    oracle::embed_schedule(
        arrival,
        oracle::to_dense(blocked.class_arrivals()[blocked.class_of()[c]]),
        blocked.clusters()[c], 0);
  }
  oracle::embed_schedule(arrival, oracle::to_dense(blocked.leader_arrival()),
                         blocked.leader_ranks(), blocked.leader_start());
  const auto [dense, awaited] = dense_barrier(arrival, blocked.leader_start(),
                                              blocked.leader_self_completing());
  expect_same(blocked.to_dense(), dense, where);
  EXPECT_EQ(blocked.awaited_stages(), awaited) << where;
  EXPECT_EQ(blocked.stage_count(), dense.stage_count()) << where;
  EXPECT_EQ(blocked.total_signals(), dense.total_signals()) << where;
}

TEST(ScheduleParity, BlockedScheduleMatchesTheDenseComposition) {
  for (const std::size_t ranks : {80, 160, 320, 480}) {
    const TiledProfile tiled =
        generate_tiled_profile(tenk_cluster(ranks / 40), ranks);
    expect_blocked_parity(tune_hierarchical(tiled).blocked,
                          "tenk-" + std::to_string(ranks));
  }
  for (const auto& [machine, ranks] :
       std::vector<std::pair<MachineSpec, std::size_t>>{
           {quad_cluster(), 32}, {hex_cluster(), 120}, {hex_cluster(42), 504}}) {
    const HierarchicalTuneResult tuned =
        tune_hierarchical(generate_profile(machine, ranks));
    if (tuned.used_dense_fallback) {
      continue;
    }
    expect_blocked_parity(tuned.blocked,
                          machine.name() + " P=" + std::to_string(ranks));
  }
}

// ---- Both executors' edge tables ----

void expect_tables(const Schedule& schedule, const std::string& where) {
  const std::size_t p = schedule.ranks();
  const DenseSchedule dense = oracle::to_dense(schedule);
  const simmpi::ScheduleExecutor barrier(schedule);
  const CollectiveExecutor collective(from_barrier(schedule));
  const simmpi::StagedExecutor::Table& signals = barrier.table();
  const simmpi::StagedExecutor::Table& payloads = collective.table();
  ASSERT_EQ(signals.size(), p) << where;
  ASSERT_EQ(payloads.size(), p) << where;
  // Window slots: each receiver numbers its one-sided in-edges in
  // (stage, source) order.
  std::vector<std::size_t> next_slot(p, 0);
  std::vector<std::vector<std::size_t>> slot_of(p, std::vector<std::size_t>(p));
  for (std::size_t s = 0; s < dense.stage_count(); ++s) {
    for (std::size_t r = 0; r < p; ++r) {
      for (const std::size_t src : dense.sources_of(r, s)) {
        if (dense.one_sided(s, src, r)) {
          slot_of[r][src] = next_slot[r]++;
        }
      }
    }
    for (std::size_t r = 0; r < p; ++r) {
      const std::vector<std::size_t> targets = dense.targets_of(r, s);
      const std::vector<std::size_t> sources = dense.sources_of(r, s);
      const simmpi::StageEdges& edges = signals[r][s];
      const simmpi::StageEdges& lifted = payloads[r][s];
      ASSERT_EQ(edges.out.size(), targets.size()) << where;
      ASSERT_EQ(edges.in.size(), sources.size()) << where;
      ASSERT_EQ(lifted.out.size(), targets.size()) << where;
      ASSERT_EQ(lifted.in.size(), sources.size()) << where;
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const bool put = dense.one_sided(s, r, targets[k]);
        EXPECT_EQ(edges.out[k].peer, targets[k]) << where;
        EXPECT_EQ(edges.out[k].put, put) << where;
        EXPECT_EQ(edges.out[k].count, 0u) << where;
        if (put) {
          EXPECT_EQ(edges.out[k].slot, slot_of[targets[k]][r]) << where;
        }
        EXPECT_EQ(lifted.out[k].peer, targets[k]) << where;
        EXPECT_FALSE(lifted.out[k].put) << where;
        EXPECT_EQ(lifted.out[k].count, 0u) << where;
      }
      for (std::size_t k = 0; k < sources.size(); ++k) {
        const bool put = dense.one_sided(s, sources[k], r);
        EXPECT_EQ(edges.in[k].peer, sources[k]) << where;
        EXPECT_EQ(edges.in[k].put, put) << where;
        if (put) {
          EXPECT_EQ(edges.in[k].slot, slot_of[r][sources[k]]) << where;
        }
        EXPECT_EQ(lifted.in[k].peer, sources[k]) << where;
        EXPECT_FALSE(lifted.in[k].combine) << where;
      }
    }
  }
}

TEST(ScheduleParity, ExecutorEdgeTablesMatchTheDenseRows) {
  Rng rng(5);
  for (const std::size_t p : {2, 3, 5, 16, 33, 64}) {
    std::size_t kind = 0;
    for (auto& [edges, dense] : barriers_at(p)) {
      // Tag a random subset one-sided: the put edges' slots are part of
      // the table.
      Schedule tagged = edges;
      for (std::size_t s = 0; s < tagged.stage_count(); ++s) {
        for (std::size_t k = 0; k < tagged.stage(s).size(); ++k) {
          tagged.set_one_sided(s, k, rng.next_below(3) == 0);
        }
      }
      const std::string where =
          "barrier " + std::to_string(kind++) + " P=" + std::to_string(p);
      expect_tables(edges, where);
      expect_tables(tagged, where + " tagged");
    }
  }
}

}  // namespace
}  // namespace optibar
