// Layout parity suite: the production CompiledSchedule, which stores rows
// only where edges exist, against the dense per-(stage, rank) layout it
// replaced (tests/compiled_oracle.*), bit for bit. Every accessor of
// every (stage, rank) pair — spans, both batch costs, receiver
// processing — and every predict_into() output must match under every
// PredictOptions knob, on random dense schedules with transport tags,
// collective edge lists with payload costs, hierarchically tuned
// blocked plans up to 10240 ranks, and set_one_sided() patch sequences.
// Netsim runs on the new layout are held to the layout-free reference
// engine, with faults and the overlap model on.
#include "barrier/compiled_schedule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "barrier/blocked_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "collective/generators.hpp"
#include "collective/predict.hpp"
#include "compiled_oracle.hpp"
#include "core/hierarchical.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "profile/generate_tiled.hpp"
#include "rma/transport.hpp"
#include "simmpi/fault.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

template <typename T>
std::vector<std::size_t> ranks(std::span<const T> values) {
  return {values.begin(), values.end()};
}

template <typename T>
std::vector<T> to_vector(std::span<const T> values) {
  return {values.begin(), values.end()};
}

/// Every accessor of every (stage, rank) pair, exactly; and the rows of
/// each stage are the ranks with edges, ascending, idle ranks on row 0.
void expect_same_layout(const CompiledSchedule& got,
                        const oracle::CompiledSchedule& want,
                        const std::string& where) {
  ASSERT_EQ(got.ranks(), want.ranks()) << where;
  ASSERT_EQ(got.stage_count(), want.stage_count()) << where;
  for (std::size_t s = 0; s < want.stage_count(); ++s) {
    std::size_t next_row = got.row_begin(s);
    for (std::size_t i = 0; i < want.ranks(); ++i) {
      const std::size_t r = got.row(i, s);
      const bool active =
          !want.targets(i, s).empty() || !want.sources(i, s).empty();
      if (active) {
        ASSERT_EQ(r, next_row++) << where << " stage " << s << " rank " << i;
        ASSERT_EQ(got.row_rank(r), i) << where;
      } else {
        ASSERT_EQ(r, 0u) << where << " stage " << s << " rank " << i;
      }
      ASSERT_EQ(ranks(got.targets(r)), ranks(want.targets(i, s))) << where;
      ASSERT_EQ(ranks(got.sources(r)), ranks(want.sources(i, s))) << where;
      EXPECT_EQ(bits(got.target_latency(r)), bits(want.target_latency(i, s)))
          << where;
      EXPECT_EQ(bits(got.target_overhead(r)),
                bits(want.target_overhead(i, s)))
          << where;
      EXPECT_EQ(bits(got.target_rma_latency(r)),
                bits(want.target_rma_latency(i, s)))
          << where;
      EXPECT_EQ(to_vector(got.target_one_sided(r)),
                to_vector(want.target_one_sided(i, s)))
          << where;
      EXPECT_EQ(to_vector(got.source_one_sided(r)),
                to_vector(want.source_one_sided(i, s)))
          << where;
      EXPECT_EQ(bits(got.batch_cost(r, false)),
                bits(want.batch_cost(i, s, false)))
          << where << " stage " << s << " rank " << i;
      EXPECT_EQ(bits(got.batch_cost(r, true)),
                bits(want.batch_cost(i, s, true)))
          << where << " stage " << s << " rank " << i;
      EXPECT_EQ(bits(got.recv_processing(r)), bits(want.recv_processing(i, s)))
          << where << " stage " << s << " rank " << i;
    }
    EXPECT_EQ(next_row, got.row_end(s)) << where << " stage " << s;
  }
}

/// Entry times mixing +0.0, -0.0, negatives and positives: the reference
/// turns an idle rank's -0.0 into +0.0 in its first stage, and the
/// bitwise comparison sees the difference.
std::vector<double> signed_zero_entries(std::size_t p, Rng& rng) {
  std::vector<double> entry(p);
  for (double& e : entry) {
    switch (rng.next_below(4)) {
      case 0:
        e = -0.0;
        break;
      case 1:
        e = 0.0;
        break;
      case 2:
        e = -rng.uniform(0.0, 1e-5);
        break;
      default:
        e = rng.uniform(0.0, 1e-4);
    }
  }
  return entry;
}

/// Every combination of egress, receiver processing and entry times,
/// over `awaited` (random when empty).
std::vector<PredictOptions> option_variants(std::size_t p, std::size_t stages,
                                            std::vector<bool> awaited,
                                            Rng& rng) {
  if (awaited.empty()) {
    for (std::size_t s = 0; s < stages + 1; ++s) {
      awaited.push_back(rng.next_below(2) != 0);
    }
  }
  std::vector<PredictOptions> out;
  for (const bool egress : {false, true}) {
    for (const bool processing : {true, false}) {
      for (const bool skew : {false, true}) {
        PredictOptions options;
        options.awaited_stages = awaited;
        options.receiver_processing = processing;
        if (skew) {
          options.entry_times = signed_zero_entries(p, rng);
        }
        if (egress) {
          // Sparse resource ids, several ranks per resource.
          const std::size_t resources = 1 + rng.next_below(5);
          for (std::size_t i = 0; i < p; ++i) {
            options.egress_resource_of.push_back(3 * rng.next_below(resources));
          }
        }
        out.push_back(std::move(options));
      }
    }
  }
  return out;
}

/// predict_into() on both layouts, through warm workspaces that are
/// shared across calls, compared bit for bit.
struct PredictPair {
  PredictWorkspace workspace;
  oracle::PredictWorkspace oracle_workspace;
  Prediction got;
  Prediction want;

  void expect_same(const CompiledSchedule& compiled,
                   const oracle::CompiledSchedule& reference,
                   const PredictOptions& options, const std::string& where) {
    predict_into(compiled, options, workspace, got);
    oracle::predict_into(reference, options, oracle_workspace, want);
    EXPECT_EQ(bits(got.critical_path), bits(want.critical_path)) << where;
    EXPECT_EQ(bits(got.stage_increment), bits(want.stage_increment)) << where;
    EXPECT_EQ(bits(got.rank_completion), bits(want.rank_completion)) << where;
    EXPECT_EQ(bits(predicted_time(compiled, options, workspace)),
              bits(want.critical_path))
        << where;
  }
};

/// Zero, negative zero, negative and positive costs: the loaders accept
/// all of them, so the kernel must sum them in the reference order.
double random_cost(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return -rng.uniform(1e-7, 1e-5);
    default:
      return rng.uniform(1e-7, 1e-4);
  }
}

TopologyProfile random_profile(std::size_t p, Rng& rng) {
  Matrix<double> o(p, p, 0.0);
  Matrix<double> l(p, p, 0.0);
  Matrix<double> r(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      o(i, j) = random_cost(rng);
      l(i, j) = random_cost(rng);
      r(i, j) = random_cost(rng);
    }
  }
  TopologyProfile profile(std::move(o), std::move(l));
  profile.set_rma_latency(std::move(r));
  return profile;
}

/// Random stages (some empty) with random fan-out and, when `tagged`,
/// a random subset of the edges tagged one-sided.
Schedule random_schedule(std::size_t p, bool tagged, Rng& rng) {
  Schedule schedule(p);
  const std::size_t stages = rng.next_below(7);
  for (std::size_t s = 0; s < stages; ++s) {
    oracle::StageMatrix m(p, p, 0);
    oracle::StageMatrix t(p, p, 0);
    const std::size_t max_fan_out = rng.next_below(3) == 0 ? 0 : 1 + p / 2;
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t fan_out = rng.next_below(max_fan_out + 1);
      for (std::size_t k = 0; k < fan_out; ++k) {
        const std::size_t j = rng.next_below(p);
        if (j != i) {
          m(i, j) = 1;
          t(i, j) = rng.next_below(2) != 0 ? 1 : 0;
        }
      }
    }
    schedule.append_stage(oracle::stage_from_matrix(m));
    if (tagged) {
      oracle::StageMatrix tags(p, p, 0);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          tags(i, j) = m(i, j) != 0 && t(i, j) != 0 ? 1 : 0;
        }
      }
      oracle::set_transport(schedule, s, std::move(tags));
    }
  }
  return schedule;
}

TEST(CompiledLayout, RandomTaggedSchedulesMatchTheDenseLayout) {
  CompiledSchedule compiled;  // shared: rebinding must leave nothing stale
  oracle::CompiledSchedule reference;
  PredictPair predict;
  std::size_t empty_stages = 0;
  std::size_t puts = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed);
    const std::size_t p = seed < 10 ? 1 + seed % 2 : 1 + rng.next_below(24);
    const Schedule schedule = random_schedule(p, seed % 3 != 0, rng);
    const TopologyProfile profile = random_profile(p, rng);
    const std::string where = "seed " + std::to_string(seed);
    compiled.compile(schedule, profile);
    reference.compile(schedule, profile);
    expect_same_layout(compiled, reference, where);
    expect_same_layout(CompiledSchedule(schedule, profile), reference, where);
    for (const PredictOptions& options :
         option_variants(p, schedule.stage_count(), {}, rng)) {
      predict.expect_same(compiled, reference, options, where);
    }
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      empty_stages += schedule.stage(s).empty() ? 1 : 0;
    }
    puts += schedule.one_sided_signal_count();
  }
  EXPECT_GT(empty_stages, 0u);
  EXPECT_GT(puts, 0u);
}

TEST(CompiledLayout, SetOneSidedPatchesMatchTheDenseLayout) {
  // Patch both layouts in lockstep; after every patch they must agree,
  // and the patched layout must equal a fresh compile of the tagging.
  CompiledSchedule fresh;
  PredictPair predict;
  std::size_t patches = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed + 500);
    const std::size_t p = 2 + rng.next_below(14);
    const Schedule untagged = random_schedule(p, false, rng);
    if (untagged.stage_count() == 0) {
      continue;
    }
    const TopologyProfile profile = random_profile(p, rng);
    CompiledSchedule patched(untagged, profile);
    oracle::CompiledSchedule reference(untagged, profile);
    Schedule tagged = untagged;
    std::vector<oracle::StageMatrix> tags(untagged.stage_count(),
                                          oracle::StageMatrix(p, p, 0));
    const std::vector<PredictOptions> variants =
        option_variants(p, untagged.stage_count(), {}, rng);
    for (std::size_t step = 0; step < 24; ++step) {
      const std::size_t s = rng.next_below(untagged.stage_count());
      const std::size_t i = rng.next_below(p);
      const std::size_t degree = reference.targets(i, s).size();
      if (degree == 0) {
        continue;
      }
      const std::size_t k = rng.next_below(degree);
      const bool put = rng.next_below(3) != 0;
      patched.set_one_sided(s, i, k, put, profile);
      reference.set_one_sided(s, i, k, put, profile);
      tags[s](i, reference.targets(i, s)[k]) = put ? 1 : 0;
      oracle::set_transport(tagged, s, tags[s]);
      fresh.compile(tagged, profile);
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      expect_same_layout(patched, reference, where);
      expect_same_layout(fresh, reference, where + " fresh");
      predict.expect_same(patched, reference, variants[step % 8], where);
      ++patches;
    }
  }
  EXPECT_GT(patches, 500u);
}

/// The edge list compile_collective() builds: L plus the payload's
/// bandwidth term, O, two-sided.
std::vector<std::vector<CompiledEdge>> collective_edges(
    const CollectiveSchedule& schedule, const TopologyProfile& profile) {
  std::vector<std::vector<CompiledEdge>> stage_edges(schedule.stage_count());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (const CollectiveEdge& e : schedule.stage(s)) {
      const double bytes = static_cast<double>(schedule.edge_bytes(e));
      stage_edges[s].push_back(CompiledEdge{
          e.src, e.dst,
          profile.l(e.src, e.dst) + bytes * profile.g(e.src, e.dst),
          profile.o(e.src, e.dst)});
    }
  }
  return stage_edges;
}

TEST(CompiledLayout, CollectiveEdgeListsMatchTheDenseLayout) {
  const MachineSpec hex = hex_cluster();
  PredictPair predict;
  Rng rng(120);
  for (const std::size_t p : {12UL, 24UL, 120UL}) {
    const TopologyProfile profile =
        generate_profile(hex, round_robin_mapping(hex, p)).symmetrized();
    std::vector<double> self_overhead(p);
    for (std::size_t i = 0; i < p; ++i) {
      self_overhead[i] = profile.o(i, i);
    }
    const std::size_t elems = 128;  // 1 KiB of doubles
    const std::vector<CollectiveSchedule> candidates = {
        binomial_broadcast(p, 0, elems, 8),
        binomial_reduce(p, p - 1, elems, 8),
        linear_broadcast(p, 1, elems, 8),
        linear_reduce(p, 0, elems, 8),
        recursive_doubling_allreduce(p, elems, 8),
        ring_allreduce(p, elems, 8),
        reduce_broadcast_allreduce(p, elems, 8)};
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const std::string where =
          "P " + std::to_string(p) + " candidate " + std::to_string(c);
      CompiledSchedule compiled;
      compile_collective(candidates[c], profile, compiled);
      oracle::CompiledSchedule reference;
      reference.compile_edges(p, collective_edges(candidates[c], profile),
                              self_overhead);
      expect_same_layout(compiled, reference, where);
      for (const PredictOptions& options :
           option_variants(p, compiled.stage_count(), {}, rng)) {
        predict.expect_same(compiled, reference, options, where);
      }
    }
  }
}

TEST(CompiledLayout, BlockedTenkPlansMatchTheDenseLayout) {
  PredictPair predict;
  Rng rng(10240);
  for (const std::size_t ranks : {640UL, 2560UL, 10240UL}) {
    const TiledProfile tiled =
        generate_tiled_profile(tenk_cluster(ranks / 40), ranks);
    const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
    ASSERT_FALSE(tuned.used_dense_fallback) << tuned.fallback_reason;
    const std::string where = std::to_string(ranks) + " ranks";
    oracle::CompiledSchedule reference;
    oracle::compile_blocked(tuned.blocked, tiled, reference);
    expect_same_layout(tuned.compiled, reference, where + " (tuner's)");
    CompiledSchedule compiled;
    compile_blocked(tuned.blocked, tiled, compiled);
    expect_same_layout(compiled, reference, where);
    for (const PredictOptions& options :
         option_variants(ranks, compiled.stage_count(),
                         tuned.blocked.awaited_stages(), rng)) {
      predict.expect_same(compiled, reference, options, where);
    }
    // The plan's own options: the tuner priced exactly this.
    PredictOptions plain;
    plain.awaited_stages = tuned.blocked.awaited_stages();
    oracle::PredictWorkspace workspace;
    EXPECT_EQ(bits(tuned.predicted_cost),
              bits(oracle::predicted_time(reference, plain, workspace)));
  }
}

TEST(CompiledLayout, InterleavedClustersStillCompileInEdgeOrder) {
  // Round-robin placement spreads each logical cluster over the rank
  // space, so the blocked plan's edges do not come in (src, dst) order
  // and compile_blocked must sort them.
  const MachineSpec quad = quad_cluster(8);
  const TopologyProfile profile =
      generate_profile(quad, round_robin_mapping(quad, 64));
  const HierarchicalTuneResult tuned = tune_hierarchical(profile);
  ASSERT_FALSE(tuned.used_dense_fallback) << tuned.fallback_reason;
  bool unsorted = false;
  for (std::size_t s = 0; s < tuned.blocked.stage_count(); ++s) {
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    tuned.blocked.for_each_edge(
        s, [&](std::size_t i, std::size_t j) { edges.emplace_back(i, j); });
    unsorted = unsorted || !std::is_sorted(edges.begin(), edges.end());
  }
  EXPECT_TRUE(unsorted);
  oracle::CompiledSchedule reference;
  oracle::compile_blocked(tuned.blocked, tuned.tiled, reference);
  expect_same_layout(tuned.compiled, reference, "interleaved");
  PredictPair predict;
  Rng rng(64);
  for (const PredictOptions& options :
       option_variants(64, reference.stage_count(),
                       tuned.blocked.awaited_stages(), rng)) {
    predict.expect_same(tuned.compiled, reference, options, "interleaved");
  }
}

void expect_same_run(const SimResult& got, const SimResult& want,
                     const std::string& where) {
  EXPECT_EQ(bits(got.completion), bits(want.completion)) << where;
  EXPECT_EQ(bits(got.entry), bits(want.entry)) << where;
  EXPECT_EQ(got.deadlocked, want.deadlocked) << where;
  EXPECT_EQ(got.stuck_ranks, want.stuck_ranks) << where;
  ASSERT_EQ(got.trace.size(), want.trace.size()) << where;
  for (std::size_t k = 0; k < got.trace.size(); ++k) {
    EXPECT_EQ(got.trace[k].stage, want.trace[k].stage) << where;
    EXPECT_EQ(got.trace[k].src, want.trace[k].src) << where;
    EXPECT_EQ(got.trace[k].dst, want.trace[k].dst) << where;
    EXPECT_EQ(bits(got.trace[k].injected), bits(want.trace[k].injected))
        << where;
    EXPECT_EQ(bits(got.trace[k].matched), bits(want.trace[k].matched))
        << where;
  }
}

/// Netsim options with faults, crashes and the overlap model.
std::vector<SimOptions> sim_variants(std::size_t p, std::uint64_t seed) {
  std::vector<SimOptions> out;
  SimOptions plain;
  plain.seed = seed;
  plain.jitter = 0.1;
  plain.record_trace = true;
  out.push_back(plain);
  SimOptions faults = plain;
  faults.faults = FaultPlan::parse("seed=" + std::to_string(seed % 97) +
                                   ";dup=*>*@*:0.2;delay=*>*@*:0.3:0.0001");
  out.push_back(faults);
  SimOptions drops = plain;
  drops.faults = FaultPlan::parse("seed=" + std::to_string(seed % 89) +
                                  ";drop=*>*@*:0.05;putdrop=*>*@*:0.05");
  out.push_back(drops);
  SimOptions overlap = plain;
  overlap.compute_after_post.assign(p, 2e-4);
  overlap.progress_poll_interval = 3e-5;
  Rng rng(seed);
  for (std::size_t i = 0; i < p; ++i) {
    overlap.entry_times.push_back(rng.uniform(0.0, 5e-5));
  }
  overlap.egress_resource_of.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    overlap.egress_resource_of[i] = i / 4;
  }
  out.push_back(overlap);
  if (p > 2) {
    SimOptions crashed = plain;
    crashed.crashed_ranks = {1 + seed % (p - 1)};
    crashed.synchronous_sends = seed % 2 == 0;
    out.push_back(crashed);
  }
  return out;
}

TEST(CompiledLayout, NetsimOnTheNewLayoutMatchesTheReferenceEngine) {
  SimWorkspace workspace;  // shared across shapes
  SimResult got;
  const auto check = [&](const Schedule& schedule,
                         const TopologyProfile& profile,
                         const std::string& where, std::uint64_t seed) {
    const CompiledSchedule compiled(schedule, profile);
    for (const SimOptions& options : sim_variants(schedule.ranks(), seed)) {
      simulate_compiled_into(compiled, profile, options, workspace, got);
      expect_same_run(got, simulate_reference(schedule, profile, options),
                      where);
    }
  };
  // Random tagged schedules on positive costs (netsim times must not
  // run backwards).
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 900);
    const std::size_t p = 2 + rng.next_below(20);
    const MachineSpec hex = hex_cluster();
    const TopologyProfile profile =
        generate_profile(hex, round_robin_mapping(hex, p));
    check(random_schedule(p, true, rng), profile,
          "seed " + std::to_string(seed), seed);
  }
  // The paper-scale hybrid plan.
  const MachineSpec hex = hex_cluster();
  const TopologyProfile hex120 =
      generate_profile(hex, round_robin_mapping(hex, 120));
  const rma::TransportTune hybrid =
      rma::tune_transport(hex120, {}, rma::Transport::kHybrid);
  check(hybrid.schedule, hybrid.tuned.profile(), "hex-120 hybrid", 7);
  // A blocked plan on tiled costs against its densified self.
  const TiledProfile tiled = generate_tiled_profile(tenk_cluster(16), 640);
  const HierarchicalTuneResult tuned = tune_hierarchical(tiled);
  const Schedule dense = tuned.blocked.to_dense();
  const TopologyProfile dense_profile = tiled.to_dense();
  for (const SimOptions& options : sim_variants(640, 11)) {
    simulate_compiled_into(tuned.compiled, tiled, options, workspace, got);
    expect_same_run(got, simulate_reference(dense, dense_profile, options),
                    "640-rank blocked");
  }
}

}  // namespace
}  // namespace optibar
