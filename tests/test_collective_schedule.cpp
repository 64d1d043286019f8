// Collective schedule core: edge validation, generator dataflow
// validity across ops, roots and rank counts, the serial interpreter's
// bit-exactness against the elementwise oracle, and the saturating
// verifier pinned to a counting reference on generated, tuned and
// mutated schedules.
#include "collective/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "barrier/algorithms.hpp"
#include "collective/executor.hpp"
#include "collective/generators.hpp"
#include "collective/tuner.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

std::vector<Payload> random_inputs(std::size_t ranks, std::size_t elems,
                                   Rng& rng) {
  std::vector<Payload> inputs(ranks, Payload(elems));
  for (Payload& buf : inputs) {
    for (std::uint64_t& w : buf) {
      w = rng.next_u64();
    }
  }
  return inputs;
}

/// Compare only the ranks the op constrains: all of them for broadcast
/// and allreduce, just the root for reduce.
void expect_matches_oracle(const CollectiveSchedule& schedule, ReduceOp op,
                           const std::vector<Payload>& inputs) {
  const std::vector<Payload> got = execute_serial(schedule, op, inputs);
  const std::vector<Payload> want = oracle_result(schedule, op, inputs);
  if (schedule.op() == CollectiveOp::kReduce) {
    EXPECT_EQ(got[schedule.root()], want[schedule.root()]);
    return;
  }
  for (std::size_t r = 0; r < schedule.ranks(); ++r) {
    EXPECT_EQ(got[r], want[r]) << "rank " << r;
  }
}

/// Reference verifier: per-(rank, segment) uint32 contribution counts
/// and a full snapshot per stage, the direct reading of the stage
/// semantics. The saturating verifier is pinned to it. Its counts wrap
/// at 2^32, which no schedule in the differential sweep approaches.
std::vector<std::size_t> segment_bounds(const CollectiveSchedule& schedule) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  bounds.push_back(schedule.elem_count());
  for (const CollectiveStage& stage : schedule.stages()) {
    for (const CollectiveEdge& e : stage) {
      if (e.count == 0) {
        continue;
      }
      bounds.push_back(e.offset);
      bounds.push_back(e.offset + e.count);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

std::size_t segment_of(const std::vector<std::size_t>& bounds,
                       std::size_t offset) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), offset);
  OPTIBAR_ASSERT(it != bounds.end() && *it == offset,
                 "offset " << offset << " is not a segment boundary");
  return static_cast<std::size_t>(it - bounds.begin());
}

std::vector<std::vector<const CollectiveEdge*>> edges_by_receiver(
    const CollectiveStage& stage, std::size_t ranks) {
  std::vector<std::vector<const CollectiveEdge*>> incoming(ranks);
  for (const CollectiveEdge& e : stage) {
    incoming[e.dst].push_back(&e);
  }
  return incoming;
}

bool reference_is_valid_collective(const CollectiveSchedule& schedule) {
  const std::size_t p = schedule.ranks();
  if (schedule.elem_count() == 0) {
    // Zero payload: the data dataflow is vacuous, so validity is the
    // signal pattern's knowledge propagation (the Eq. 3 view) instead —
    // broadcast: the root's signal reaches every rank; reduce: the root
    // transitively hears from every rank; allreduce: a full barrier,
    // everyone comes to know of everyone's arrival.
    std::vector<std::vector<char>> knows(p, std::vector<char>(p, 0));
    for (std::size_t r = 0; r < p; ++r) {
      knows[r][r] = 1;
    }
    for (const CollectiveStage& stage : schedule.stages()) {
      const std::vector<std::vector<char>> snapshot = knows;
      for (const CollectiveEdge& e : stage) {
        for (std::size_t r = 0; r < p; ++r) {
          knows[e.dst][r] |= snapshot[e.src][r];
        }
      }
    }
    const auto knows_all = [&](std::size_t rank) {
      for (std::size_t r = 0; r < p; ++r) {
        if (!knows[rank][r]) {
          return false;
        }
      }
      return true;
    };
    switch (schedule.op()) {
      case CollectiveOp::kBroadcast:
        for (std::size_t r = 0; r < p; ++r) {
          if (!knows[r][schedule.root()]) {
            return false;
          }
        }
        return true;
      case CollectiveOp::kReduce:
        return knows_all(schedule.root());
      case CollectiveOp::kAllreduce:
        for (std::size_t r = 0; r < p; ++r) {
          if (!knows_all(r)) {
            return false;
          }
        }
        return true;
    }
    OPTIBAR_FAIL("unknown CollectiveOp");
  }
  const std::vector<std::size_t> bounds = segment_bounds(schedule);
  const std::size_t segs = bounds.size() - 1;
  // state[rank * segs + seg] is the contribution-count vector of that
  // buffer segment: entry r counts how often rank r's input is folded
  // into it. Initially every buffer holds exactly its own input.
  std::vector<std::vector<std::uint32_t>> state(p * segs);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      state[r * segs + seg].assign(p, 0);
      state[r * segs + seg][r] = 1;
    }
  }

  for (const CollectiveStage& stage : schedule.stages()) {
    const std::vector<std::vector<std::uint32_t>> snapshot = state;
    for (const auto& incoming : edges_by_receiver(stage, p)) {
      for (const CollectiveEdge* e : incoming) {
        if (e->count == 0) {
          continue;
        }
        const std::size_t first = segment_of(bounds, e->offset);
        const std::size_t last = segment_of(bounds, e->offset + e->count);
        for (std::size_t seg = first; seg < last; ++seg) {
          const std::vector<std::uint32_t>& in =
              snapshot[e->src * segs + seg];
          std::vector<std::uint32_t>& out = state[e->dst * segs + seg];
          if (e->combine) {
            for (std::size_t r = 0; r < p; ++r) {
              out[r] += in[r];
            }
          } else {
            out = in;
          }
        }
      }
    }
  }

  const auto holds_reduction = [&](std::size_t rank) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      for (std::size_t r = 0; r < p; ++r) {
        if (state[rank * segs + seg][r] != 1) {
          return false;
        }
      }
    }
    return true;
  };
  const auto holds_root_copy = [&](std::size_t rank) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      for (std::size_t r = 0; r < p; ++r) {
        const std::uint32_t want = r == schedule.root() ? 1 : 0;
        if (state[rank * segs + seg][r] != want) {
          return false;
        }
      }
    }
    return true;
  };

  switch (schedule.op()) {
    case CollectiveOp::kBroadcast:
      for (std::size_t r = 0; r < p; ++r) {
        if (!holds_root_copy(r)) {
          return false;
        }
      }
      return true;
    case CollectiveOp::kReduce:
      return holds_reduction(schedule.root());
    case CollectiveOp::kAllreduce:
      for (std::size_t r = 0; r < p; ++r) {
        if (!holds_reduction(r)) {
          return false;
        }
      }
      return true;
  }
  OPTIBAR_FAIL("unknown CollectiveOp");
}

TEST(ReduceWord, OperatorsAreExact) {
  EXPECT_EQ(reduce_word(ReduceOp::kSum, ~0ull, 2ull), 1ull);  // wraps
  EXPECT_EQ(reduce_word(ReduceOp::kMin, 3ull, 7ull), 3ull);
  EXPECT_EQ(reduce_word(ReduceOp::kMax, 3ull, 7ull), 7ull);
  EXPECT_EQ(reduce_word(ReduceOp::kXor, 0b1100ull, 0b1010ull), 0b0110ull);
}

TEST(CollectiveSchedule, RejectsBadEdges) {
  CollectiveSchedule s(CollectiveOp::kAllreduce, 4, 8, 8);
  EXPECT_THROW(s.append_stage({CollectiveEdge{0, 4, 0, 1, true}}), Error);
  EXPECT_THROW(s.append_stage({CollectiveEdge{2, 2, 0, 1, true}}), Error);
  EXPECT_THROW(s.append_stage({CollectiveEdge{0, 1, 6, 3, true}}), Error);
  EXPECT_THROW(s.append_stage({CollectiveEdge{0, 1, 0, 1, true},
                               CollectiveEdge{0, 1, 4, 1, true}}),
               Error);
  // A correct stage still appends after the failures above.
  s.append_stage({CollectiveEdge{0, 1, 0, 8, true}});
  EXPECT_EQ(s.stage_count(), 1u);
}

TEST(CollectiveSchedule, NormalizesAllreduceRoot) {
  const CollectiveSchedule s(CollectiveOp::kAllreduce, 6, 4, 8, 5);
  EXPECT_EQ(s.root(), 0u);
  const CollectiveSchedule b(CollectiveOp::kBroadcast, 6, 4, 8, 5);
  EXPECT_EQ(b.root(), 5u);
}

TEST(CollectiveSchedule, SignalScheduleErasesPayload) {
  const CollectiveSchedule c = ring_allreduce(5, 10, 8);
  const Schedule s = c.signal_schedule();
  EXPECT_EQ(s.ranks(), 5u);
  EXPECT_EQ(s.stage_count(), c.stage_count());
  for (std::size_t st = 0; st < c.stage_count(); ++st) {
    std::size_t edges = 0;
    for (std::size_t i = 0; i < 5; ++i) {
      edges += s.targets_of(i, st).size();
    }
    EXPECT_EQ(edges, c.stage(st).size());
  }
}

TEST(CollectiveSchedule, FromBarrierLiftsToZeroPayload) {
  const Schedule barrier = dissemination_barrier(6);
  const CollectiveSchedule lifted = from_barrier(barrier);
  EXPECT_EQ(lifted.op(), CollectiveOp::kAllreduce);
  EXPECT_EQ(lifted.elem_count(), 0u);
  EXPECT_EQ(lifted.total_bytes(), 0u);
  EXPECT_EQ(lifted.signal_schedule(), barrier);
}

TEST(Generators, AllValidAcrossRanksAndRoots) {
  for (std::size_t p : {1u, 2u, 3u, 5u, 7u, 8u, 12u, 16u}) {
    for (std::size_t root : {std::size_t{0}, p / 2, p - 1}) {
      for (const NamedCollective& cand :
           classic_collectives(CollectiveOp::kBroadcast, p, root, 6, 8)) {
        EXPECT_TRUE(is_valid_collective(cand.schedule))
            << cand.name << " p=" << p << " root=" << root;
      }
      for (const NamedCollective& cand :
           classic_collectives(CollectiveOp::kReduce, p, root, 6, 8)) {
        EXPECT_TRUE(is_valid_collective(cand.schedule))
            << cand.name << " p=" << p << " root=" << root;
      }
    }
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kAllreduce, p, 0, 6, 8)) {
      EXPECT_TRUE(is_valid_collective(cand.schedule))
          << cand.name << " p=" << p;
    }
  }
}

TEST(Generators, RingHandlesShortVectors) {
  // elem_count < ranks: some chunks are empty and their edges dropped.
  const CollectiveSchedule s = ring_allreduce(8, 3, 8);
  EXPECT_TRUE(is_valid_collective(s));
}

TEST(Generators, ValidityCatchesBrokenDataflow) {
  // Drop the last stage of a binomial broadcast: ranks reached only in
  // that stage never see the root's data.
  const CollectiveSchedule full = binomial_broadcast(8, 0, 4, 8);
  CollectiveSchedule broken(CollectiveOp::kBroadcast, 8, 4, 8, 0);
  for (std::size_t s = 0; s + 1 < full.stage_count(); ++s) {
    broken.append_stage(full.stage(s));
  }
  EXPECT_FALSE(is_valid_collective(broken));
  // Flip a reduce edge to overwrite: the root loses contributions.
  CollectiveSchedule clobber(CollectiveOp::kReduce, 4, 4, 8, 0);
  clobber.append_stage({CollectiveEdge{1, 0, 0, 4, false},
                        CollectiveEdge{2, 0, 0, 4, true},
                        CollectiveEdge{3, 0, 0, 4, true}});
  EXPECT_FALSE(is_valid_collective(clobber));
}

TEST(ExecuteSerial, MatchesOracleForEveryGeneratorAndOp) {
  Rng rng(2011);
  for (std::size_t p : {2u, 3u, 5u, 8u, 13u}) {
    const std::size_t elems = 17;
    const std::vector<Payload> inputs = random_inputs(p, elems, rng);
    std::vector<NamedCollective> pool =
        classic_collectives(CollectiveOp::kAllreduce, p, 0, elems, 8);
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kBroadcast, p, p - 1, elems, 8)) {
      pool.push_back(cand);
    }
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kReduce, p, p / 2, elems, 8)) {
      pool.push_back(cand);
    }
    for (const NamedCollective& cand : pool) {
      for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax,
                          ReduceOp::kXor}) {
        SCOPED_TRACE(cand.name);
        expect_matches_oracle(cand.schedule, op, inputs);
      }
    }
  }
}

TEST(ExecuteSerial, RejectsWrongBufferShapes) {
  const CollectiveSchedule s = ring_allreduce(4, 8, 8);
  Rng rng(1);
  std::vector<Payload> inputs = random_inputs(3, 8, rng);
  EXPECT_THROW(execute_serial(s, ReduceOp::kSum, inputs), Error);
  inputs = random_inputs(4, 7, rng);
  EXPECT_THROW(execute_serial(s, ReduceOp::kSum, inputs), Error);
}

TEST(Validity, RejectsContributionCountsPastUint32) {
  // Ranks 0 and 1 fold each other's data 2^32 times, then take rank 2's
  // full reduction: each holds 2^32 + 1 contributions of ranks 0 and 1,
  // which a uint32 count reads as exactly one.
  CollectiveSchedule wrapped(CollectiveOp::kAllreduce, 3, 1, 8);
  wrapped.append_stage(
      {CollectiveEdge{0, 2, 0, 1, true}, CollectiveEdge{1, 2, 0, 1, true}});
  for (int s = 0; s < 33; ++s) {
    wrapped.append_stage(
        {CollectiveEdge{0, 1, 0, 1, true}, CollectiveEdge{1, 0, 0, 1, true}});
  }
  wrapped.append_stage(
      {CollectiveEdge{2, 0, 0, 1, true}, CollectiveEdge{2, 1, 0, 1, true}});
  EXPECT_TRUE(reference_is_valid_collective(wrapped));  // the wrap
  EXPECT_FALSE(is_valid_collective(wrapped));

  const std::vector<Payload> inputs = {{1}, {2}, {4}};
  const std::vector<Payload> got =
      execute_serial(wrapped, ReduceOp::kSum, inputs);
  const std::vector<Payload> want =
      oracle_result(wrapped, ReduceOp::kSum, inputs);
  EXPECT_EQ(want[0], Payload{7});
  EXPECT_EQ(got[0], Payload{(std::uint64_t{3} << 32) + 7});
  EXPECT_NE(got[1], want[1]);
  EXPECT_THROW(CollectiveExecutor{wrapped}, Error);
}

enum class Mutation {
  kDropEdge,
  kFlipCombine,
  kShrinkRange,
  kShiftRange,
  kAddEdge,
  kDuplicateStage,
  kSwapStages,
};
constexpr Mutation kMutations[] = {
    Mutation::kDropEdge,       Mutation::kFlipCombine, Mutation::kShrinkRange,
    Mutation::kShiftRange,     Mutation::kAddEdge,     Mutation::kDuplicateStage,
    Mutation::kSwapStages};

/// `base` with one seeded mutation applied, or nullopt when the
/// mutation does not apply to it (no edges, no payload, one stage, or
/// an added edge that would repeat a (src, dst) pair).
std::optional<CollectiveSchedule> mutated(const CollectiveSchedule& base,
                                          Mutation kind, Rng& rng) {
  std::vector<CollectiveStage> stages = base.stages();
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (stage, k)
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (std::size_t k = 0; k < stages[s].size(); ++k) {
      edges.emplace_back(s, k);
    }
  }
  const std::size_t elems = base.elem_count();
  switch (kind) {
    case Mutation::kDropEdge:
    case Mutation::kFlipCombine:
    case Mutation::kShrinkRange:
    case Mutation::kShiftRange: {
      if (edges.empty()) {
        return std::nullopt;
      }
      const auto [s, k] = edges[pick(edges.size())];
      if (kind == Mutation::kDropEdge) {
        stages[s].erase(stages[s].begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      CollectiveEdge& e = stages[s][k];
      if (kind == Mutation::kFlipCombine) {
        e.combine = !e.combine;
      } else if (e.count == 0) {
        return std::nullopt;
      } else if (kind == Mutation::kShrinkRange) {
        e.offset += pick(2);  // drop the first or the last element
        --e.count;
      } else if (e.offset + e.count < elems) {
        ++e.offset;
      } else if (e.offset > 0) {
        --e.offset;
      } else {
        return std::nullopt;  // the range already spans the buffer
      }
      break;
    }
    case Mutation::kAddEdge: {
      if (stages.empty() || base.ranks() < 2) {
        return std::nullopt;
      }
      CollectiveStage& stage = stages[pick(stages.size())];
      CollectiveEdge e;
      e.src = pick(base.ranks());
      e.dst = (e.src + 1 + pick(base.ranks() - 1)) % base.ranks();
      if (elems > 0) {
        e.offset = pick(elems);
        e.count = 1 + pick(elems - e.offset);
      }
      e.combine = pick(2) == 1;
      for (const CollectiveEdge& other : stage) {
        if (other.src == e.src && other.dst == e.dst) {
          return std::nullopt;
        }
      }
      stage.push_back(e);
      break;
    }
    case Mutation::kDuplicateStage: {
      if (stages.empty()) {
        return std::nullopt;
      }
      const std::size_t s = pick(stages.size());
      stages.insert(stages.begin() + static_cast<std::ptrdiff_t>(s),
                    stages[s]);
      break;
    }
    case Mutation::kSwapStages: {
      if (stages.size() < 2) {
        return std::nullopt;
      }
      const std::size_t s = pick(stages.size() - 1);
      std::swap(stages[s], stages[s + 1]);
      break;
    }
  }
  CollectiveSchedule out(base.op(), base.ranks(), elems, base.elem_bytes(),
                         base.root());
  for (CollectiveStage& stage : stages) {
    out.append_stage(std::move(stage));
  }
  return out;
}

TEST(Validity, MatchesCountingReference) {
  std::vector<CollectiveSchedule> bases;
  const auto add_classics = [&](std::size_t p, std::size_t elems) {
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kAllreduce, p, 0, elems, 8)) {
      bases.push_back(cand.schedule);
    }
    for (std::size_t root : {std::size_t{0}, p / 2, p - 1}) {
      for (CollectiveOp op :
           {CollectiveOp::kBroadcast, CollectiveOp::kReduce}) {
        for (const NamedCollective& cand :
             classic_collectives(op, p, root, elems, 8)) {
          bases.push_back(cand.schedule);
        }
      }
    }
  };
  for (std::size_t p = 1; p <= 24; ++p) {
    for (std::size_t elems : {0u, 1u, 3u, 8u, 17u, 64u}) {
      add_classics(p, elems);
    }
  }
  // Past 64 ranks the planes span several words. The counting reference
  // costs P^2 per stage, so larger P sweep fewer payload sizes.
  for (std::size_t p : {32u, 45u, 70u, 130u}) {
    for (std::size_t elems : {0u, 3u, 8u}) {
      add_classics(p, elems);
    }
  }
  // The tuner's winners on the hex preset, hierarchical compositions
  // among them.
  for (std::size_t p : {12u, 24u, 60u, 120u}) {
    const MachineSpec machine = hex_cluster();
    const TopologyProfile profile =
        generate_profile(machine, round_robin_mapping(machine, p));
    for (CollectiveOp op : {CollectiveOp::kBroadcast, CollectiveOp::kReduce,
                            CollectiveOp::kAllreduce}) {
      for (std::size_t bytes : {0u, 8u, 1024u}) {
        CollectiveTuneOptions options;
        options.op = op;
        options.payload_bytes = bytes;
        options.root = 7;
        bases.push_back(tune_collective(profile, options).schedule());
      }
    }
  }

  Rng rng(1506);
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t mismatches = 0;
  const auto check = [&](const CollectiveSchedule& s) {
    const bool got = is_valid_collective(s);
    (got ? valid : invalid) += 1;
    if (got != reference_is_valid_collective(s)) {
      ++mismatches;
      ADD_FAILURE() << "verifiers disagree (new says " << got << ") on\n"
                    << s;
    }
    return got;
  };
  for (const CollectiveSchedule& base : bases) {
    EXPECT_TRUE(check(base)) << base;
    for (Mutation kind : kMutations) {
      if (const std::optional<CollectiveSchedule> m =
              mutated(base, kind, rng)) {
        check(*m);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Most mutants break the dataflow, so both answers are well covered.
  EXPECT_GT(invalid, bases.size());
  std::cout << "[          ] " << valid + invalid << " schedules (" << valid
            << " valid, " << invalid << " invalid), " << mismatches
            << " mismatches\n";
}

}  // namespace
}  // namespace optibar
