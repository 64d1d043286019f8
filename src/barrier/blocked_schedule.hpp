// Blocked schedule representation: a composed hierarchical plan that
// never materializes its P-rank stages.
//
// A hierarchically tuned barrier over C clusters of a few classes is
// enormously redundant in dense form: every cluster of a class runs the
// same local sub-schedule (translated to its own ranks), and the leader
// stage touches only C ranks. A flat Schedule of the 10240-rank plan
// would list all ~22000 of its signals; the blocked form stores
//
//   - one local arrival Schedule per cluster CLASS (tile-local ranks),
//   - one leader arrival Schedule over the C cluster leaders,
//   - the cluster membership and leader maps,
//   - a per-global-stage reference (which local stage / leader stage,
//     and whether transposed for the departure side),
//
// so memory is O(signals + K·t-schedule + C-schedule), sub-quadratic in
// P. The global stage structure reproduces compose_barrier() exactly:
// all cluster blocks start at stage 0 (merge-early), the leader block
// starts after the longest class, the departure is the reversed
// transposed arrival with the leader block omitted when the leader
// algorithm is self-completing, empty stages are compacted away, and
// surviving departure stages are awaited iff acyclic. to_dense() plus
// the awaited flags therefore round-trip into a plain Schedule the
// validator and executors accept — and compile_blocked() feeds the
// compiled CSR predictor and the netsim engine directly, bit-identical
// to compiling that flat schedule. Stage blocks are read straight from
// the arrivals' own sorted signals; no edge list is copied.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "barrier/compiled_schedule.hpp"
#include "barrier/schedule.hpp"
#include "util/error.hpp"

namespace optibar {

/// Sentinel for "this side contributes no block to the stage".
inline constexpr std::size_t kNoBlockStage =
    std::numeric_limits<std::size_t>::max();

/// One compacted global stage: which stage of the per-class local
/// schedules and/or the leader schedule it replays, and in which
/// direction.
struct BlockedStageRef {
  bool transposed = false;  ///< departure side (reversed transposes)
  std::size_t local_stage = kNoBlockStage;
  std::size_t leader_stage = kNoBlockStage;

  bool operator==(const BlockedStageRef&) const = default;
};

class BlockedSchedule {
 public:
  BlockedSchedule() = default;

  /// Assemble the full blocked barrier from its components.
  ///   clusters    cluster -> global member ranks (a partition of 0..P-1)
  ///   class_of    cluster -> class id
  ///   class_arrivals  class -> local arrival schedule over tile ranks
  ///                   (positional: local rank i is clusters[c][i])
  ///   leader_arrival  arrival over cluster indices 0..C-1
  ///   leader_ranks    cluster -> global rank of its leader
  ///   leader_self_completing  omit the leader block from the departure
  BlockedSchedule(std::vector<std::vector<std::size_t>> clusters,
                  std::vector<std::size_t> class_of,
                  std::vector<Schedule> class_arrivals,
                  Schedule leader_arrival,
                  std::vector<std::size_t> leader_ranks,
                  bool leader_self_completing);

  std::size_t ranks() const { return ranks_; }
  std::size_t cluster_count() const { return clusters_.size(); }
  std::size_t class_count() const { return class_arrivals_.size(); }

  /// Compacted global stage count and per-stage Eq. 2 flags, exactly as
  /// a dense compose_barrier() would have produced them.
  std::size_t stage_count() const { return stage_refs_.size(); }
  const std::vector<bool>& awaited_stages() const { return awaited_; }
  std::size_t arrival_stage_count() const { return arrival_stages_; }

  const std::vector<std::vector<std::size_t>>& clusters() const {
    return clusters_;
  }
  const std::vector<std::size_t>& class_of() const { return class_of_; }
  const std::vector<Schedule>& class_arrivals() const {
    return class_arrivals_;
  }
  const Schedule& leader_arrival() const { return leader_arrival_; }
  const std::vector<std::size_t>& leader_ranks() const {
    return leader_ranks_;
  }
  const std::vector<BlockedStageRef>& stage_refs() const {
    return stage_refs_;
  }
  bool leader_self_completing() const { return leader_self_completing_; }

  /// Stage at which the leader block begins in the (uncompacted)
  /// arrival — the merge-early start after the longest class.
  std::size_t leader_start() const { return leader_start_; }

  std::size_t total_signals() const;

  /// Exact bytes held by the representation.
  std::size_t memory_bytes() const;

  /// Enumerate the global (src, dst) edges of compacted stage `s`.
  /// Order: clusters ascending, then the block's local (src, dst) scan
  /// order, then the leader block — NOT globally sorted; compile_blocked
  /// sorts per stage.
  template <class Fn>
  void for_each_edge(std::size_t s, Fn&& fn) const {
    const BlockedStageRef& ref = stage_refs_[s];
    if (ref.local_stage != kNoBlockStage) {
      for (std::size_t c = 0; c < clusters_.size(); ++c) {
        const Schedule& arrival = class_arrivals_[class_of_[c]];
        if (ref.local_stage >= arrival.stage_count()) {
          continue;
        }
        const auto& members = clusters_[c];
        for (const Signal& signal : arrival.stage(ref.local_stage)) {
          if (ref.transposed) {
            fn(members[signal.dst], members[signal.src]);
          } else {
            fn(members[signal.src], members[signal.dst]);
          }
        }
      }
    }
    if (ref.leader_stage != kNoBlockStage) {
      for (const Signal& signal : leader_arrival_.stage(ref.leader_stage)) {
        if (ref.transposed) {
          fn(leader_ranks_[signal.dst], leader_ranks_[signal.src]);
        } else {
          fn(leader_ranks_[signal.src], leader_ranks_[signal.dst]);
        }
      }
    }
  }

  /// Materialize the flat Schedule, O(signals) (interop: the validator,
  /// the v1/v2 text format, parity tests). Stage order and contents
  /// match the compacted blocked stages one to one, so awaited_stages()
  /// applies unchanged.
  Schedule to_dense() const;

 private:
  bool stage_is_empty(const BlockedStageRef& ref) const;
  bool stage_has_cycle_blocked(const BlockedStageRef& ref) const;

  std::size_t ranks_ = 0;
  std::vector<std::vector<std::size_t>> clusters_;
  std::vector<std::size_t> class_of_;
  std::vector<Schedule> class_arrivals_;
  Schedule leader_arrival_{1};
  std::vector<std::size_t> leader_ranks_;
  bool leader_self_completing_ = false;
  std::size_t leader_start_ = 0;
  std::vector<BlockedStageRef> stage_refs_;
  std::vector<bool> awaited_;
  std::size_t arrival_stages_ = 0;
};

/// Compile a blocked plan straight into the CSR predictor form without
/// ever building the flat schedule. `Costs` needs o(i, j), l(i, j)
/// and ranks() — both TopologyProfile and TiledProfile qualify. All
/// edges are priced two-sided; per-stage edge lists are put in (src,
/// dst) order, so the result is bit-identical to compiling
/// plan.to_dense() against the same cost source.
template <class Costs>
void compile_blocked(const BlockedSchedule& plan, const Costs& costs,
                     CompiledSchedule& out) {
  const std::size_t p = plan.ranks();
  OPTIBAR_REQUIRE(costs.ranks() == p,
                  "cost source has " << costs.ranks() << " ranks, plan has "
                                     << p);
  std::vector<double> self_overhead(p);
  for (std::size_t i = 0; i < p; ++i) {
    self_overhead[i] = costs.o(i, i);
  }
  out.reserve(p, plan.stage_count(), plan.total_signals());
  out.start_edges(p, self_overhead);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<CompiledEdge> edges;
  for (std::size_t s = 0; s < plan.stage_count(); ++s) {
    pairs.clear();
    plan.for_each_edge(s, [&](std::size_t src, std::size_t dst) {
      pairs.emplace_back(static_cast<std::uint32_t>(src),
                         static_cast<std::uint32_t>(dst));
    });
    // Blocks are enumerated cluster by cluster, so the pairs already
    // come in (src, dst) order whenever clusters are rank ranges. The
    // edges are built only once a stage's size is known: growing a
    // CompiledEdge list by push_back re-faults ~400 pages per tenk pass.
    if (!std::is_sorted(pairs.begin(), pairs.end())) {
      std::sort(pairs.begin(), pairs.end());
    }
    edges.resize(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto [src, dst] = pairs[k];
      edges[k] = CompiledEdge{src, dst, costs.l(src, dst), costs.o(src, dst)};
    }
    out.append_stage(edges);
  }
}

}  // namespace optibar
