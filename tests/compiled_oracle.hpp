// The compiled predict kernel as it was before rows only where edges
// exist: CompiledSchedule with five dense per-(stage, rank) fields,
// predict_into() walking every rank of every stage, and
// compile_blocked() sorting each stage with std::sort. Copied verbatim
// from the last release that had them, apart from this namespace and
// sharing the production CompiledEdge. test_compiled_layout compares
// the production kernel against it bit for bit; nothing outside that
// test links this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "barrier/schedule.hpp"
#include "topology/profile.hpp"
#include "util/error.hpp"

namespace optibar::oracle {

using optibar::CompiledEdge;

class CompiledSchedule {
 public:
  CompiledSchedule() = default;

  /// Compile `schedule` against `profile` (ranks must match).
  CompiledSchedule(const Schedule& schedule, const TopologyProfile& profile);

  /// Rebind to a new schedule/profile, reusing the existing storage
  /// (grow-only; no allocation once capacities are warm).
  void compile(const Schedule& schedule, const TopologyProfile& profile);

  /// Rebind to an explicit edge list with caller-supplied per-edge
  /// costs. `stage_edges[s]` must be sorted by (src, dst) with no
  /// duplicates and no self edges; `self_overhead[i]` supplies O(i,i).
  /// Accumulation order matches compile() (targets ascending per
  /// sender, sources ascending per receiver), so an edge list derived
  /// from a Schedule with l = L(i,j) and o = O(i,j) evaluates
  /// bit-identically to compiling that Schedule directly.
  void compile_edges(std::size_t ranks,
                     const std::vector<std::vector<CompiledEdge>>& stage_edges,
                     const std::vector<double>& self_overhead);

  /// Re-tag edge `k` of targets(rank, s) in place as a put (`put`) or
  /// a two-sided signal. Afterwards every field equals compile() of the
  /// equivalently tagged Schedule, bit for bit (see the bit-identity
  /// contract above). `profile` must be the one compile() bound; not
  /// for compile_edges() bindings. O(out-degree + in-degree), no
  /// allocation.
  void set_one_sided(std::size_t s, std::size_t rank, std::size_t k, bool put,
                     const TopologyProfile& profile);

  std::size_t ranks() const { return p_; }
  std::size_t stage_count() const { return stages_; }

  /// Ranks that `rank` signals in stage `s`, ascending.
  std::span<const std::size_t> targets(std::size_t rank, std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {tgt_index_.data() + tgt_offsets_[r],
            tgt_offsets_[r + 1] - tgt_offsets_[r]};
  }

  /// Ranks that signal `rank` in stage `s`, ascending.
  std::span<const std::size_t> sources(std::size_t rank, std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {src_index_.data() + src_offsets_[r],
            src_offsets_[r + 1] - src_offsets_[r]};
  }

  /// Per-edge L(rank, target) / O(rank, target), aligned with targets().
  std::span<const double> target_latency(std::size_t rank,
                                         std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {tgt_l_.data() + tgt_offsets_[r],
            tgt_offsets_[r + 1] - tgt_offsets_[r]};
  }
  std::span<const double> target_overhead(std::size_t rank,
                                          std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {tgt_o_.data() + tgt_offsets_[r],
            tgt_offsets_[r + 1] - tgt_offsets_[r]};
  }

  /// Per-edge one-sided delivery latency, aligned with targets(): R of
  /// the profile for put edges, exactly 0.0 for two-sided edges (so
  /// `batch + rma[k]` is bit-identical to `batch` on a pure two-sided
  /// schedule).
  std::span<const double> target_rma_latency(std::size_t rank,
                                             std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {tgt_r_.data() + tgt_offsets_[r],
            tgt_offsets_[r + 1] - tgt_offsets_[r]};
  }

  /// Per-edge transport tag (1 = one-sided put), aligned with targets().
  std::span<const std::uint8_t> target_one_sided(std::size_t rank,
                                                 std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {tgt_rma_.data() + tgt_offsets_[r],
            tgt_offsets_[r + 1] - tgt_offsets_[r]};
  }

  /// Per-source transport tag (1 = arrives as a put), aligned with
  /// sources().
  std::span<const std::uint8_t> source_one_sided(std::size_t rank,
                                                 std::size_t s) const {
    const std::size_t r = row(rank, s);
    return {src_rma_.data() + src_offsets_[r],
            src_offsets_[r + 1] - src_offsets_[r]};
  }

  /// Eq. 1 (awaited == false) / Eq. 2 (awaited == true) cost of `rank`'s
  /// send batch in stage `s`; zero for an empty batch, exactly as
  /// step_cost().
  double batch_cost(std::size_t rank, std::size_t s, bool awaited) const {
    const std::size_t r = row(rank, s);
    if (tgt_offsets_[r] == tgt_offsets_[r + 1]) {
      return 0.0;
    }
    return (awaited ? self_o_[rank] : max_o_[r]) + sum_l_[r];
  }

  /// Receiver-side serial completion processing of stage `s` at `rank`:
  /// sum of L(source, rank) over incoming signals (ascending sources).
  double recv_processing(std::size_t rank, std::size_t s) const {
    return recv_l_[row(rank, s)];
  }

 private:
  std::size_t row(std::size_t rank, std::size_t s) const {
    return s * p_ + rank;
  }

  std::size_t p_ = 0;
  std::size_t stages_ = 0;
  // CSR over rows (stage, rank): row s*p_+rank spans
  // index_[offsets_[row] .. offsets_[row+1]).
  std::vector<std::size_t> tgt_offsets_;
  std::vector<std::size_t> tgt_index_;
  std::vector<double> tgt_l_;  ///< L(rank, target) per target edge
  /// Effective startup cost per target edge: O(rank, target) for
  /// two-sided edges, O(rank, rank) for puts (local initiation only —
  /// no rendezvous with the receiver, per Yu et al.).
  std::vector<double> tgt_o_;
  std::vector<double> tgt_r_;  ///< R(rank, target) for puts, 0.0 otherwise
  std::vector<std::uint8_t> tgt_rma_;  ///< 1 = one-sided, per target edge
  std::vector<std::size_t> src_offsets_;
  std::vector<std::size_t> src_index_;
  std::vector<std::uint8_t> src_rma_;  ///< 1 = one-sided, per source edge
  std::vector<double> sum_l_;   ///< per row: sum of L over targets
  std::vector<double> max_o_;   ///< per row: max of effective O (0 if none)
  /// Per row: sum of L over *two-sided* sources only — puts bypass the
  /// receiver's CPU entirely, so they charge no completion processing.
  std::vector<double> recv_l_;
  std::vector<double> self_o_;  ///< per rank: O(rank, rank)
};

/// Reusable evaluation scratch. One workspace per thread; reuse across
/// calls makes predict_into() allocation-free in steady state (all
/// members grow once to the largest rank/resource count seen).
struct PredictWorkspace {
  std::vector<double> ready;
  std::vector<double> next;
  std::vector<double> batch;
  // Shared-egress accumulators, indexed by dense resource id (the flat
  // replacement for the reference implementation's per-stage std::maps).
  std::vector<double> res_ready;
  std::vector<double> res_max_o;
  std::vector<double> res_sum_l;
  std::vector<std::uint8_t> res_active;
  std::vector<std::size_t> touched_resources;
  /// Scratch result for the predicted_time() overload.
  Prediction scratch;
};

/// Full-schedule prediction on the compiled representation, writing into
/// `out` (whose vectors are reused). Bit-identical to
/// predict_reference(schedule, profile, options).
void predict_into(const CompiledSchedule& compiled,
                  const PredictOptions& options, PredictWorkspace& workspace,
                  Prediction& out);

/// Critical path only; uses workspace.scratch, so a warm workspace makes
/// this completely allocation-free.
double predicted_time(const CompiledSchedule& compiled,
                      const PredictOptions& options,
                      PredictWorkspace& workspace);

/// Compile a blocked plan straight into the CSR predictor form without
/// ever building a dense stage matrix. `Costs` needs o(i, j), l(i, j)
/// and ranks() — both TopologyProfile and TiledProfile qualify. All
/// edges are priced two-sided; per-stage edge lists are sorted by
/// (src, dst), so the result is bit-identical to compiling
/// plan.to_dense() against the same cost source.
template <class Costs>
void compile_blocked(const BlockedSchedule& plan, const Costs& costs,
                     CompiledSchedule& out) {
  OPTIBAR_REQUIRE(costs.ranks() == plan.ranks(),
                  "cost source has " << costs.ranks() << " ranks, plan has "
                                     << plan.ranks());
  std::vector<std::vector<CompiledEdge>> stage_edges(plan.stage_count());
  for (std::size_t s = 0; s < plan.stage_count(); ++s) {
    auto& edges = stage_edges[s];
    plan.for_each_edge(s, [&](std::size_t src, std::size_t dst) {
      edges.push_back(
          CompiledEdge{src, dst, costs.l(src, dst), costs.o(src, dst)});
    });
    std::sort(edges.begin(), edges.end(),
              [](const CompiledEdge& a, const CompiledEdge& b) {
                return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
  }
  std::vector<double> self_overhead(plan.ranks());
  for (std::size_t i = 0; i < plan.ranks(); ++i) {
    self_overhead[i] = costs.o(i, i);
  }
  out.compile_edges(plan.ranks(), stage_edges, self_overhead);
}

}  // namespace optibar::oracle
