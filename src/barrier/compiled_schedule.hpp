// Compiled cost-model evaluation (the allocation-free predict kernel).
//
// predict() in cost_model.cpp is the hottest path of the tuning engine:
// every composer candidate, search node, optimizer sweep and re-tune
// decision funnels through it. The reference implementation re-derives
// the adjacency of every stage on every call (targets_of/sources_of
// allocate a fresh vector per rank per stage) and recomputes the Eq. 1/2
// batch terms from the O/L matrices each time. This header factors that
// work into a compile-once/evaluate-many representation:
//
//   CompiledSchedule   — a Schedule bound to a TopologyProfile, stored as
//                        per-stage CSR adjacency (contiguous target and
//                        source index arrays with span accessors) plus
//                        the precomputed per-(rank,stage) ingredients of
//                        the batch cost: sum of L over targets, max of O
//                        over targets, O(i,i), and the receiver-side sum
//                        of L over sources. Evaluation never touches the
//                        O/L matrices again. set_one_sided() re-tags a
//                        single edge in place, so the transport tuner
//                        (src/rma/transport.hpp) prices each flip
//                        without recompiling the schedule.
//   PredictWorkspace   — reusable scratch (ready/next vectors, the flat
//                        dense-resource-id accumulators of the shared-
//                        egress bound). With a warm workspace,
//                        predict_into() performs zero heap allocations.
//   IncrementalPredictor — checkpointed forward evaluation for the
//                        branch-and-bound search: predict() is a forward
//                        pass over stages, so appending a stage only
//                        needs the previous ready-time vector. The
//                        predictor keeps a stack of per-depth ready
//                        vectors; push_stage() scores exactly one stage
//                        and pop_stage() is O(1). Exact, not
//                        approximate: the values match a full predict()
//                        of the prefix bit for bit.
//
// Bit-identity contract: every accumulation below iterates in the same
// order as the reference implementation (targets ascending, sources
// ascending, resources in (sender, target) scan order), so critical
// paths, rank completion times and stage increments — and therefore
// every tuned plan — are bit-identical to predict_reference().
// set_one_sided() keeps that contract under patching. It rewrites every
// term compile() derives from a tag: the edge's effective O, R and tag,
// the receiver's source tag, and two row terms, the sender's max O and
// the receiver's two-sided L sum. It re-derives those row terms with
// compile()'s own ascending loops instead of adding or subtracting the
// edge's share (floating-point sums do not round-trip), so a patched
// CompiledSchedule equals a fresh compile() of the same tagging field
// for field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "barrier/cost_model.hpp"
#include "barrier/schedule.hpp"
#include "topology/profile.hpp"

namespace optibar {

/// One directed edge with explicit per-edge costs, for compile_edges().
/// Callers that price more than the plain O/L matrices (e.g. the
/// collective layer's L + bytes * G bandwidth term) pre-compute the
/// costs; the compiled evaluation is oblivious to where they came from.
struct CompiledEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  double l = 0.0;  ///< marginal cost of this edge in its batch
  double o = 0.0;  ///< startup cost of this edge
  /// One-sided (RMA put) delivery: the edge still charges `l` at
  /// injection and `o` for startup, but the receiver sees the flag
  /// `r` after the sender's batch instead of paying its own
  /// completion processing. Defaults keep existing callers two-sided.
  bool one_sided = false;
  double r = 0.0;  ///< remote-write delivery latency (one-sided only)
};

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

/// Checkpointed stage-at-a-time evaluation for search backtracking.
/// Supports the predict() terms the search uses (Eq. 1/2 batches and
/// receiver processing); the shared-egress bound is not modelled, as no
/// search path prices it. Transport-oblivious: every edge is priced
/// two-sided — the search explores signal patterns, and transports are
/// assigned post-hoc by assign_transports() (src/rma/transport.hpp).
class IncrementalPredictor {
 public:
  explicit IncrementalPredictor(const TopologyProfile& profile,
                                bool receiver_processing = true);

  /// Drop all stages; ready times return to zero (or `entry`).
  void reset();
  void reset(const std::vector<double>& entry);

  std::size_t depth() const { return depth_; }

  /// Ready-time vector after the pushed prefix; bit-identical to
  /// predict(prefix).rank_completion for zero entry times.
  const std::vector<double>& ready() const { return stack_[depth_]; }

  /// max over ready() — the running critical-path bound.
  double max_ready() const;

  /// Score exactly one appended stage from the current checkpoint.
  void push_stage(const StageMatrix& stage, bool awaited = false);

  /// O(1) backtrack to the previous checkpoint.
  void pop_stage();

 private:
  const TopologyProfile* profile_;
  bool receiver_processing_;
  std::size_t p_;
  std::size_t depth_ = 0;
  /// stack_[d] is the ready vector after d stages; slots are pooled and
  /// reused across push/pop cycles.
  std::vector<std::vector<double>> stack_;
  std::vector<double> batch_;
};

}  // namespace optibar
