// Compiled cost-model evaluation (the allocation-free predict kernel).
//
// predict() in cost_model.cpp is the hottest path of the tuning engine:
// every composer candidate, search node, optimizer sweep and re-tune
// decision funnels through it. The reference implementation re-derives
// the adjacency of every stage on every call (targets_of/sources_of
// search the stage's signals and allocate a fresh vector per rank per
// stage) and recomputes the Eq. 1/2
// batch terms from the O/L matrices each time. This header factors that
// work into a compile-once/evaluate-many representation:
//
//   CompiledSchedule   — a Schedule bound to a TopologyProfile, stored as
//                        rows only where edges exist (layout below) plus
//                        the precomputed ingredients of the batch cost:
//                        sum of L over targets, max of O over targets,
//                        O(i,i), and the receiver-side sum of L over
//                        sources. Evaluation never touches the O/L
//                        matrices again. set_one_sided() re-tags a
//                        single edge in place, so the transport tuner
//                        (src/rma/transport.hpp) prices each flip
//                        without recompiling the schedule.
//   PredictWorkspace   — reusable scratch (ready/batch vectors, the flat
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
// Layout. A row is one (stage, rank) pair in which the rank sends or
// receives. Stage s owns rows [row_begin(s), row_end(s)), ascending by
// rank, and each row holds its target CSR (ranks, L, effective O, R,
// transport tag), its source CSR (ranks, tag), Σ L and max O over its
// targets, and Σ L over its two-sided sources. Idle pairs get no row:
// the only per-(stage, rank) storage is one 32-bit row id, and every
// idle pair maps to the shared empty row 0, so targets(row(rank, s))
// and friends stay O(1) without a branch. The tenk-10240 plan's eight
// middle stages hold 256 edges among the 256 cluster leaders, so each
// stores 256 rows instead of 10240.
//
// Compilation is one O(signals + P) pass per stage: the targets arrive
// in (sender, target) order (compile() walks each stage's sorted
// signals, append_stage() its sorted edges), the stage's row-id slice
// first counts in-degrees, one
// walk over the ranks creates the rows, and a stable counting sort by
// receiver scatters the sources. Stability is what keeps bit identity:
// edges are scattered in (sender, target) order, so each receiver's
// sources come out ascending and its Σ L accumulates in exactly the
// order the dense reference sums it.
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

/// One directed edge with explicit per-edge costs, for append_stage().
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
  using Rank = std::uint32_t;

  CompiledSchedule() = default;

  /// Compile `schedule` against `profile` (ranks must match).
  CompiledSchedule(const Schedule& schedule, const TopologyProfile& profile);

  /// Rebind to a new schedule/profile, reusing the existing storage
  /// (grow-only; no allocation once capacities are warm).
  void compile(const Schedule& schedule, const TopologyProfile& profile);

  /// Size the storage for `stages` stages holding `edges` signals over
  /// `ranks` ranks, so that compiling such a plan allocates each array
  /// once. Optional; compile_blocked() and the collective layer call
  /// it (compile() keeps the grow-only capacity of a reused kernel).
  void reserve(std::size_t ranks, std::size_t stages, std::size_t edges);

  /// Rebind to explicit edge lists with caller-supplied per-edge costs,
  /// one stage at a time, for callers that price more than the plain
  /// O/L matrices (the collective layer's L + bytes * G) or generate
  /// stages on the fly (compile_blocked): start_edges(), then one
  /// append_stage() per stage in stage order. Each stage's edges must be
  /// sorted by (src, dst) with no duplicates and no self edges;
  /// `self_overhead[i]` supplies O(i,i). Accumulation order matches
  /// compile() (targets ascending per sender, sources ascending per
  /// receiver), so edges with l = L(i,j) and o = O(i,j) evaluate
  /// bit-identically to compiling the Schedule directly.
  void start_edges(std::size_t ranks, std::span<const double> self_overhead);
  void append_stage(std::span<const CompiledEdge> edges);

  /// Re-tag edge `k` of targets(row(rank, s)) in place as a put (`put`) or
  /// a two-sided signal. Afterwards every field equals compile() of the
  /// equivalently tagged Schedule, bit for bit (see the bit-identity
  /// contract above). `profile` must be the one compile() bound; not
  /// for compile_edges() bindings. O(out-degree + in-degree), no
  /// allocation.
  void set_one_sided(std::size_t s, std::size_t rank, std::size_t k, bool put,
                     const TopologyProfile& profile);

  std::size_t ranks() const { return p_; }
  std::size_t stage_count() const { return stages_; }

  /// Rows of stage `s`, one per rank that sends or receives in it,
  /// ascending by rank: ids [row_begin(s), row_end(s)).
  std::size_t row_begin(std::size_t s) const { return stage_row_[s]; }
  std::size_t row_end(std::size_t s) const { return stage_row_[s + 1]; }
  /// Row ids run over [0, row_count()); row 0 is the shared empty row.
  std::size_t row_count() const { return rank_.size(); }
  /// Row of (rank, s); the empty row 0 when the rank is idle in `s`.
  std::size_t row(std::size_t rank, std::size_t s) const {
    return row_of_[s * p_ + rank];
  }
  /// The rank a row belongs to (0 for the empty row).
  std::size_t row_rank(std::size_t row) const { return rank_[row]; }

  /// Exact bytes of the representation (element counts, not capacity;
  /// compile scratch excluded).
  std::size_t memory_bytes() const;

  // Row accessors; row(rank, s) finds the row of a (rank, stage) pair.

  /// Ranks the row's rank signals, ascending.
  std::span<const Rank> targets(std::size_t row) const {
    return {tgt_index_.data() + tgt_offsets_[row], target_count(row)};
  }

  /// Ranks that signal the row's rank, ascending.
  std::span<const Rank> sources(std::size_t row) const {
    return {src_index_.data() + src_offsets_[row], source_count(row)};
  }

  /// Per-edge L(rank, target) / effective O, aligned with targets().
  std::span<const double> target_latency(std::size_t row) const {
    return {tgt_l_.data() + tgt_offsets_[row], target_count(row)};
  }
  std::span<const double> target_overhead(std::size_t row) const {
    return {tgt_o_.data() + tgt_offsets_[row], target_count(row)};
  }

  /// Per-edge one-sided delivery latency, aligned with targets(): R of
  /// the profile for put edges, exactly 0.0 for two-sided edges (so
  /// `batch + rma[k]` is bit-identical to `batch` on a pure two-sided
  /// schedule).
  std::span<const double> target_rma_latency(std::size_t row) const {
    return {tgt_r_.data() + tgt_offsets_[row], target_count(row)};
  }

  /// Per-edge transport tag (1 = one-sided put), aligned with targets().
  std::span<const std::uint8_t> target_one_sided(std::size_t row) const {
    return {tgt_rma_.data() + tgt_offsets_[row], target_count(row)};
  }

  /// Per-source transport tag (1 = arrives as a put), aligned with
  /// sources().
  std::span<const std::uint8_t> source_one_sided(std::size_t row) const {
    return {src_rma_.data() + src_offsets_[row], source_count(row)};
  }

  /// Eq. 1 (awaited == false) / Eq. 2 (awaited == true) cost of the
  /// row's send batch; zero for an empty batch, exactly as step_cost().
  double batch_cost(std::size_t row, bool awaited) const {
    if (target_count(row) == 0) {
      return 0.0;
    }
    return (awaited ? self_o_[rank_[row]] : max_o_[row]) + sum_l_[row];
  }

  /// Receiver-side serial completion processing of the row: sum of
  /// L(source, rank) over incoming two-sided signals (ascending
  /// sources); 0.0 on the empty row.
  double recv_processing(std::size_t row) const { return recv_l_[row]; }

 private:
  std::size_t target_count(std::size_t row) const {
    return tgt_offsets_[row + 1] - tgt_offsets_[row];
  }
  std::size_t source_count(std::size_t row) const {
    return src_offsets_[row + 1] - src_offsets_[row];
  }
  /// Drop every stage and keep only the empty row; capacities stay.
  void reset(std::size_t ranks);
  /// Append one target edge of the stage being built.
  void add_edge(Rank src, Rank dst, double l, double o, bool put, double r);
  /// Turn the stage's target edges — appended in (sender, target)
  /// order from `first_edge` on, senders in edge_src_ — into rows and
  /// the stage's source CSR.
  void finish_stage(std::size_t first_edge);

  std::size_t p_ = 0;
  std::size_t stages_ = 0;
  /// Per (stage, rank): row id, s * p_ + rank; 0 when idle.
  std::vector<std::uint32_t> row_of_;
  /// First row of each stage, plus one past the last (stages_ + 1).
  std::vector<std::uint32_t> stage_row_;
  // Per row; row r spans targets [tgt_offsets_[r], tgt_offsets_[r+1])
  // and sources [src_offsets_[r], src_offsets_[r+1]).
  std::vector<Rank> rank_;
  std::vector<std::uint32_t> tgt_offsets_;
  std::vector<std::uint32_t> src_offsets_;
  std::vector<double> sum_l_;  ///< sum of L over targets
  std::vector<double> max_o_;  ///< max of effective O (0 if none)
  /// Sum of L over *two-sided* sources only — puts bypass the
  /// receiver's CPU entirely, so they charge no completion processing.
  std::vector<double> recv_l_;
  // Per target edge, in (stage, sender, target) order.
  std::vector<Rank> tgt_index_;
  std::vector<double> tgt_l_;  ///< L(rank, target)
  /// Effective startup cost: O(rank, target) for two-sided edges,
  /// O(rank, rank) for puts (local initiation only — no rendezvous
  /// with the receiver, per Yu et al.).
  std::vector<double> tgt_o_;
  std::vector<double> tgt_r_;  ///< R(rank, target) for puts, 0.0 otherwise
  std::vector<std::uint8_t> tgt_rma_;  ///< 1 = one-sided
  // Per source edge, in (stage, receiver, source) order.
  std::vector<Rank> src_index_;
  std::vector<std::uint8_t> src_rma_;  ///< 1 = one-sided
  std::vector<double> self_o_;  ///< per rank: O(rank, rank)
  // Compile scratch: the sender of each target edge of the stage being
  // built, and the counting sort's per-row fill cursors.
  std::vector<Rank> edge_src_;
  std::vector<std::uint32_t> fill_;
};

/// Reusable evaluation scratch. One workspace per thread; reuse across
/// calls makes predict_into() allocation-free in steady state (all
/// members grow once to the largest rank/row/resource count seen).
struct PredictWorkspace {
  std::vector<double> ready;
  /// The current stage's send batch completions, by row - row_begin(s).
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
/// predict_reference(schedule, profile, options). Per stage it visits
/// only the stage's rows, plus one max over all P ready times for
/// stage_increment.
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
  void push_stage(const Stage& stage, bool awaited = false);

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
  std::vector<double> processing_;
};

}  // namespace optibar
