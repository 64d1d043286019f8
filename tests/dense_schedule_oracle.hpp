// Dense oracle for the edge-list Schedule: the P x P stage-matrix
// Schedule, its transforms and the component generators as they were
// before stages became sorted edge lists, kept verbatim (namespace
// optibar::oracle, class renamed DenseSchedule) so test_schedule_parity
// can hold the product representation to them bit for bit, plus the
// conversions between the two forms. The original header follows.
//
// Barrier schedules: layered dependency graphs as boolean matrices.
//
// Section V of the paper represents a barrier algorithm as a sequence of
// steps S_0, S_1, ..., S_k of P x P boolean incidence matrices: row i of
// S_a lists the ranks that i signals in step a, and all signals of a step
// must be received before the next step begins. The signal pattern is a
// barrier iff the knowledge recurrence (Eq. 3)
//     K_0 = I + S_0,   K_a = K_{a-1} + K_{a-1} * S_a
// ends with K_k all-nonzero — i.e. every rank's arrival is known to
// every rank. DenseSchedule is a value type with exactly those semantics plus
// the transforms the adaptive construction needs (transpose-and-reverse
// for departure phases, embedding of local patterns into a global one,
// compaction of empty stages).
//
// Each stage optionally carries a transport matrix, a boolean subset of
// the stage's signals marking edges delivered one-sided (an RMA put
// into the receiver's flag array — src/rma) instead of as a two-sided
// message. An empty transport matrix means all-two-sided, which is the
// default for every constructor and transform, keeps the pre-RMA hot
// paths allocation-free, and makes equality with pre-RMA schedules
// exact. Transports do not change the knowledge recurrence — a put
// conveys the same arrival fact as a message — only how the cost model
// and the executors price and deliver the edge.
#pragma once

#include <cstddef>
#include <ostream>
#include <vector>

#include <functional>
#include <string>
#include <utility>

#include "barrier/schedule.hpp"
#include "util/matrix.hpp"

namespace optibar::oracle {

/// One barrier step: a P x P boolean incidence matrix.
using StageMatrix = BoolMatrix;

class DenseSchedule {
 public:
  /// Empty schedule (zero stages) over `ranks` participants.
  explicit DenseSchedule(std::size_t ranks);

  /// Takes a pre-built stage sequence; all stages must be ranks x ranks.
  DenseSchedule(std::size_t ranks, std::vector<StageMatrix> stages);

  std::size_t ranks() const { return ranks_; }
  std::size_t stage_count() const { return stages_.size(); }
  const StageMatrix& stage(std::size_t s) const;
  const std::vector<StageMatrix>& stages() const { return stages_; }

  /// Append one stage (must be ranks x ranks, zero diagonal).
  void append_stage(StageMatrix stage);

  /// Remove the last stage (search backtracking).
  void pop_stage();

  /// Transport matrix of stage `s`: nonzero entries are the stage's
  /// one-sided signals. Empty (rows() == 0) when the whole stage is
  /// two-sided — the common case, tested via has_one_sided() first.
  const StageMatrix& transport(std::size_t s) const;

  /// Mark the one-sided subset of stage `s`'s signals. `transport`
  /// must be ranks x ranks with transport(i,j) => stage(i,j); an
  /// all-zero (or empty) matrix resets the stage to pure two-sided.
  void set_transport(std::size_t s, StageMatrix transport);

  /// True iff signal i -> j of stage `s` is delivered one-sided.
  bool one_sided(std::size_t s, std::size_t i, std::size_t j) const;

  /// True when any stage carries a one-sided signal.
  bool has_one_sided() const;

  /// Total number of one-sided signals across all stages.
  std::size_t one_sided_signal_count() const;

  /// Ranks that `rank` signals in stage `s`, ascending. Allocates a
  /// fresh vector per call — cold path only (construction, analysis,
  /// codegen). Hot loops use the CSR spans of CompiledSchedule
  /// (compiled_schedule.hpp) instead: same contents, zero allocation.
  std::vector<std::size_t> targets_of(std::size_t rank, std::size_t s) const;

  /// Ranks that signal `rank` in stage `s`, ascending. Cold path only,
  /// like targets_of — see CompiledSchedule::sources for the hot-loop
  /// span equivalent.
  std::vector<std::size_t> sources_of(std::size_t rank, std::size_t s) const;

  /// Arrival-knowledge matrix K_a after stage `a` per Eq. 3; pass
  /// stage_count()-1 (or call final_knowledge) for K_k. K(i,j) nonzero
  /// means rank j knows of rank i's arrival.
  BoolMatrix knowledge_after(std::size_t a) const;
  BoolMatrix final_knowledge() const;

  /// True iff the signal pattern implies global synchronization
  /// (Eq. 3: K_k is all-nonzero). A zero-stage schedule is a barrier
  /// only for ranks() == 1.
  bool is_barrier() const;

  /// The departure construction of Section V-B: the same matrices
  /// transposed, applied in reverse order.
  DenseSchedule transposed_reversed() const;

  /// This schedule followed by `tail` (same rank count).
  DenseSchedule concatenated(const DenseSchedule& tail) const;

  /// Copy without all-zero stages (the code generator "eliminates no-op
  /// transmission steps", Section VII-C).
  DenseSchedule compacted() const;

  /// Total number of signals across all stages.
  std::size_t total_signals() const;

  /// Number of stages with at least one signal.
  std::size_t nonempty_stage_count() const;

  bool operator==(const DenseSchedule& other) const = default;

 private:
  void check_stage(const StageMatrix& stage) const;

  std::size_t ranks_ = 0;
  std::vector<StageMatrix> stages_;
  /// Parallel to stages_; entries are empty (all-two-sided, the
  /// normalized spelling of an all-zero transport) or ranks x ranks.
  std::vector<StageMatrix> transports_;
};

/// OR the stages of `local` into `global`, translating local rank r to
/// global rank rank_map[r], starting at stage `first_stage` of `global`
/// (extending `global` with empty stages as needed). This is the
/// embedding primitive of the hierarchical composition (Section VII-B):
/// "merging shorter sequences with longer ones as early as possible".
void embed_schedule(DenseSchedule& global, const DenseSchedule& local,
                    const std::vector<std::size_t>& rank_map,
                    std::size_t first_stage);

/// Pretty-print all stages, one matrix per stage with a header line.
std::ostream& operator<<(std::ostream& os, const DenseSchedule& schedule);

// ---- Complete barriers (arrival + departure where applicable) ----

/// Linear barrier: every rank signals rank 0, rank 0 signals everyone.
/// 2 stages (Figure 2).
DenseSchedule linear_barrier(std::size_t ranks);

/// Dissemination barrier: ceil(log2 P) stages; in stage s rank i signals
/// (i + 2^s) mod P (Figure 3). Defined for any P.
DenseSchedule dissemination_barrier(std::size_t ranks);

/// Binary tree barrier by recursive pairing: 2*ceil(log2 P) stages
/// (Figure 4); arrival collects into rank 0, departure is the transposed
/// reverse.
DenseSchedule tree_barrier(std::size_t ranks);

/// k-ary heap-shaped tree: parent(i) = (i-1)/k; one stage per tree level
/// in each direction.
DenseSchedule kary_tree_barrier(std::size_t ranks, std::size_t arity);

/// Heap-shaped binary tree (kary with arity 2). Distinct from
/// tree_barrier in signal pattern, same asymptotics.
DenseSchedule heap_tree_barrier(std::size_t ranks);

/// Pairwise exchange: power-of-two ranks exchange with (i XOR 2^s) each
/// stage; non-power-of-two counts fold the excess ranks into the largest
/// power-of-two subset with a pre- and post-stage. Self-completing.
DenseSchedule pairwise_exchange_barrier(std::size_t ranks);

/// Radix-k dissemination: ceil(log_k P) stages; in stage s rank i
/// signals (i + j*k^s) mod P for j = 1..k-1 (offsets that are multiples
/// of P are dropped as no-ops). k = 2 reproduces the classic
/// dissemination barrier. Trades stage count (startup costs O) against
/// per-stage fan-out (marginal costs L) — the knob the paper's model
/// makes priceable. Self-completing, defined for any P.
DenseSchedule radix_dissemination_barrier(std::size_t ranks, std::size_t radix);

/// Ring barrier: a token circulates 0 -> 1 -> ... -> P-1 (arrival, P-1
/// stages), then back down (departure). Minimal signal count and fan-out
/// but maximal depth — the worst large-P choice and a useful baseline
/// for ablations (its single-link stages make per-tier costs legible).
DenseSchedule ring_barrier(std::size_t ranks);

// ---- Arrival phases (for hierarchical composition) ----

/// One stage: all ranks signal rank 0.
DenseSchedule linear_arrival(std::size_t ranks);

/// ceil(log2 P) stages funnelling arrival knowledge into rank 0.
DenseSchedule tree_arrival(std::size_t ranks);

/// Arrival == the complete dissemination barrier (self-completing).
DenseSchedule dissemination_arrival(std::size_t ranks);

DenseSchedule kary_tree_arrival(std::size_t ranks, std::size_t arity);
DenseSchedule heap_tree_arrival(std::size_t ranks);
DenseSchedule pairwise_exchange_arrival(std::size_t ranks);
DenseSchedule radix_dissemination_arrival(std::size_t ranks, std::size_t radix);

/// P-1 stages passing the token up the ring; knowledge funnels into
/// rank P-1, then the composer-friendly variant funnels into rank 0
/// (reversed direction), so ring_arrival ends at rank 0 like the other
/// hierarchical arrivals.
DenseSchedule ring_arrival(std::size_t ranks);


/// Boolean matrix sum (element-wise OR).
inline BoolMatrix bool_add(const BoolMatrix& a, const BoolMatrix& b) {
  OPTIBAR_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                  "dimension mismatch in bool_add");
  BoolMatrix c(a.rows(), a.cols(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c.at_unchecked(i, j) =
          static_cast<std::uint8_t>(a.at_unchecked(i, j) || b.at_unchecked(i, j));
    }
  }
  return c;
}

/// The dense validator's cycle search (validate.cpp before edge lists):
/// a rank on a directed cycle of the stage digraph, or npos.
std::size_t find_cycle_rank(const StageMatrix& stage);
bool stage_has_cycle(const StageMatrix& stage);

/// The v1/v2 writer (schedule_io.cpp before edge lists) over a dense
/// schedule.
void save_schedule(std::ostream& os, const DenseSchedule& s,
                   const std::vector<bool>& awaited_stages);

/// The dense generators by the names paper_algorithms() and
/// extended_algorithms() give them, in extended_algorithms() order.
std::vector<std::pair<std::string, std::function<DenseSchedule(std::size_t)>>>
extended_arrivals();

// ---- Conversions between the two representations ----

/// Stage `s` of an edge Schedule as a dense matrix / its one-sided
/// subset (all-zero when the stage is two-sided).
StageMatrix stage_matrix(const optibar::Schedule& schedule, std::size_t s);
StageMatrix transport_matrix(const optibar::Schedule& schedule, std::size_t s);

/// Tag stage `s` of an edge Schedule from a dense transport matrix, with
/// DenseSchedule::set_transport's contract: an empty or all-zero matrix
/// makes the stage two-sided, and a one-sided cell outside the stage
/// throws.
void set_transport(optibar::Schedule& schedule, std::size_t s,
                   const StageMatrix& transport);

/// A dense stage (and optional transport subset) as sorted signals.
optibar::Stage stage_from_matrix(const StageMatrix& stage,
                                 const StageMatrix* transport = nullptr);

/// Row-scan conversions; both keep every transport tag.
optibar::Schedule to_edges(const DenseSchedule& dense);
DenseSchedule to_dense(const optibar::Schedule& schedule);

}  // namespace optibar::oracle
