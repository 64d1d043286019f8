// Barrier schedules: layered dependency graphs as sorted edge lists.
//
// Section V of the paper represents a barrier algorithm as a sequence of
// steps S_0, S_1, ..., S_k of P x P boolean incidence matrices: row i of
// S_a lists the ranks that i signals in step a, and all signals of a step
// must be received before the next step begins. The signal pattern is a
// barrier iff the knowledge recurrence (Eq. 3)
//     K_0 = I + S_0,   K_a = K_{a-1} + K_{a-1} * S_a
// ends with K_k all-nonzero — i.e. every rank's arrival is known to
// every rank. Schedule is a value type with exactly those semantics plus
// the transforms the adaptive construction needs (transpose-and-reverse
// for departure phases, embedding of local patterns into a global one,
// compaction of empty stages).
//
// Representation. A stage is stored as its nonzero cells only: the
// (src, dst) signals of S_a, sorted by src and then dst, with no
// duplicates and no self-signals. That order is exactly the order in
// which a row-major scan of the dense S_a meets its ones, so every loop
// over a stage's signals visits them in the order the dense matrices
// were scanned, and every floating-point sum accumulated along such a
// walk (Eq. 1/2 batch sums, receiver processing, the compiled CSR) is
// bit-identical to what the dense representation produced. A plan costs
// O(signals) memory instead of O(stages * P^2); the dense form survives
// only as the test oracle (tests/dense_schedule_oracle.*) and in the
// P^2-cell text format (barrier/schedule_io.hpp).
//
// Transports. Each signal carries one bit: one-sided (an RMA put into
// the receiver's flag array — src/rma) or two-sided (a message). Every
// constructor and generator builds two-sided signals; transforms carry
// the bit along with its signal. Transports do not change the knowledge
// recurrence — a put conveys the same arrival fact as a message — only
// how the cost model and the executors price and deliver the edge.
//
// Eq. 3 over edges. Knowledge keeps one bit row per rank j: the ranks i
// whose arrival j knows (K(i, j)). A stage's product K * S_a ORs, for
// each signal k -> j, k's row into j's row. Reads are staged: k forwards
// what it knew before the stage, so the rows of ranks that both send and
// receive in the stage are copied before any of the stage's ORs land.
// One stage costs O(P/64 * signals) word operations, against the cubic
// dense product.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace optibar {

/// One signal of a stage: `src` signals `dst`, delivered one-sided (a
/// put) or two-sided (a message).
struct Signal {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  bool one_sided = false;

  bool operator==(const Signal&) const = default;
};

/// One barrier step: its signals sorted by (src, dst), no duplicates,
/// no self-signals.
using Stage = std::vector<Signal>;

/// Sort a stage's signals by (src, dst) and merge duplicates; a merged
/// signal is one-sided when any of its copies was (the union of the
/// copies' cells, as OR-ing dense stages and their transports gives).
void normalize_stage(Stage& stage);

/// Arrival knowledge K_a of Eq. 3, one bit row per rank.
class Knowledge {
 public:
  /// K = I: every rank knows only its own arrival.
  explicit Knowledge(std::size_t ranks);

  std::size_t ranks() const { return ranks_; }

  /// K(i, j): rank j knows of rank i's arrival.
  bool operator()(std::size_t i, std::size_t j) const {
    return (bits_[j * words_ + i / 64] >> (i % 64)) & 1u;
  }

  /// One Eq. 3 step, K <- K + K * S, over the stage's signals with
  /// staged reads.
  void apply(const Stage& stage);

  /// True when every rank knows every arrival (K all-nonzero).
  bool complete() const;

  bool operator==(const Knowledge& other) const {
    return ranks_ == other.ranks_ && bits_ == other.bits_;
  }

 private:
  std::size_t ranks_ = 0;
  std::size_t words_ = 0;            ///< 64-bit words per row
  std::vector<std::uint64_t> bits_;  ///< row j = ranks j knows of
  /// Pre-stage rows of ranks that send and receive in the stage being
  /// applied, and which ranks receive in it.
  std::vector<std::uint64_t> staged_;
  std::vector<std::uint32_t> staged_row_;
  std::vector<std::uint8_t> receives_;
};

class Schedule {
 public:
  /// Empty schedule (zero stages) over `ranks` participants.
  explicit Schedule(std::size_t ranks);

  /// Takes a pre-built stage sequence; see append_stage.
  Schedule(std::size_t ranks, std::vector<Stage> stages);

  std::size_t ranks() const { return ranks_; }
  std::size_t stage_count() const { return stages_.size(); }
  const Stage& stage(std::size_t s) const;
  const std::vector<Stage>& stages() const { return stages_; }

  /// Append one stage: signals sorted by (src, dst), each in range,
  /// without duplicates or self-signals (normalize_stage sorts and
  /// merges).
  void append_stage(Stage stage);

  /// Remove the last stage (search backtracking).
  void pop_stage();

  /// Tag signal `k` of stage `s` one-sided (`put`) or two-sided.
  void set_one_sided(std::size_t s, std::size_t k, bool put);

  /// Tag every signal of stage `s` alike.
  void set_all_one_sided(std::size_t s, bool put);

  /// True iff stage `s` has the signal i -> j. O(log signals).
  bool has_signal(std::size_t s, std::size_t i, std::size_t j) const;

  /// True iff signal i -> j of stage `s` is delivered one-sided.
  bool one_sided(std::size_t s, std::size_t i, std::size_t j) const;

  /// True when any stage carries a one-sided signal.
  bool has_one_sided() const;

  /// Total number of one-sided signals across all stages.
  std::size_t one_sided_signal_count() const;

  /// Ranks that `rank` signals in stage `s`, ascending; allocates a
  /// fresh vector per call. Hot loops use stage() or the CSR spans of
  /// CompiledSchedule (compiled_schedule.hpp) instead.
  std::vector<std::size_t> targets_of(std::size_t rank, std::size_t s) const;

  /// Ranks that signal `rank` in stage `s`, ascending. Scans the whole
  /// stage: O(signals) per call.
  std::vector<std::size_t> sources_of(std::size_t rank, std::size_t s) const;

  /// Arrival knowledge K_a after stage `a` per Eq. 3; pass
  /// stage_count()-1 (or call final_knowledge) for K_k.
  Knowledge knowledge_after(std::size_t a) const;
  Knowledge final_knowledge() const;

  /// True iff the signal pattern implies global synchronization
  /// (Eq. 3: K_k is all-nonzero). A zero-stage schedule is a barrier
  /// only for ranks() == 1.
  bool is_barrier() const;

  /// The departure construction of Section V-B: the same stages
  /// transposed (each signal reversed, its transport kept), applied in
  /// reverse order.
  Schedule transposed_reversed() const;

  /// This schedule followed by `tail` (same rank count).
  Schedule concatenated(const Schedule& tail) const;

  /// Copy without empty stages (the code generator "eliminates no-op
  /// transmission steps", Section VII-C).
  Schedule compacted() const;

  /// Total number of signals across all stages.
  std::size_t total_signals() const;

  /// Number of stages with at least one signal.
  std::size_t nonempty_stage_count() const;

  bool operator==(const Schedule& other) const = default;

 private:
  friend void embed_schedule(Schedule& global, const Schedule& local,
                             const std::vector<std::size_t>& rank_map,
                             std::size_t first_stage);

  std::size_t ranks_ = 0;
  std::vector<Stage> stages_;
};

/// OR the stages of `local` into `global`, translating local rank r to
/// global rank rank_map[r], starting at stage `first_stage` of `global`
/// (extending `global` with empty stages as needed). This is the
/// embedding primitive of the hierarchical composition (Section VII-B):
/// "merging shorter sequences with longer ones as early as possible".
/// A signal present in both keeps the union of their transport bits.
void embed_schedule(Schedule& global, const Schedule& local,
                    const std::vector<std::size_t>& rank_map,
                    std::size_t first_stage);

/// Largest rank count the P^2-cell text writers accept: above it one
/// stage would be more than 64M cells of text.
inline constexpr std::size_t kMaxDenseTextRanks = 8192;

/// Write stage `s` as P lines of P space-separated 0/1 cells: its
/// signals, or with `transports` its one-sided subset. This is the dense
/// text form of the v1/v2 schedule format and of operator<<; it refuses
/// schedules over more than kMaxDenseTextRanks ranks.
void write_stage_cells(std::ostream& os, const Schedule& schedule,
                       std::size_t s, bool transports);

/// Pretty-print all stages, one P x P cell block per stage with a header
/// line, plus the one-sided subset of each stage that has one.
std::ostream& operator<<(std::ostream& os, const Schedule& schedule);

}  // namespace optibar
