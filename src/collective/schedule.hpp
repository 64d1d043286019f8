// Data-carrying collective schedules: the barrier model with payloads.
//
// The paper's algorithmic model (Section V) — steps of P x P boolean
// incidence matrices — says who signals whom, but a signal carries no
// data. Broadcast, reduce and allreduce move an elem_count-element
// vector through the same kind of staged pattern, so a collective
// schedule generalizes the boolean stage to a list of directed *edges*,
// each annotated with the element sub-range it carries and whether the
// receiver combines the incoming range into its buffer (reduction) or
// overwrites it (forwarding). Erasing the annotations yields an
// ordinary Schedule (signal_schedule()), which is how the barrier
// machinery — Eq. 1/2 batch costs, netsim, trace export — is reused
// unchanged; the per-edge byte counts feed the G term of the extended
// cost model (topology/profile.hpp).
//
// Stage semantics mirror the barrier model and the simmpi executor: a
// stage's sends all read the sender's buffer as it was when the stage
// began (snapshot), every edge of a stage completes before the next
// stage starts, and a receiver applies its incoming edges in ascending
// source order. Payload elements are 64-bit words and the reduction
// operators (sum mod 2^64, min, max, xor) are exactly associative and
// commutative, so a correct schedule is *bit-exact* against a serial
// oracle regardless of combination order — which is what the simmpi
// correctness tests assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "barrier/schedule.hpp"
#include "simmpi/payload.hpp"

namespace optibar {

/// Which collective a schedule implements. Rooted ops (broadcast,
/// reduce) carry a root rank; allreduce is unrooted (root is 0 by
/// convention and ignored).
enum class CollectiveOp {
  kBroadcast,
  kReduce,
  kAllreduce,
};

const char* to_string(CollectiveOp op);

/// Exact (associative, commutative) reduction operators over 64-bit
/// words, shared with the executor core (simmpi/payload.hpp). kSum wraps
/// mod 2^64, so every bracketing of a reduction is bit-identical —
/// floating-point reassociation error cannot mask a schedule bug.
using simmpi::ReduceOp;
using simmpi::reduce_word;

const char* to_string(ReduceOp op);

/// One directed transfer within a stage: `src` sends elements
/// [offset, offset + count) of its buffer to `dst`, which either
/// reduces them into its own range (combine) or overwrites it.
/// count == 0 is a pure signal — the degenerate case that makes a
/// barrier a zero-payload collective.
struct CollectiveEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t offset = 0;  ///< first element of the transferred range
  std::size_t count = 0;   ///< number of elements; 0 = signal only
  bool combine = false;    ///< true: dst reduces; false: dst overwrites

  bool operator==(const CollectiveEdge& other) const = default;
};

/// A stage: all its edges proceed concurrently, reading pre-stage
/// sender buffers.
using CollectiveStage = std::vector<CollectiveEdge>;

class CollectiveSchedule {
 public:
  CollectiveSchedule() = default;

  /// Empty (zero-stage) schedule. `root` must be < ranks and is
  /// normalized to 0 for allreduce.
  CollectiveSchedule(CollectiveOp op, std::size_t ranks,
                     std::size_t elem_count, std::size_t elem_bytes,
                     std::size_t root = 0);

  CollectiveOp op() const { return op_; }
  std::size_t ranks() const { return ranks_; }
  std::size_t root() const { return root_; }
  std::size_t elem_count() const { return elem_count_; }
  std::size_t elem_bytes() const { return elem_bytes_; }

  std::size_t stage_count() const { return stages_.size(); }
  const CollectiveStage& stage(std::size_t s) const;
  const std::vector<CollectiveStage>& stages() const { return stages_; }

  /// Append a stage. Edges must be in-range (src/dst < ranks, src != dst,
  /// offset + count <= elem_count) and no (src, dst) pair may appear
  /// twice in one stage. Edges are stored sorted by (src, dst).
  void append_stage(CollectiveStage stage);

  /// Payload bytes carried by one edge (count * elem_bytes).
  std::size_t edge_bytes(const CollectiveEdge& e) const {
    return e.count * elem_bytes_;
  }

  /// Total payload bytes moved across all stages.
  std::size_t total_bytes() const;

  /// Total number of edges across all stages.
  std::size_t total_edges() const;

  /// The boolean projection: stage s of the result has (i, j) set iff
  /// some edge i -> j exists in stage s, payload erased. This is what
  /// the barrier-layer consumers (netsim, trace export, Eq. 1/2 terms)
  /// operate on.
  Schedule signal_schedule() const;

  bool operator==(const CollectiveSchedule& other) const = default;

 private:
  CollectiveOp op_ = CollectiveOp::kAllreduce;
  std::size_t ranks_ = 0;
  std::size_t root_ = 0;
  std::size_t elem_count_ = 0;
  std::size_t elem_bytes_ = 0;
  std::vector<CollectiveStage> stages_;
};

/// Lift a barrier schedule to a zero-payload collective (every signal
/// becomes a count == 0 edge). Used by the bytes = 0 parity tests: the
/// collective predictor on the lifted schedule must reproduce the
/// barrier predictor bit for bit.
CollectiveSchedule from_barrier(const Schedule& schedule,
                                std::size_t elem_bytes = 8);

/// Dataflow validity: simulates the schedule over the segments of the
/// element space (the partition induced by all edge range boundaries)
/// and checks the final state implements the op: broadcast — every rank
/// holds exactly the root's data; reduce — the root holds exactly one
/// contribution from every rank; allreduce — every rank does.
///
/// Each (rank, segment) slot holds two bit planes indexed by
/// contributing rank: `once` (that rank's input is folded in at least
/// once) and `more` (at least twice). Initially a slot holds only its
/// own rank in `once`. A combining edge does
///   more |= in.more | (out.once & in.once);  once |= in.once;
/// and an overwriting edge copies both planes. The planes are the
/// contribution count saturated at 2, and saturation commutes with
/// addition, so the state is exact for the only question the final
/// check asks (is each count 0, 1 or more) and no number of folds can
/// wrap it. Reads are staged as in the executor: each stage first
/// gathers every edge's source slots as they were when the stage began,
/// then applies the edges in stored (src, dst) order, which is each
/// receiver's ascending-source order. The cost is the segments the
/// edges carry times ceil(P / 64) words, plus one sort of the edge
/// boundaries and one pass over the final state.
///
/// With elem_count == 0 the data check is vacuous, so validity becomes
/// the signal pattern's knowledge propagation (Eq. 3) over one segment:
/// every signal ORs the sender's `once` plane into the receiver's, and
/// the root must reach everyone (broadcast), hear from everyone
/// (reduce), or the pattern must be a full barrier (allreduce).
bool is_valid_collective(const CollectiveSchedule& schedule);

/// Per-rank payload buffer.
using simmpi::Payload;

/// Reference interpreter: runs the schedule serially with the stage
/// semantics described above and returns the final per-rank buffers.
/// `inputs` must be ranks() buffers of elem_count() words each.
std::vector<Payload> execute_serial(const CollectiveSchedule& schedule,
                                    ReduceOp op,
                                    const std::vector<Payload>& inputs);

/// The serial oracle: what a correct execution must produce. For
/// broadcast every rank ends with the root's input; for reduce the
/// root (and for allreduce, everyone) ends with the elementwise
/// reduction over all inputs. Ranks unconstrained by the op (non-root
/// ranks of a reduce) are returned as their own input, and callers
/// should only compare the constrained ranks.
std::vector<Payload> oracle_result(const CollectiveSchedule& schedule,
                                   ReduceOp op,
                                   const std::vector<Payload>& inputs);

/// Pretty-print: header plus one line per stage listing its edges.
std::ostream& operator<<(std::ostream& os, const CollectiveSchedule& schedule);

}  // namespace optibar
