// Static schedule validation: prove a plan cannot hang the runtime.
//
// Two hazard classes exist for a stored schedule:
//
//  * Cyclic waits on *awaited* stages. A non-awaited stage runs under
//    the post-everything-then-wait-all contract (executor.hpp), which
//    cannot deadlock for any well-formed stage matrix — receives are
//    posted before the rank blocks, so every synchronized send finds
//    its match (induction over stages). Cyclic stage digraphs are even
//    legitimate there: dissemination stages are circulants, ring
//    allreduce stages are full cycles. An *awaited* (Eq. 2) stage is
//    different: its costing assumes receivers are already waiting, and
//    a conforming runtime may replay it with eager blocking sends
//    issued before its receives. Under that contract a directed cycle
//    in the stage's edge digraph is a real deadlock, so awaited stages
//    must be acyclic — the composer only marks departure (fan-out)
//    stages awaited, and demotes any that are not acyclic.
//
//  * Unreachable knowledge: Eq. 3 never saturates, so the pattern is
//    not a barrier. Executing it "succeeds" locally but does not
//    synchronize — flagged so tuners and loaders can refuse to treat
//    it as a barrier. (Loaders still accept such files: analysis
//    commands legitimately inspect non-barrier patterns.)
//
// With the handle-based post/test/wait lifecycle a third hazard class
// appears one level up, in the *program* that issues episodes rather
// than in any single schedule: ranks whose call sequences diverge. The
// PARCOACH mismatch benchmarks (SNIPPETS.md Snippet 2) are the model —
// e.g. odd ranks calling the collective twice while even ranks call it
// once, which deadlocks real MPI. validate_nonblocking_programs checks
// per-rank post/wait traces for exactly those shapes: rank-dependent
// post counts or schedules (kMismatchedPost), a post no wait ever
// completes (kMissingWait), and a wait with no outstanding post
// (kUnmatchedWait).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "barrier/schedule.hpp"
#include "barrier/schedule_io.hpp"

namespace optibar {

enum class ScheduleIssueKind {
  kCyclicWait,            ///< directed cycle inside an awaited stage
  kUnreachableKnowledge,  ///< Eq. 3 never saturates: not a barrier
  kMalformed,             ///< awaited flags inconsistent with the schedule
  kMismatchedPost,        ///< ranks post different schedules / counts
  kMissingWait,           ///< a posted episode is never waited
  kUnmatchedWait,         ///< a wait with no outstanding post
};

const char* to_string(ScheduleIssueKind kind);

struct ScheduleIssue {
  ScheduleIssueKind kind = ScheduleIssueKind::kMalformed;
  std::size_t stage = 0;  ///< stage involved (0 for schedule-wide issues)
  std::string detail;
};

struct ValidationResult {
  std::vector<ScheduleIssue> issues;

  /// No issues at all.
  bool ok() const { return issues.empty(); }

  /// No issue that can hang a conforming runtime. Unreachable
  /// knowledge is a semantic failure (the pattern is not a barrier)
  /// but terminates fine.
  bool deadlock_free() const;

  std::string describe() const;
};

/// True when the digraph of the stage's signals over `ranks` ranks
/// contains a directed cycle. O(ranks + signals).
bool stage_has_cycle(const Stage& stage, std::size_t ranks);

/// Validate a stored schedule (awaited flags checked). An empty awaited
/// vector means no stage is awaited.
ValidationResult validate_schedule(const StoredSchedule& stored);

/// Validate a bare schedule: no awaited stages, so only the knowledge
/// check applies.
ValidationResult validate_schedule(const Schedule& schedule);

/// One call in a rank's nonblocking program: a post of some schedule
/// (identified by a caller-chosen id — e.g. an index into a schedule
/// library) or a wait. Waits complete outstanding posts of the same
/// rank in FIFO order, matching how the executors' episodes are
/// normally drained.
enum class NonblockingOpKind { kPost, kWait };

struct NonblockingOp {
  NonblockingOpKind kind = NonblockingOpKind::kPost;
  std::size_t schedule_id = 0;  ///< meaningful for kPost only

  static NonblockingOp post(std::size_t schedule_id) {
    return NonblockingOp{NonblockingOpKind::kPost, schedule_id};
  }
  static NonblockingOp wait() {
    return NonblockingOp{NonblockingOpKind::kWait, 0};
  }
};

/// Per-rank trace of post/wait calls.
using NonblockingProgram = std::vector<NonblockingOp>;

/// PARCOACH-style mismatch detection over per-rank nonblocking
/// programs: every rank must post the same sequence of schedules
/// (collective calls are matched by position — a rank-dependent count
/// or schedule is kMismatchedPost, the shape that deadlocks real MPI),
/// every post must eventually be waited (kMissingWait), and no rank
/// may wait with nothing outstanding (kUnmatchedWait). The issue's
/// `stage` field carries the op position within the offending rank's
/// program.
ValidationResult validate_nonblocking_programs(
    const std::vector<NonblockingProgram>& programs);

}  // namespace optibar
