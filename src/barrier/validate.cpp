#include "barrier/validate.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace optibar {

namespace {

// Iterative three-color DFS over the stage's signals; returns a rank on a
// directed cycle, or npos. Nodes start in ascending order and each
// node's targets are walked ascending, the dense matrix's scan order, so
// the rank named is the one a row-by-row search names. Stage digraphs
// have no self-signals (enforced by Schedule), so a cycle involves >= 2
// ranks.
std::size_t find_cycle_rank(const Stage& stage, std::size_t n) {
  // first[i]: index of i's first signal; the signals ascend by src.
  std::vector<std::size_t> first(n + 1, stage.size());
  for (std::size_t k = stage.size(); k-- > 0;) {
    first[stage[k].src] = k;
  }
  for (std::size_t i = n; i-- > 0;) {
    first[i] = std::min(first[i], first[i + 1]);
  }
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  // (node, index of its next signal)
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != kWhite || first[start] == first[start + 1]) {
      continue;  // visited, or a rank that signals nobody
    }
    color[start] = kGray;
    stack.emplace_back(start, first[start]);
    while (!stack.empty()) {
      const std::size_t node = stack.back().first;
      const std::size_t k = stack.back().second;
      if (k == first[node + 1]) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      const std::size_t j = stage[k].dst;
      if (color[j] == kGray) {
        return j;  // back edge: j is on a directed cycle
      }
      if (color[j] == kWhite) {
        color[j] = kGray;
        stack.emplace_back(j, first[j]);
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

const char* to_string(ScheduleIssueKind kind) {
  switch (kind) {
    case ScheduleIssueKind::kCyclicWait:
      return "cyclic-wait";
    case ScheduleIssueKind::kUnreachableKnowledge:
      return "unreachable-knowledge";
    case ScheduleIssueKind::kMalformed:
      return "malformed";
    case ScheduleIssueKind::kMismatchedPost:
      return "mismatched-post";
    case ScheduleIssueKind::kMissingWait:
      return "missing-wait";
    case ScheduleIssueKind::kUnmatchedWait:
      return "unmatched-wait";
  }
  return "unknown";
}

bool ValidationResult::deadlock_free() const {
  for (const ScheduleIssue& issue : issues) {
    if (issue.kind != ScheduleIssueKind::kUnreachableKnowledge) {
      return false;
    }
  }
  return true;
}

std::string ValidationResult::describe() const {
  if (issues.empty()) {
    return "schedule valid: deadlock-free, knowledge saturates\n";
  }
  std::ostringstream os;
  for (const ScheduleIssue& issue : issues) {
    os << to_string(issue.kind) << " at stage " << issue.stage << ": "
       << issue.detail << "\n";
  }
  return os.str();
}

bool stage_has_cycle(const Stage& stage, std::size_t ranks) {
  return find_cycle_rank(stage, ranks) != static_cast<std::size_t>(-1);
}

ValidationResult validate_schedule(const StoredSchedule& stored) {
  ValidationResult result;
  const Schedule& schedule = stored.schedule;
  const std::vector<bool>& awaited = stored.awaited_stages;
  if (!awaited.empty() && awaited.size() != schedule.stage_count()) {
    result.issues.push_back(ScheduleIssue{
        ScheduleIssueKind::kMalformed, 0,
        "awaited flags cover " + std::to_string(awaited.size()) +
            " stages but the schedule has " +
            std::to_string(schedule.stage_count())});
    return result;
  }
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    if (s < awaited.size() && awaited[s]) {
      const std::size_t rank =
          find_cycle_rank(schedule.stage(s), schedule.ranks());
      if (rank != static_cast<std::size_t>(-1)) {
        std::ostringstream os;
        os << "awaited stage has a directed wait cycle through rank "
           << rank
           << "; eager blocking-send replay of this stage would deadlock";
        result.issues.push_back(
            ScheduleIssue{ScheduleIssueKind::kCyclicWait, s, os.str()});
      }
    }
  }
  if (!schedule.is_barrier()) {
    // Name the first arrival fact that never propagates (Eq. 3).
    const Knowledge k = schedule.final_knowledge();
    std::ostringstream os;
    os << "knowledge does not saturate";
    bool found = false;
    for (std::size_t i = 0; i < k.ranks() && !found; ++i) {
      for (std::size_t j = 0; j < k.ranks() && !found; ++j) {
        if (!k(i, j)) {
          os << ": rank " << i << "'s arrival never reaches rank " << j;
          found = true;
        }
      }
    }
    result.issues.push_back(ScheduleIssue{
        ScheduleIssueKind::kUnreachableKnowledge, 0, os.str()});
  }
  return result;
}

ValidationResult validate_schedule(const Schedule& schedule) {
  return validate_schedule(StoredSchedule{schedule, {}});
}

ValidationResult validate_nonblocking_programs(
    const std::vector<NonblockingProgram>& programs) {
  ValidationResult result;
  if (programs.empty()) {
    return result;
  }

  // Per-rank structural checks: waits drain outstanding posts FIFO; a
  // wait from an empty queue and a post still outstanding at program
  // end are both rank-local defects.
  std::vector<std::vector<std::size_t>> posted(programs.size());
  for (std::size_t rank = 0; rank < programs.size(); ++rank) {
    std::size_t outstanding = 0;
    for (std::size_t pos = 0; pos < programs[rank].size(); ++pos) {
      const NonblockingOp& op = programs[rank][pos];
      if (op.kind == NonblockingOpKind::kPost) {
        posted[rank].push_back(op.schedule_id);
        ++outstanding;
      } else if (outstanding == 0) {
        std::ostringstream os;
        os << "rank " << rank << " waits at op " << pos
           << " with no outstanding post";
        result.issues.push_back(
            ScheduleIssue{ScheduleIssueKind::kUnmatchedWait, pos, os.str()});
      } else {
        --outstanding;
      }
    }
    if (outstanding > 0) {
      std::ostringstream os;
      os << "rank " << rank << " leaves " << outstanding
         << " posted episode(s) without a matching wait";
      result.issues.push_back(ScheduleIssue{ScheduleIssueKind::kMissingWait,
                                            programs[rank].size(), os.str()});
    }
  }

  // Cross-rank check: collective posts match by position, so every
  // rank's posted-schedule sequence must be identical — the PARCOACH
  // mismatch shape (odd ranks post twice, even ranks once) diverges
  // here.
  for (std::size_t rank = 1; rank < programs.size(); ++rank) {
    const std::vector<std::size_t>& a = posted[0];
    const std::vector<std::size_t>& b = posted[rank];
    const std::size_t common = std::min(a.size(), b.size());
    std::size_t diverge = common;
    for (std::size_t k = 0; k < common; ++k) {
      if (a[k] != b[k]) {
        diverge = k;
        break;
      }
    }
    if (diverge < common) {
      std::ostringstream os;
      os << "post " << diverge << ": rank 0 posts schedule " << a[diverge]
         << " but rank " << rank << " posts schedule " << b[diverge];
      result.issues.push_back(ScheduleIssue{
          ScheduleIssueKind::kMismatchedPost, diverge, os.str()});
    } else if (a.size() != b.size()) {
      std::ostringstream os;
      os << "rank 0 posts " << a.size() << " episode(s) but rank " << rank
         << " posts " << b.size()
         << "; the extra collective call can never complete";
      result.issues.push_back(ScheduleIssue{
          ScheduleIssueKind::kMismatchedPost, common, os.str()});
    }
  }
  return result;
}

}  // namespace optibar
