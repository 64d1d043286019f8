// Tests for the static schedule validator: classic and tuned schedules
// pass, cyclic awaited stages are flagged as deadlocks, non-barriers
// are flagged (but deadlock-free), and the schedule_io loader enforces
// the deadlock-freedom gate.
#include "barrier/validate.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/schedule_io.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

// A 3-rank stage whose edge digraph is the cycle 0 -> 1 -> 2 -> 0.
Stage ring_stage() { return Stage{Signal{0, 1}, Signal{1, 2}, Signal{2, 0}}; }

bool has_issue(const ValidationResult& result, ScheduleIssueKind kind) {
  for (const ScheduleIssue& issue : result.issues) {
    if (issue.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(StageHasCycle, DetectsCyclesAndAcceptsDags) {
  EXPECT_TRUE(stage_has_cycle(ring_stage(), 3));

  const Stage two_cycle{Signal{0, 1}, Signal{1, 0}};
  EXPECT_TRUE(stage_has_cycle(two_cycle, 2));

  const Stage fan_out{Signal{0, 1}, Signal{0, 2}, Signal{0, 3}};  // a DAG
  EXPECT_FALSE(stage_has_cycle(fan_out, 4));

  const Stage chain{Signal{0, 1}, Signal{1, 2}, Signal{2, 3}};  // 0->1->2->3
  EXPECT_FALSE(stage_has_cycle(chain, 4));

  EXPECT_FALSE(stage_has_cycle(Stage{}, 3));  // empty stage
}

TEST(StageHasCycle, AgreesWithTheDenseSearchOnRandomStages) {
  // The edge DFS against the dense matrix DFS of the oracle's
  // validation: same verdict on random stages, dense and sparse.
  Rng rng(7);
  for (int round = 0; round < 400; ++round) {
    const std::size_t p = 1 + rng.next_below(12);
    oracle::StageMatrix m(p, p, 0);
    const std::size_t density = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        m(i, j) = i != j && rng.next_below(p * density) < 2 ? 1 : 0;
      }
    }
    // Dense reference: K+ of the stage has a nonzero diagonal entry.
    oracle::StageMatrix reach = m;
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          if (reach(i, k) && reach(k, j)) {
            reach(i, j) = 1;
          }
        }
      }
    }
    bool cyclic = false;
    for (std::size_t i = 0; i < p; ++i) {
      cyclic = cyclic || reach(i, i) != 0;
    }
    EXPECT_EQ(stage_has_cycle(oracle::stage_from_matrix(m), p), cyclic)
        << "round " << round;
  }
}

TEST(Validate, EveryClassicGeneratorPasses) {
  const std::size_t p = 12;
  const std::vector<Schedule> classics = {
      linear_barrier(p),        dissemination_barrier(p),
      tree_barrier(p),          heap_tree_barrier(p),
      kary_tree_barrier(p, 3),  pairwise_exchange_barrier(p),
      radix_dissemination_barrier(p, 4)};
  for (const Schedule& schedule : classics) {
    const ValidationResult result = validate_schedule(schedule);
    EXPECT_TRUE(result.ok()) << result.describe();
    EXPECT_TRUE(result.deadlock_free());
  }
}

TEST(Validate, TunedScheduleWithAwaitedFlagsPasses) {
  const MachineSpec machine = quad_cluster();
  const TopologyProfile profile =
      generate_profile(machine, round_robin_mapping(machine, 16));
  const TuneResult tuned = tune_barrier(profile);
  StoredSchedule stored;
  stored.schedule = tuned.schedule();
  stored.awaited_stages = tuned.barrier().awaited_stages;
  const ValidationResult result = validate_schedule(stored);
  EXPECT_TRUE(result.ok()) << result.describe();
}

TEST(Validate, CyclicAwaitedStageIsADeadlock) {
  StoredSchedule stored;
  stored.schedule = Schedule(3);
  stored.schedule.append_stage(ring_stage());
  // Close the pattern into a barrier so only the cycle is at issue.
  stored.schedule.append_stage(ring_stage());
  stored.awaited_stages = {true, false};
  const ValidationResult result = validate_schedule(stored);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.deadlock_free());
  EXPECT_TRUE(has_issue(result, ScheduleIssueKind::kCyclicWait));
  ASSERT_FALSE(result.issues.empty());
  EXPECT_FALSE(result.describe().empty());
}

TEST(Validate, SameCycleNotAwaitedIsFine) {
  // The identical stage digraph under the post-then-wait contract is
  // legitimate (dissemination stages are circulants).
  StoredSchedule stored;
  stored.schedule = Schedule(3);
  stored.schedule.append_stage(ring_stage());
  stored.schedule.append_stage(ring_stage());
  stored.awaited_stages = {false, false};
  const ValidationResult result = validate_schedule(stored);
  EXPECT_TRUE(result.deadlock_free()) << result.describe();
  EXPECT_FALSE(has_issue(result, ScheduleIssueKind::kCyclicWait));
}

TEST(Validate, NonBarrierIsFlaggedButDeadlockFree) {
  // One ring stage does not saturate Eq. 3 for p = 3: not a barrier,
  // but nothing in it can hang a conforming runtime.
  Schedule schedule(3);
  schedule.append_stage(ring_stage());
  const ValidationResult result = validate_schedule(schedule);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.deadlock_free());
  EXPECT_TRUE(has_issue(result, ScheduleIssueKind::kUnreachableKnowledge));
}

TEST(Validate, AwaitedFlagSizeMismatchIsMalformed) {
  StoredSchedule stored;
  stored.schedule = dissemination_barrier(4);
  stored.awaited_stages = {true};  // schedule has 2 stages
  const ValidationResult result = validate_schedule(stored);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_issue(result, ScheduleIssueKind::kMalformed));
}

TEST(Validate, EmptyAwaitedVectorMeansNoneAwaited) {
  StoredSchedule stored;
  stored.schedule = Schedule(3);
  stored.schedule.append_stage(ring_stage());
  stored.schedule.append_stage(ring_stage());
  const ValidationResult result = validate_schedule(stored);
  EXPECT_TRUE(result.deadlock_free()) << result.describe();
}

TEST(ValidateIo, LoaderRejectsCyclicAwaitedSchedules) {
  StoredSchedule stored;
  stored.schedule = Schedule(3);
  stored.schedule.append_stage(ring_stage());
  stored.schedule.append_stage(ring_stage());
  stored.awaited_stages = {true, false};
  std::stringstream buffer;
  save_schedule(buffer, stored);
  EXPECT_THROW(load_schedule(buffer), IoError);
}

TEST(ValidateNonblocking, MatchedProgramsPass) {
  // Every rank posts schedule 0 then waits, twice: clean.
  const NonblockingProgram program{
      NonblockingOp::post(0), NonblockingOp::wait(), NonblockingOp::post(0),
      NonblockingOp::wait()};
  const ValidationResult result =
      validate_nonblocking_programs({program, program, program});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.deadlock_free());
}

TEST(ValidateNonblocking, PostAllThenWaitAllIsFine) {
  // Outstanding handles are legal as long as every post is eventually
  // waited (FIFO drain).
  const NonblockingProgram program{
      NonblockingOp::post(0), NonblockingOp::post(1), NonblockingOp::wait(),
      NonblockingOp::wait()};
  EXPECT_TRUE(validate_nonblocking_programs({program, program}).ok());
}

TEST(ValidateNonblocking, ParcoachMismatchShapeIsCaught) {
  // The PARCOACH benchmark shape: odd ranks post the collective twice,
  // even ranks once — the extra call can never complete.
  const NonblockingProgram even{NonblockingOp::post(0),
                                NonblockingOp::wait()};
  const NonblockingProgram odd{NonblockingOp::post(0), NonblockingOp::wait(),
                               NonblockingOp::post(0),
                               NonblockingOp::wait()};
  const ValidationResult result =
      validate_nonblocking_programs({even, odd, even, odd});
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.deadlock_free());
  bool found = false;
  for (const ScheduleIssue& issue : result.issues) {
    found = found || issue.kind == ScheduleIssueKind::kMismatchedPost;
  }
  EXPECT_TRUE(found) << result.describe();
}

TEST(ValidateNonblocking, DivergentScheduleIdsAreCaughtByPosition) {
  const NonblockingProgram a{NonblockingOp::post(0), NonblockingOp::post(1),
                             NonblockingOp::wait(), NonblockingOp::wait()};
  const NonblockingProgram b{NonblockingOp::post(0), NonblockingOp::post(2),
                             NonblockingOp::wait(), NonblockingOp::wait()};
  const ValidationResult result = validate_nonblocking_programs({a, b});
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_EQ(result.issues[0].kind, ScheduleIssueKind::kMismatchedPost);
  EXPECT_EQ(result.issues[0].stage, 1u);  // first divergent position
}

TEST(ValidateNonblocking, MissingWaitIsCaughtPerRank) {
  const NonblockingProgram leaky{NonblockingOp::post(0)};
  const ValidationResult result =
      validate_nonblocking_programs({leaky, leaky});
  EXPECT_FALSE(result.deadlock_free());
  ASSERT_EQ(result.issues.size(), 2u);  // one per rank, no cross-rank issue
  EXPECT_EQ(result.issues[0].kind, ScheduleIssueKind::kMissingWait);
  EXPECT_EQ(result.issues[1].kind, ScheduleIssueKind::kMissingWait);
}

TEST(ValidateNonblocking, UnmatchedWaitIsCaught) {
  const NonblockingProgram program{NonblockingOp::wait()};
  const ValidationResult result = validate_nonblocking_programs({program});
  ASSERT_EQ(result.issues.size(), 1u);
  EXPECT_EQ(result.issues[0].kind, ScheduleIssueKind::kUnmatchedWait);
  EXPECT_EQ(result.issues[0].stage, 0u);
  EXPECT_FALSE(result.deadlock_free());
}

TEST(ValidateNonblocking, EmptyAndSingleRankProgramsAreClean) {
  EXPECT_TRUE(validate_nonblocking_programs({}).ok());
  const NonblockingProgram program{NonblockingOp::post(3),
                                   NonblockingOp::wait()};
  EXPECT_TRUE(validate_nonblocking_programs({program}).ok());
}

TEST(ValidateIo, LoaderStillAcceptsNonBarrierFiles) {
  // Analysis commands legitimately inspect non-barrier patterns; only
  // deadlock hazards are refused at load time.
  StoredSchedule stored;
  stored.schedule = Schedule(3);
  stored.schedule.append_stage(ring_stage());
  std::stringstream buffer;
  save_schedule(buffer, stored);
  const StoredSchedule loaded = load_schedule(buffer);
  EXPECT_EQ(loaded.schedule.stage_count(), 1u);
  EXPECT_FALSE(loaded.schedule.is_barrier());
}

}  // namespace
}  // namespace optibar
