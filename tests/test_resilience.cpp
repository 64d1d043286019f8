// Tests for bounded-wait execution: no-fault runs stay clean, dropped
// signals produce StallReports naming the lost edge, reports are
// bit-reproducible from the fault spec, the collective executor keeps
// buffer integrity under faults, and a barrier reports exactly like its
// zero-payload collective.
#include "simmpi/resilience.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "collective/executor.hpp"
#include "collective/generators.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;
using simmpi::ResilienceOptions;
using simmpi::ScheduleExecutor;
using simmpi::SignalEdge;
using simmpi::StallReport;

ResilienceOptions fast_options() {
  ResilienceOptions options;
  options.max_retries = 0;
  options.deadline_floor = 15ms;
  return options;
}

FaultPlan drop_edge(std::size_t src, std::size_t dst, std::size_t stage) {
  FaultPlan plan;
  plan.drops.push_back(
      {src, dst, static_cast<int>(stage), 1.0, 0.0});
  return plan;
}

TEST(ResilienceOptions, DeadlineClampsToFloorAndCeiling) {
  ResilienceOptions options;
  options.predicted_stage_seconds = {1e-6, 10.0};
  options.deadline_floor = 10ms;
  options.deadline_ceiling = 250ms;
  EXPECT_EQ(options.stage_deadline(0), 10ms);   // microseconds -> floor
  EXPECT_EQ(options.stage_deadline(1), 250ms);  // huge -> ceiling
  EXPECT_EQ(options.stage_deadline(7), 10ms);   // out of range -> floor
}

TEST(Resilience, CleanRunFinishesEveryRank) {
  const ScheduleExecutor executor(dissemination_barrier(6));
  const StallReport report = executor.run_once_resilient(fast_options());
  EXPECT_FALSE(report.stalled);
  EXPECT_TRUE(report.pending_edges.empty());
  for (const simmpi::RankStall& rank : report.per_rank) {
    EXPECT_TRUE(rank.finished);
    EXPECT_FALSE(rank.crashed);
  }
  // With every signal delivered the Eq. 3 knowledge saturates.
  EXPECT_TRUE(report.knowledge.all_nonzero());
}

TEST(Resilience, DroppedEdgeProducesAStallNamingIt) {
  const std::size_t p = 6;
  const Schedule schedule = dissemination_barrier(p);
  const ScheduleExecutor executor(schedule);
  const StallReport report =
      executor.run_once_resilient(fast_options(), drop_edge(0, 1, 0));
  EXPECT_TRUE(report.stalled);
  EXPECT_TRUE(report.names_edge(0, 0, 1));
  // The receiver is stuck in stage 0 with rank 0 missing.
  const simmpi::RankStall& victim = report.per_rank[1];
  EXPECT_FALSE(victim.finished);
  EXPECT_EQ(victim.stage_reached, 0u);
  // The dropped arrival fact (row 0) never reached the victim.
  EXPECT_FALSE(report.knowledge.all_nonzero());
  EXPECT_TRUE(report.knowledge(1, 1) != 0);
  EXPECT_TRUE(report.knowledge(0, 0) != 0);
  EXPECT_FALSE(report.describe().empty());
}

TEST(Resilience, RetriesGetThroughALossyLink) {
  // Drop ~60% of signals on one channel; with generous retries the
  // resend draws eventually land and the barrier completes. Seed chosen
  // so the first draw drops (exercising the resend path) but a retry
  // succeeds within the attempt budget.
  const std::size_t p = 4;
  const ScheduleExecutor executor(dissemination_barrier(p));
  FaultPlan plan;
  plan.seed = 9;
  plan.drops.push_back({0, 1, 0, 0.6, 0.0});
  ResilienceOptions options;
  options.deadline_floor = 30ms;
  options.max_retries = 6;
  options.retry_backoff = 1.0;  // flat rounds keep the worst case bounded
  bool completed_with_resends = false;
  for (std::uint64_t seed = 1; seed < 12 && !completed_with_resends; ++seed) {
    plan.seed = seed;
    const FaultInjector injector(plan);
    if (!injector.decide(0, 1, 0, 0).drop) {
      continue;  // want a seed whose first draw drops
    }
    const StallReport report = executor.run_once_resilient(options, plan);
    completed_with_resends = !report.stalled;
  }
  EXPECT_TRUE(completed_with_resends)
      << "no seed with a dropped first attempt completed via resends";
}

// The acceptance sweep: a 100%-drop on ANY single schedule edge makes
// every classic generator's run terminate (no hang, no leaked thread)
// with a StallReport naming exactly that edge, on both machine presets.
struct SweepCase {
  const char* machine;
  std::size_t ranks;
};

class EdgeDropSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EdgeDropSweep, EveryDroppedEdgeIsNamed) {
  const SweepCase param = GetParam();
  const MachineSpec machine = param.machine == std::string("quad")
                                  ? quad_cluster()
                                  : hex_cluster();
  const std::size_t p = param.ranks;
  const TopologyProfile profile =
      generate_profile(machine, round_robin_mapping(machine, p));
  const std::vector<Schedule> classics = {
      linear_barrier(p),        dissemination_barrier(p),
      tree_barrier(p),          heap_tree_barrier(p),
      kary_tree_barrier(p, 4),  pairwise_exchange_barrier(p),
      radix_dissemination_barrier(p, 4)};
  for (const Schedule& schedule : classics) {
    const ScheduleExecutor executor(schedule);
    ResilienceOptions options = fast_options();
    options.predicted_stage_seconds =
        predict(schedule, profile).stage_increment;
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      for (std::size_t src = 0; src < p; ++src) {
        for (std::size_t dst : schedule.targets_of(src, s)) {
          const StallReport report = executor.run_once_resilient(
              options, drop_edge(src, dst, s));
          ASSERT_TRUE(report.stalled)
              << "dropping stage " << s << " edge " << src << "->" << dst
              << " did not stall";
          ASSERT_TRUE(report.names_edge(s, src, dst))
              << "stall report does not name stage " << s << " edge " << src
              << "->" << dst << ":\n"
              << report.describe();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, EdgeDropSweep,
                         ::testing::Values(SweepCase{"quad", 4},
                                           SweepCase{"hex", 6}));

TEST(Resilience, ReportsAreBitReproducibleFromTheSpec) {
  // Same spec string => byte-identical decisions => identical report,
  // including the per-rank delivery logs and the knowledge matrix.
  // Deadlines are generous relative to delivery latency so timing
  // cannot flip a non-dropped signal past its deadline.
  const ScheduleExecutor executor(dissemination_barrier(4));
  const FaultPlan plan = FaultPlan::parse("seed=5;drop=*>*@*:0.3");
  ResilienceOptions options;
  options.deadline_floor = 80ms;
  options.max_retries = 1;
  const StallReport first = executor.run_once_resilient(options, plan);
  const StallReport second = executor.run_once_resilient(options, plan);
  EXPECT_EQ(first, second);
}

TEST(Resilience, CrashFaultHaltsTheRankAtItsStage) {
  const std::size_t p = 6;
  const ScheduleExecutor executor(dissemination_barrier(p));
  FaultPlan plan;
  plan.crashes.push_back({2, 1});
  const StallReport report =
      executor.run_once_resilient(fast_options(), plan);
  EXPECT_TRUE(report.stalled);
  const simmpi::RankStall& dead = report.per_rank[2];
  EXPECT_TRUE(dead.crashed);
  EXPECT_FALSE(dead.finished);
  EXPECT_EQ(dead.stage_reached, 1u);
  // Stage 0 completed before the crash, so rank 2's stage-0 signals
  // were delivered; its stage-1 targets are stuck waiting on it.
  bool someone_waits_on_dead_rank = false;
  for (const SignalEdge& edge : report.pending_edges) {
    someone_waits_on_dead_rank =
        someone_waits_on_dead_rank || (edge.stage == 1 && edge.src == 2);
  }
  EXPECT_TRUE(someone_waits_on_dead_rank);
}

TEST(Resilience, DuplicatesAndSmallDelaysAreTolerated) {
  const ScheduleExecutor executor(dissemination_barrier(4));
  const FaultPlan plan =
      FaultPlan::parse("seed=2;dup=*>*@*:0.5;delay=*>*@*:0.5:0.001");
  ResilienceOptions options;
  options.deadline_floor = 60ms;
  options.max_retries = 1;
  const StallReport report = executor.run_once_resilient(options, plan);
  EXPECT_FALSE(report.stalled) << report.describe();
}

TEST(Resilience, DelayBeyondTheDeadlineStalls) {
  const ScheduleExecutor executor(dissemination_barrier(4));
  FaultPlan plan;
  plan.delays.push_back({0, 1, 0, 1.0, 0.5});  // 500 ms on a 15 ms budget
  ResilienceOptions options = fast_options();
  const StallReport report = executor.run_once_resilient(options, plan);
  EXPECT_TRUE(report.stalled);
  EXPECT_TRUE(report.names_edge(0, 0, 1)) << report.describe();
}

TEST(CollectiveResilience, CleanRunMatchesTheOracle) {
  const std::size_t p = 5;
  const std::size_t elems = 8;
  const CollectiveSchedule schedule =
      recursive_doubling_allreduce(p, elems, 8);
  const CollectiveExecutor executor(schedule);
  std::vector<Payload> inputs(p, Payload(elems));
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t e = 0; e < elems; ++e) {
      inputs[r][e] = 100 * r + e;
    }
  }
  ResilienceOptions options;
  options.deadline_floor = 60ms;
  options.max_retries = 1;
  const CollectiveExecutor::ResilientResult result =
      executor.run_once_resilient(inputs, ReduceOp::kSum, options);
  EXPECT_FALSE(result.report.stalled);
  EXPECT_EQ(result.buffers, oracle_result(schedule, ReduceOp::kSum, inputs));
}

TEST(CollectiveResilience, DroppedEdgeStallsAndNamesIt) {
  const std::size_t p = 4;
  const std::size_t elems = 4;
  const CollectiveSchedule schedule = binomial_broadcast(p, 0, elems, 8);
  const CollectiveExecutor executor(schedule);
  std::vector<Payload> inputs(p, Payload(elems, 0));
  inputs[0] = {1, 2, 3, 4};
  // Find the first stage-0 edge of the broadcast and drop it.
  const Schedule signals = schedule.signal_schedule();
  const std::size_t dst = signals.targets_of(0, 0).at(0);
  const CollectiveExecutor::ResilientResult result =
      executor.run_once_resilient(inputs, ReduceOp::kSum, fast_options(),
                                  drop_edge(0, dst, 0));
  EXPECT_TRUE(result.report.stalled);
  EXPECT_TRUE(result.report.names_edge(0, 0, dst))
      << result.report.describe();
  // The stalled receiver's buffer is its last consistent snapshot — the
  // untouched input, not a half-applied stage.
  EXPECT_EQ(result.buffers[dst], Payload(elems, 0));
}

// A barrier is a zero-payload collective (from_barrier), and both views
// run it on one executor core: their reports must agree field for field
// under every fault kind, and both plain runs must drain the board.
// Deadlines are generous and there are no resends, so a report depends
// only on the fault decisions, never on thread timing.
TEST(BarrierAsCollective, ViewsAgreeUnderEveryFaultKind) {
  ResilienceOptions options;
  options.deadline_floor = 80ms;
  options.max_retries = 0;
  for (const std::size_t p : {4, 8, 12}) {
    for (const Schedule& schedule :
         {dissemination_barrier(p), heap_tree_barrier(p),
          linear_barrier(p)}) {
      const ScheduleExecutor barrier(schedule);
      const CollectiveExecutor collective(from_barrier(schedule));
      const std::vector<Payload> inputs(p);
      EXPECT_NO_THROW(barrier.run_once());
      EXPECT_NO_THROW(collective.run_once(inputs, ReduceOp::kSum));

      std::size_t src = 0;
      while (schedule.targets_of(src, 0).empty()) {
        ++src;
      }
      FaultPlan crash;
      crash.crashes.push_back({1, 1});
      const std::vector<FaultPlan> plans = {
          FaultPlan{},
          drop_edge(src, schedule.targets_of(src, 0).front(), 0),
          FaultPlan::parse("seed=5;drop=*>*@*:0.3"),
          FaultPlan::parse("seed=2;dup=*>*@*:0.5"),
          crash,
          FaultPlan::parse("seed=3;dup=*>*@*:0.5;drop=*>*@*:0.2")};
      for (const FaultPlan& plan : plans) {
        const StallReport expected = barrier.run_once_resilient(options, plan);
        const CollectiveExecutor::ResilientResult result =
            collective.run_once_resilient(inputs, ReduceOp::kSum, options,
                                          plan);
        EXPECT_EQ(result.report, expected)
            << "P=" << p << " faults " << plan.spec() << "\nbarrier:\n"
            << expected.describe() << "collective:\n"
            << result.report.describe();
        EXPECT_EQ(result.buffers, inputs);
      }
    }
  }
}

}  // namespace
}  // namespace optibar
