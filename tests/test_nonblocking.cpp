// Tests for the handle-based nonblocking execution lifecycle:
// post/test/wait on the barrier and collective executors, the
// equivalence wait(post()) == execute(), the episode tag range,
// ExecutorOptions validation, elapsed-progress-time resilient handles,
// and Request::test()-style polling under fault-injected
// delay/duplicate plans on both board modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "barrier/algorithms.hpp"
#include "collective/executor.hpp"
#include "collective/generators.hpp"
#include "collective/schedule.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/executor_options.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;
using simmpi::BoardMode;
using simmpi::Communicator;
using simmpi::ExecutionMode;
using simmpi::ExecutorOptions;
using simmpi::RankContext;
using simmpi::RankPool;
using simmpi::ScheduleExecutor;

// ---- barrier lifecycle -------------------------------------------------

// The barrier property: no rank may complete its episode before every
// rank has posted. Counting posts with an atomic makes the check
// scheduler-independent.
void expect_barrier_synchronizes(const ScheduleExecutor& executor,
                                 BoardMode board, bool poll) {
  const std::size_t p = executor.ranks();
  Communicator comm(p, simmpi::uniform_latency(), nullptr, board);
  std::atomic<std::size_t> entered{0};
  std::atomic<std::size_t> violations{0};
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    entered.fetch_add(1);
    ScheduleExecutor::EpisodeHandle handle = executor.post(ctx);
    if (poll) {
      while (!executor.test(handle)) {
        std::this_thread::yield();
      }
    } else {
      executor.wait(handle);
    }
    if (!handle.done() || entered.load() != p) {
      violations.fetch_add(1);
    }
  });
  EXPECT_EQ(violations.load(), 0u);
}

TEST(NonblockingBarrier, WaitDrivesEveryRankThroughTheBarrier) {
  const ScheduleExecutor executor(dissemination_barrier(8));
  expect_barrier_synchronizes(executor, BoardMode::kSharded, false);
  expect_barrier_synchronizes(executor, BoardMode::kGlobal, false);
}

TEST(NonblockingBarrier, TestDrivenPollingCompletesToo) {
  const ScheduleExecutor executor(tree_barrier(6));
  expect_barrier_synchronizes(executor, BoardMode::kSharded, true);
  expect_barrier_synchronizes(executor, BoardMode::kGlobal, true);
}

TEST(NonblockingBarrier, ExecuteIsWaitPost) {
  // execute() is implemented as wait(post()); mixing the two spellings
  // across ranks of the same episode must interoperate (same ops, same
  // tags, same matching).
  const ScheduleExecutor executor(dissemination_barrier(5));
  Communicator comm(5);
  std::atomic<std::size_t> done{0};
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    for (int episode = 0; episode < 3; ++episode) {
      if (ctx.rank() % 2 == 0) {
        executor.execute(ctx, episode);
      } else {
        ScheduleExecutor::EpisodeHandle handle =
            executor.post(ctx, episode);
        executor.wait(handle);
      }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), 15u);
}

TEST(NonblockingBarrier, HandleIsMovable) {
  const ScheduleExecutor executor(tree_barrier(4));
  Communicator comm(4);
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    ScheduleExecutor::EpisodeHandle first = executor.post(ctx);
    ScheduleExecutor::EpisodeHandle handle = std::move(first);
    executor.wait(handle);
  });
}

TEST(NonblockingBarrier, HandleIsPointerSizedAndEmptyAfterMove) {
  // A vector of fresh handles is zero words; post() makes the one
  // allocation and a finished handle frees it.
  static_assert(sizeof(ScheduleExecutor::EpisodeHandle) == sizeof(void*));
  const ScheduleExecutor executor(dissemination_barrier(5));
  Communicator comm(5);
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    ScheduleExecutor::EpisodeHandle fresh;
    EXPECT_FALSE(fresh.done());
    EXPECT_THROW(executor.test(fresh), Error);
    ScheduleExecutor::EpisodeHandle posted = executor.post(ctx);
    ScheduleExecutor::EpisodeHandle handle = std::move(posted);
    EXPECT_THROW(executor.wait(posted), Error);  // moved-from is empty
    executor.wait(handle);
    EXPECT_TRUE(handle.done());
    EXPECT_TRUE(executor.test(handle));
    handle = ScheduleExecutor::EpisodeHandle();  // a done handle drops cleanly
    EXPECT_FALSE(handle.done());
  });
}

TEST(NonblockingBarrier, ConcurrentEpisodesInterleave) {
  // Two posted episodes per rank advance independently; episode tags
  // keep their stages from cross-matching.
  const ScheduleExecutor executor(dissemination_barrier(4));
  Communicator comm(4);
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    ScheduleExecutor::EpisodeHandle a = executor.post(ctx, 0);
    ScheduleExecutor::EpisodeHandle b = executor.post(ctx, 1);
    while (!executor.test(a) || !executor.test(b)) {
      std::this_thread::yield();
    }
  });
}

// ---- episode tag range -------------------------------------------------

// Tags are episode * stages + stage in int: the largest episode whose
// last stage's tag still fits.
int last_fitting_episode(std::size_t stages) {
  const long long s = static_cast<long long>(stages);
  return static_cast<int>((INT_MAX - (s - 1)) / s);
}

// `post(episode)` must throw an Error naming the episode and post
// nothing.
template <class Post>
void expect_episode_rejected(Communicator& comm, int episode, Post post) {
  try {
    post(episode);
    ADD_FAILURE() << "episode " << episode << " was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("episode " +
                                         std::to_string(episode)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(EpisodeTags, BarrierRunsTheLastFittingEpisodeAndRejectsTheNext) {
  const ScheduleExecutor executor(dissemination_barrier(5));
  const std::size_t p = executor.ranks();
  const int last = last_fitting_episode(executor.stage_count());
  simmpi::StallReport report;
  report.reset(p, executor.stage_count());
  Communicator plain(p);
  simmpi::run_ranks(plain, [&](RankContext& ctx) {
    executor.execute(ctx, last);
  });
  EXPECT_EQ(plain.unmatched_operations(), 0u);
  Communicator resilient(p);
  simmpi::run_ranks(resilient, [&](RankContext& ctx) {
    EXPECT_TRUE(executor.execute_resilient(
        ctx, executor.options().resilience, report, last));
  });

  Communicator idle(p);
  RankContext ctx(idle, 0);
  for (const int episode : {last + 1, INT_MIN}) {
    expect_episode_rejected(idle, episode,
                            [&](int e) { executor.post(ctx, e); });
    expect_episode_rejected(idle, episode, [&](int e) {
      executor.post_resilient(ctx, report, e);
    });
  }
}

TEST(EpisodeTags, CollectiveRunsTheLastFittingEpisodeAndRejectsTheNext) {
  const std::size_t p = 5;
  const CollectiveSchedule schedule = recursive_doubling_allreduce(p, 3, 8);
  const CollectiveExecutor executor(schedule);
  const int last = last_fitting_episode(executor.stage_count());
  std::vector<Payload> inputs(p, Payload(3));
  for (std::size_t r = 0; r < p; ++r) {
    inputs[r] = {r, 10 * r, 100 * r};
  }
  const std::vector<Payload> expected =
      execute_serial(schedule, ReduceOp::kSum, inputs);
  std::vector<Payload> buffers = inputs;
  Communicator plain(p);
  simmpi::run_ranks(plain, [&](RankContext& ctx) {
    executor.execute(ctx, ReduceOp::kSum, buffers[ctx.rank()], last);
  });
  EXPECT_EQ(buffers, expected);
  simmpi::StallReport report;
  report.reset(p, executor.stage_count());
  buffers = inputs;
  Communicator resilient(p);
  simmpi::run_ranks(resilient, [&](RankContext& ctx) {
    EXPECT_TRUE(executor.execute_resilient(ctx, ReduceOp::kSum,
                                           buffers[ctx.rank()],
                                           executor.options().resilience,
                                           report, last));
  });
  EXPECT_EQ(buffers, expected);

  Communicator idle(p);
  RankContext ctx(idle, 0);
  Payload buffer = inputs[0];
  for (const int episode : {last + 1, INT_MIN}) {
    expect_episode_rejected(idle, episode, [&](int e) {
      executor.post(ctx, ReduceOp::kSum, buffer, e);
    });
    expect_episode_rejected(idle, episode, [&](int e) {
      executor.post_resilient(ctx, ReduceOp::kSum, buffer,
                              executor.options().resilience, report, e);
    });
  }
  EXPECT_EQ(buffer, inputs[0]);
}

// ---- ExecutorOptions ---------------------------------------------------

TEST(ExecutorOptions, ValidatesAtConstruction) {
  const Schedule schedule = tree_barrier(4);
  ExecutorOptions bad_slice;
  bad_slice.progress_slice = 0ms;
  EXPECT_THROW(ScheduleExecutor(schedule, bad_slice), Error);

  ExecutorOptions bad_backoff;
  bad_backoff.resilience.retry_backoff = 0.5;
  EXPECT_THROW(ScheduleExecutor(schedule, bad_backoff), Error);

  ExecutorOptions bad_slack;
  bad_slack.resilience.slack = 0.0;
  EXPECT_THROW(ScheduleExecutor(schedule, bad_slack), Error);

  const CollectiveSchedule collective =
      recursive_doubling_allreduce(4, 2, 8);
  EXPECT_THROW(CollectiveExecutor(collective, bad_slice), Error);
}

TEST(ExecutorOptions, RejectsUndersizedSharedPool) {
  RankPool pool(2);
  ExecutorOptions options;
  options.mode = ExecutionMode::kPersistentPool;
  options.shared_pool = &pool;
  EXPECT_THROW(ScheduleExecutor(tree_barrier(4), options), Error);
}

TEST(ExecutorOptions, SharedPoolServesRepeatedEpisodes) {
  RankPool pool(8);
  ExecutorOptions options;
  options.mode = ExecutionMode::kPersistentPool;
  options.shared_pool = &pool;
  const ScheduleExecutor executor(dissemination_barrier(8), options);
  for (int round = 0; round < 3; ++round) {
    const auto exits = executor.run_once();
    EXPECT_EQ(exits.size(), 8u);
  }
}

// ---- collective lifecycle ----------------------------------------------

std::vector<Payload> ramp_inputs(std::size_t ranks, std::size_t elems) {
  std::vector<Payload> inputs(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    inputs[r].resize(elems);
    for (std::size_t i = 0; i < elems; ++i) {
      inputs[r][i] = r * 1000 + i + 1;
    }
  }
  return inputs;
}

void expect_collective_matches_oracle(const CollectiveSchedule& schedule,
                                      bool poll) {
  const std::size_t p = schedule.ranks();
  const std::vector<Payload> inputs = ramp_inputs(p, schedule.elem_count());
  const std::vector<Payload> expected =
      oracle_result(schedule, ReduceOp::kSum, inputs);

  const CollectiveExecutor executor(schedule);
  Communicator comm(p);
  std::vector<Payload> buffers = inputs;
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    CollectiveExecutor::EpisodeHandle handle =
        executor.post(ctx, ReduceOp::kSum, buffers[ctx.rank()]);
    if (poll) {
      while (!executor.test(handle)) {
        std::this_thread::yield();
      }
    } else {
      executor.wait(handle);
    }
  });
  EXPECT_EQ(buffers, expected);

  // And the blocking convenience form agrees bit-for-bit.
  EXPECT_EQ(executor.run_once(inputs, ReduceOp::kSum), expected);
}

TEST(NonblockingCollective, AllreduceMatchesOracleViaWait) {
  expect_collective_matches_oracle(recursive_doubling_allreduce(6, 4, 8),
                                   false);
}

TEST(NonblockingCollective, AllreduceMatchesOracleViaPolling) {
  expect_collective_matches_oracle(ring_allreduce(5, 5, 8), true);
}

TEST(NonblockingCollective, HandleSurvivesMoves) {
  // The inbox lives inside the handle; moving the handle between post
  // and completion must keep the receive sinks valid.
  const CollectiveSchedule schedule = recursive_doubling_allreduce(4, 3, 8);
  const std::vector<Payload> inputs =
      ramp_inputs(4, schedule.elem_count());
  const std::vector<Payload> expected =
      oracle_result(schedule, ReduceOp::kSum, inputs);
  const CollectiveExecutor executor(schedule);
  Communicator comm(4);
  std::vector<Payload> buffers = inputs;
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    CollectiveExecutor::EpisodeHandle posted =
        executor.post(ctx, ReduceOp::kSum, buffers[ctx.rank()]);
    CollectiveExecutor::EpisodeHandle handle = std::move(posted);
    executor.wait(handle);
  });
  EXPECT_EQ(buffers, expected);
}

// ---- resilient lifecycle -----------------------------------------------

TEST(ResilientHandles, PollingEpisodeSucceedsUnderDelayFaults) {
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    const ScheduleExecutor executor(dissemination_barrier(4));
    Communicator comm(4, simmpi::uniform_latency(), nullptr, board);
    FaultPlan plan;
    plan.seed = 5;
    plan.delays.push_back({ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyTag, 1.0, 2e-3});
    comm.set_fault_plan(plan);

    simmpi::ResilienceOptions resilience;
    resilience.predicted_stage_seconds = {1e-3, 1e-3};
    resilience.slack = 200.0;  // generous: delays must not stall us
    std::atomic<std::size_t> succeeded{0};
    simmpi::StallReport report;
    report.reset(4, executor.stage_count());
    simmpi::run_ranks(comm, [&](RankContext& ctx) {
      ScheduleExecutor::ResilientEpisodeHandle handle =
          executor.post_resilient(ctx, resilience, report);
      while (!executor.test(handle)) {
        std::this_thread::sleep_for(100us);  // compute between polls
      }
      if (handle.succeeded()) {
        succeeded.fetch_add(1);
      }
    });
    EXPECT_EQ(succeeded.load(), 4u) << "board mode "
                                    << static_cast<int>(board);
  }
}

TEST(ResilientHandles, PollingBurnsBudgetOnlyInsideProgressCalls) {
  // A rank that computes between polls must not lose its deadline to
  // the computing time: with a tiny stage budget but generous real
  // time, polling still succeeds because only in-call time is charged.
  const ScheduleExecutor executor(tree_barrier(3));
  Communicator comm(3);
  simmpi::ResilienceOptions resilience;
  resilience.predicted_stage_seconds =
      std::vector<double>(executor.stage_count(), 5e-3);
  resilience.slack = 4.0;
  std::atomic<std::size_t> succeeded{0};
  simmpi::StallReport report;
  report.reset(3, executor.stage_count());
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    ScheduleExecutor::ResilientEpisodeHandle handle =
        executor.post_resilient(ctx, resilience, report);
    while (!executor.test(handle)) {
      // Far longer than the stage budget; wall time is not charged.
      std::this_thread::sleep_for(3ms);
    }
    if (handle.succeeded()) {
      succeeded.fetch_add(1);
    }
  });
  EXPECT_EQ(succeeded.load(), 3u);
  EXPECT_FALSE(report.stalled);
}

TEST(ResilientHandles, CollectivePollingMatchesOracleUnderDuplicates) {
  const CollectiveSchedule schedule = recursive_doubling_allreduce(4, 2, 8);
  const std::vector<Payload> inputs =
      ramp_inputs(4, schedule.elem_count());
  const std::vector<Payload> expected =
      oracle_result(schedule, ReduceOp::kSum, inputs);
  const CollectiveExecutor executor(schedule);
  Communicator comm(4);
  FaultPlan plan;
  plan.seed = 11;
  plan.duplicates.push_back({ChannelFaultRule::kAnyRank,
                             ChannelFaultRule::kAnyRank,
                             ChannelFaultRule::kAnyTag, 1.0, 0.0});
  comm.set_fault_plan(plan);
  simmpi::ResilienceOptions resilience;
  resilience.predicted_stage_seconds =
      std::vector<double>(schedule.stage_count(), 1e-3);
  resilience.slack = 200.0;
  std::vector<Payload> buffers = inputs;
  std::atomic<std::size_t> succeeded{0};
  simmpi::StallReport report;
  report.reset(4, schedule.stage_count());
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    CollectiveExecutor::ResilientEpisodeHandle handle =
        executor.post_resilient(ctx, ReduceOp::kSum, buffers[ctx.rank()],
                                resilience, report);
    while (!executor.test(handle)) {
      std::this_thread::yield();
    }
    if (handle.succeeded()) {
      succeeded.fetch_add(1);
    }
  });
  EXPECT_EQ(succeeded.load(), 4u);
  EXPECT_EQ(buffers, expected);
}

// ---- Request::test() polling under faults ------------------------------

TEST(RequestPolling, DelayedMessageTestsFalseThenTrue) {
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    Communicator comm(2, simmpi::uniform_latency(), nullptr, board);
    FaultPlan plan;
    plan.seed = 3;
    plan.delays.push_back({0, 1, 0, 1.0, 20e-3});
    comm.set_fault_plan(plan);
    auto recv = comm.irecv(0, 1, 0);
    auto send = comm.issend(0, 1, 0);
    // The delivery is delayed ~20 ms; an immediate poll must not
    // observe it (delivery time is simulated, not just matching).
    EXPECT_FALSE(recv->test());
    const auto start = simmpi::Clock::now();
    while (!recv->test() || !send->test()) {
      std::this_thread::sleep_for(200us);
    }
    EXPECT_GE(simmpi::Clock::now() - start, 10ms);
  }
}

TEST(RequestPolling, DuplicatesDoNotConfuseTestPolling) {
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    Communicator comm(2, simmpi::uniform_latency(), nullptr, board);
    FaultPlan plan;
    plan.seed = 9;
    plan.duplicates.push_back({0, 1, ChannelFaultRule::kAnyTag, 1.0, 0.0});
    comm.set_fault_plan(plan);
    for (int round = 0; round < 4; ++round) {
      auto recv = comm.irecv(0, 1, round);
      auto send = comm.issend(0, 1, round);
      while (!recv->test() || !send->test()) {
        std::this_thread::yield();
      }
    }
    EXPECT_EQ(comm.dropped_messages(), 0u);
  }
}

TEST(RequestPolling, PastDeadlineSliceStillReportsFinishedRequests) {
  // The at-deadline boundary of the bounded batched wait: a request
  // whose match is already complete must be reported done even when the
  // progress slice's deadline has already passed — wait_stage_until
  // only fails when completion would require waiting strictly past the
  // deadline.
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    Communicator comm(2, simmpi::uniform_latency(), nullptr, board);
    auto recv = comm.irecv(0, 1, 0);
    auto send = comm.issend(0, 1, 0);
    send->wait();
    recv->wait();
    const std::vector<simmpi::Request> requests{send, recv};
    RankContext ctx(comm, 1);
    EXPECT_TRUE(ctx.wait_stage_until(requests, {},
                                     simmpi::Clock::now() - 1ms));
  }
}

TEST(RequestPolling, PastDeadlineSliceFailsOnUnmatchedRequests) {
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    Communicator comm(2, simmpi::uniform_latency(), nullptr, board);
    auto recv = comm.irecv(0, 1, 0);  // never sent: cannot finish
    const std::vector<simmpi::Request> requests{recv};
    RankContext ctx(comm, 1);
    EXPECT_FALSE(ctx.wait_stage_until(requests, {},
                                      simmpi::Clock::now() - 1ms));
    EXPECT_FALSE(ctx.wait_stage_until(requests, {},
                                      simmpi::Clock::now() + 2ms));
  }
}

}  // namespace
}  // namespace optibar
