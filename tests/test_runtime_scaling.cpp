// Tests for the scaling layer of the simmpi runtime: per-destination
// board shards keep FIFO matching under many-to-one and all-to-all
// contention, stage waits parked on one shard complete across shards, a
// persistent RankPool survives a thousand episodes and rank exceptions,
// and fault decisions are bit-identical between the sharded and the
// one-mutex (BoardMode::kGlobal) board. Runs under both tsan and asan.
#include "simmpi/rank_pool.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "barrier/algorithms.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/resilience.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;
using simmpi::BoardMode;
using simmpi::Communicator;
using simmpi::ExecutionMode;
using simmpi::ExecutorOptions;
using simmpi::Payload;
using simmpi::RankContext;
using simmpi::RankPool;
using simmpi::Request;
using simmpi::ResilienceOptions;
using simmpi::ScheduleExecutor;
using simmpi::StallReport;

// Bound on the stage waits below, which must all complete: a lost
// wakeup fails the test instead of hanging it.
constexpr auto kStageWaitBound = 30s;

// Both board modes must pass every board test below.
class ShardedBoard : public ::testing::TestWithParam<BoardMode> {};

INSTANTIATE_TEST_SUITE_P(BoardModes, ShardedBoard,
                         ::testing::Values(BoardMode::kSharded,
                                           BoardMode::kGlobal),
                         [](const auto& info) {
                           return info.param == BoardMode::kSharded
                                      ? "sharded"
                                      : "global";
                         });

TEST_P(ShardedBoard, ManyToOneKeepsPerChannelFifo) {
  // Seven senders hammer rank 0's shard concurrently; within each
  // (src, 0, tag) channel the k payloads must bind to rank 0's k
  // receives in send order.
  const std::size_t p = 8;
  const std::size_t k = 32;
  Communicator comm(p, simmpi::uniform_latency(), nullptr, GetParam());
  std::vector<std::vector<Payload>> sinks(p, std::vector<Payload>(k));
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    std::vector<Request> requests;
    if (r == 0) {
      requests.reserve((p - 1) * k);
      for (std::size_t src = 1; src < p; ++src) {
        for (std::size_t i = 0; i < k; ++i) {
          requests.push_back(ctx.irecv(src, 0, &sinks[src][i]));
        }
      }
    } else {
      requests.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        requests.push_back(ctx.issend(0, 0, Payload{r, i}));
      }
    }
    ASSERT_TRUE(ctx.wait_stage_until(requests, {},
                                     simmpi::Clock::now() + kStageWaitBound));
  });
  for (std::size_t src = 1; src < p; ++src) {
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(sinks[src][i], (Payload{src, i}))
          << "channel (" << src << " -> 0) delivered out of order";
    }
  }
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST_P(ShardedBoard, AllToAllOrderingAcrossShards) {
  // Every rank sends two payloads to every other rank and waits on its
  // mixed send+recv set in one batched park — completions of its sends
  // land in *other* shards, so this exercises the cross-shard wakeup.
  const std::size_t p = 6;
  const std::size_t per_peer = 2;
  Communicator comm(p, simmpi::uniform_latency(), nullptr, GetParam());
  std::vector<std::vector<std::vector<Payload>>> sinks(
      p, std::vector<std::vector<Payload>>(p,
                                           std::vector<Payload>(per_peer)));
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    std::vector<Request> requests;
    requests.reserve(2 * (p - 1) * per_peer);
    for (std::size_t peer = 0; peer < p; ++peer) {
      if (peer == r) {
        continue;
      }
      for (std::size_t i = 0; i < per_peer; ++i) {
        requests.push_back(ctx.issend(peer, 5, Payload{r, i}));
        requests.push_back(ctx.irecv(peer, 5, &sinks[r][peer][i]));
      }
    }
    ASSERT_TRUE(ctx.wait_stage_until(requests, {},
                                     simmpi::Clock::now() + kStageWaitBound));
  });
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t peer = 0; peer < p; ++peer) {
      if (peer == r) {
        continue;
      }
      for (std::size_t i = 0; i < per_peer; ++i) {
        EXPECT_EQ(sinks[r][peer][i], (Payload{peer, i}))
            << "channel (" << peer << " -> " << r << ") out of order";
      }
    }
  }
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST_P(ShardedBoard, BatchedWaitOverManyRounds) {
  // A ring where every round's send completion lives in the neighbour's
  // shard: fifty consecutive batched parks per rank must all be woken.
  const std::size_t p = 5;
  const int rounds = 50;
  Communicator comm(p, simmpi::uniform_latency(), nullptr, GetParam());
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    const std::size_t next = (r + 1) % p;
    const std::size_t prev = (r + p - 1) % p;
    for (int round = 0; round < rounds; ++round) {
      const std::vector<Request> requests = {ctx.issend(next, round),
                                             ctx.irecv(prev, round)};
      ASSERT_TRUE(ctx.wait_stage_until(
          requests, {}, simmpi::Clock::now() + kStageWaitBound));
    }
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(RankPool, ExecutorReusesOnePoolForAThousandEpisodes) {
  // The pooled executor must dispatch arbitrarily many episodes through
  // the same parked workers — no spawn, no leak, no cross-episode
  // matching (episode tags) — and agree with the spawn executor's
  // observable outcome.
  const Schedule schedule = dissemination_barrier(8);
  ExecutorOptions pooled_options;
  pooled_options.mode = ExecutionMode::kPersistentPool;
  const ScheduleExecutor pooled(schedule, pooled_options);
  const auto zero = [](std::size_t, std::size_t) {
    return simmpi::Clock::duration::zero();
  };
  for (int episode = 0; episode < 1000; ++episode) {
    const auto exits = pooled.run_once(zero);
    ASSERT_EQ(exits.size(), schedule.ranks()) << "episode " << episode;
  }
  // The same executor's resilient path rides the same pool.
  const StallReport report = pooled.run_once_resilient(ResilienceOptions{});
  EXPECT_FALSE(report.stalled);
}

TEST(RankPool, WiderPoolLeavesExtraWorkersParked) {
  RankPool pool(8);
  Communicator comm(3);
  std::vector<int> hits(8, 0);
  simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
    hits[ctx.rank()] = 1;
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(RankPool, RankExceptionPropagatesAndPoolStaysUsable) {
  RankPool pool(4);
  Communicator comm(4);
  EXPECT_THROW(
      simmpi::run_ranks(pool, comm,
                        [&](RankContext& ctx) {
                          if (ctx.rank() == 2) {
                            throw std::runtime_error("rank 2 failed");
                          }
                        }),
      std::runtime_error);
  // The generation completed (all workers back at the parking lot);
  // the next generation runs normally on the same pool.
  std::vector<int> hits(4, 0);
  simmpi::run_ranks(pool, comm,
                    [&](RankContext& ctx) { hits[ctx.rank()] = 1; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
}

TEST(RankPool, RejectsGenerationsWiderThanThePool) {
  RankPool pool(2);
  Communicator comm(3);
  EXPECT_THROW(simmpi::run_ranks(pool, comm, [](RankContext&) {}), Error);
}

TEST(FaultParity, DropDecisionsMatchBetweenShardedAndGlobal) {
  // Fault decisions hash the per-channel send sequence, which no
  // amount of sharding or thread interleaving can change: identical
  // plans must swallow identical messages on both boards, run after
  // run. Sends are never awaited (half of them are dropped).
  const std::size_t p = 6;
  const std::size_t per_channel = 64;
  const FaultPlan plan = FaultPlan::parse("seed=17;drop=*>*@*:0.5");
  auto dropped_with = [&](BoardMode mode) {
    Communicator comm(p, simmpi::uniform_latency(), nullptr, mode);
    comm.set_fault_plan(plan);
    simmpi::run_ranks(comm, [&](RankContext& ctx) {
      for (std::size_t dst = 0; dst < p; ++dst) {
        if (dst == ctx.rank()) {
          continue;
        }
        for (std::size_t i = 0; i < per_channel; ++i) {
          ctx.issend(dst, static_cast<int>(i % 4));
        }
      }
    });
    return comm.dropped_messages();
  };
  const std::size_t sharded = dropped_with(BoardMode::kSharded);
  const std::size_t global = dropped_with(BoardMode::kGlobal);
  EXPECT_EQ(sharded, global);
  EXPECT_GT(sharded, 0u);
  // And rerunning either mode reproduces its count exactly.
  EXPECT_EQ(dropped_with(BoardMode::kSharded), sharded);
  EXPECT_EQ(dropped_with(BoardMode::kGlobal), global);
}

TEST(FaultParity, StallReportsMatchBetweenShardedAndGlobal) {
  // The full resilient pipeline (deadlines, resends, stall forensics)
  // on the same lossy plan: the StallReport — pending-edge set,
  // delivered logs, knowledge matrix — must be identical whichever
  // board the messages met on.
  const Schedule schedule = dissemination_barrier(4);
  const ScheduleExecutor executor(schedule);
  const FaultPlan plan = FaultPlan::parse("seed=5;drop=*>*@*:0.3");
  ResilienceOptions options;
  options.deadline_floor = 80ms;
  options.max_retries = 1;
  auto run_with = [&](BoardMode mode) {
    Communicator comm(schedule.ranks(), simmpi::uniform_latency(), nullptr,
                      mode);
    comm.set_fault_plan(plan);
    StallReport report;
    report.reset(executor.ranks(), executor.stage_count());
    simmpi::run_ranks(comm, [&](RankContext& ctx) {
      if (executor.execute_resilient(ctx, options, report)) {
        report.per_rank[ctx.rank()].finished = true;
      }
    });
    report.finalize();
    return std::pair<StallReport, std::size_t>(report,
                                               comm.dropped_messages());
  };
  const auto [sharded_report, sharded_drops] =
      run_with(BoardMode::kSharded);
  const auto [global_report, global_drops] = run_with(BoardMode::kGlobal);
  EXPECT_EQ(sharded_report, global_report);
  EXPECT_EQ(sharded_drops, global_drops);
  EXPECT_GT(sharded_drops, 0u);
}

}  // namespace
}  // namespace optibar
