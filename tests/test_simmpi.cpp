// Tests for the in-process MPI-like runtime: issend/irecv matching,
// synchronized-send semantics, the general schedule interpreter, and the
// paper's delay-injection synchronization check on real threads.
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/latency_model.hpp"
#include "simmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "barrier/algorithms.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;

TEST(Communicator, RejectsInvalidOperations) {
  simmpi::Communicator comm(2);
  EXPECT_THROW(comm.issend(0, 0, 0), Error);   // self send
  EXPECT_THROW(comm.issend(0, 2, 0), Error);   // dst out of range
  EXPECT_THROW(comm.issend(2, 0, 0), Error);   // src out of range
  EXPECT_THROW(comm.irecv(1, 1, 0), Error);    // self recv
  EXPECT_THROW(simmpi::Communicator(0), Error);
}

TEST(Communicator, SendThenRecvMatches) {
  simmpi::Communicator comm(2);
  auto send = comm.issend(0, 1, 7);
  EXPECT_FALSE(send->test());
  auto recv = comm.irecv(0, 1, 7);
  EXPECT_TRUE(send->test());
  EXPECT_TRUE(recv->test());
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(Communicator, RecvThenSendMatches) {
  simmpi::Communicator comm(2);
  auto recv = comm.irecv(0, 1, 3);
  EXPECT_EQ(comm.unmatched_operations(), 1u);
  auto send = comm.issend(0, 1, 3);
  EXPECT_TRUE(recv->test());
  EXPECT_TRUE(send->test());
}

TEST(Communicator, TagsSeparateChannels) {
  simmpi::Communicator comm(2);
  auto send_a = comm.issend(0, 1, 1);
  auto recv_b = comm.irecv(0, 1, 2);
  EXPECT_FALSE(send_a->test());
  EXPECT_FALSE(recv_b->test());
  auto recv_a = comm.irecv(0, 1, 1);
  EXPECT_TRUE(send_a->test());
  EXPECT_FALSE(recv_b->test());
  auto send_b = comm.issend(0, 1, 2);
  EXPECT_TRUE(recv_b->test());
}

TEST(Communicator, SameTagMatchesFifo) {
  simmpi::Communicator comm(2);
  auto s1 = comm.issend(0, 1, 0);
  auto s2 = comm.issend(0, 1, 0);
  auto r1 = comm.irecv(0, 1, 0);
  EXPECT_TRUE(s1->test());
  EXPECT_FALSE(s2->test());
  auto r2 = comm.irecv(0, 1, 0);
  EXPECT_TRUE(s2->test());
}

TEST(Communicator, DirectionsAreDistinctChannels) {
  simmpi::Communicator comm(2);
  auto send_fwd = comm.issend(0, 1, 0);
  auto recv_bwd = comm.irecv(1, 0, 0);  // 0 expects from 1: no match
  EXPECT_FALSE(send_fwd->test());
  EXPECT_FALSE(recv_bwd->test());
}

TEST(Communicator, InjectedLatencyDelaysVisibility) {
  const auto delay = 30ms;
  simmpi::LatencyModel model = [&](std::size_t, std::size_t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(delay);
  };
  simmpi::Communicator comm(2, model);
  const auto start = simmpi::Clock::now();
  auto send = comm.issend(0, 1, 0);
  auto recv = comm.irecv(0, 1, 0);
  recv->wait();
  const auto elapsed = simmpi::Clock::now() - start;
  EXPECT_GE(elapsed, delay);
}

TEST(Request, DeliveryExactlyAtTheDeadlineIsASuccess) {
  // The timeout contract is "not done strictly after the deadline":
  // a delivery landing on the boundary must count as completed, like
  // condition_variable::wait_until. (Regression: the old comparison
  // rejected ready_at == deadline.)
  auto request = std::make_shared<simmpi::RequestState>();
  const auto now = simmpi::Clock::now();
  request->fulfil(now + 20ms);
  EXPECT_TRUE(request->wait_until(now + 20ms));
}

TEST(Request, DeliveryAfterTheDeadlineFails) {
  auto request = std::make_shared<simmpi::RequestState>();
  const auto now = simmpi::Clock::now();
  request->fulfil(now + 60ms);
  EXPECT_FALSE(request->wait_until(now + 10ms));
  // The signal is matched (will arrive), just late for that budget.
  EXPECT_TRUE(request->finished());
  EXPECT_TRUE(request->wait_until(now + 60ms));
}

TEST(Request, CompletedRequestsSucceedWithAnExhaustedBudget) {
  auto request = std::make_shared<simmpi::RequestState>();
  request->fulfil(simmpi::Clock::now() - 1ms);  // already visible
  EXPECT_TRUE(request->wait_for(0ms));
  std::vector<simmpi::Request> requests{request};
  EXPECT_TRUE(simmpi::Communicator::wait_all_for(requests, 0ms));
}

TEST(Request, UnmatchedRequestTimesOut) {
  auto request = std::make_shared<simmpi::RequestState>();
  EXPECT_FALSE(request->wait_for(5ms));
  std::vector<simmpi::Request> requests{request};
  EXPECT_FALSE(simmpi::Communicator::wait_all_for(requests, 5ms));
}

TEST(Runtime, RanksSeeTheirIds) {
  std::vector<std::atomic<int>> hits(5);
  simmpi::run_ranks(5, [&](simmpi::RankContext& ctx) {
    EXPECT_EQ(ctx.size(), 5u);
    hits[ctx.rank()].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Runtime, ExceptionsPropagateAfterJoin) {
  EXPECT_THROW(simmpi::run_ranks(3,
                                 [](simmpi::RankContext& ctx) {
                                   if (ctx.rank() == 1) {
                                     throw Error("rank 1 failed");
                                   }
                                 }),
               Error);
}

TEST(Runtime, PingPongAcrossThreads) {
  std::atomic<bool> pong_seen{false};
  simmpi::run_ranks(2, [&](simmpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<simmpi::Request> reqs{ctx.issend(1, 0)};
      simmpi::RankContext::wait_all(reqs);
      std::vector<simmpi::Request> reply{ctx.irecv(1, 1)};
      simmpi::RankContext::wait_all(reply);
      pong_seen = true;
    } else {
      std::vector<simmpi::Request> reqs{ctx.irecv(0, 0)};
      simmpi::RankContext::wait_all(reqs);
      std::vector<simmpi::Request> reply{ctx.issend(0, 1)};
      simmpi::RankContext::wait_all(reply);
    }
  });
  EXPECT_TRUE(pong_seen.load());
}

TEST(Executor, RejectsNonBarrierPatterns) {
  Schedule s(2);
  oracle::StageMatrix m(2, 2, 0);
  m(0, 1) = 1;
  // One-way signal: not a barrier.
  s.append_stage(oracle::stage_from_matrix(m));
  EXPECT_THROW(simmpi::ScheduleExecutor{s}, Error);
}

TEST(Executor, PrecomputesOpLists) {
  const simmpi::ScheduleExecutor exec(tree_barrier(8));
  EXPECT_EQ(exec.ranks(), 8u);
  EXPECT_EQ(exec.stage_count(), 6u);
}

class ExecutorAlgorithms : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecutorAlgorithms, AllClassicBarriersRunToCompletion) {
  const std::size_t p = GetParam();
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p)}) {
    const simmpi::ScheduleExecutor exec(s);
    const auto exits = exec.run_once();
    ASSERT_EQ(exits.size(), p);
    for (const auto& exit_time : exits) {
      EXPECT_GT(exit_time.count(), 0);
    }
  }
}

TEST_P(ExecutorAlgorithms, DelayInjectionProvesSynchronization) {
  // Section VI: "each algorithm was tested P times for each problem
  // size, with each of the P participants introducing a 1-second delay
  // before calling the barrier. Observing the expected delay in the
  // execution time at every process verifies that all processes are
  // actually synchronized." Scaled down to 50 ms per delay to keep the
  // suite fast; we inject at two representative ranks instead of all P.
  const std::size_t p = GetParam();
  const auto delay = 50ms;
  const Schedule s = dissemination_barrier(p);
  const simmpi::ScheduleExecutor exec(s);
  for (std::size_t late : {std::size_t{0}, p - 1}) {
    std::vector<std::chrono::nanoseconds> delays(p, 0ns);
    delays[late] =
        std::chrono::duration_cast<std::chrono::nanoseconds>(delay);
    const auto exits = exec.run_once(simmpi::uniform_latency(), delays);
    for (std::size_t rank = 0; rank < p; ++rank) {
      EXPECT_GE(exits[rank], delays[late])
          << "rank " << rank << " exited before delayed rank " << late;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, ExecutorAlgorithms,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Executor, RepeatedEpisodesDoNotCrossMatch) {
  const Schedule s = tree_barrier(4);
  const simmpi::ScheduleExecutor exec(s);
  simmpi::Communicator comm(4);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    for (int episode = 0; episode < 5; ++episode) {
      exec.execute(ctx, episode);
    }
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(Executor, ProfileLatencyModelSlowsExecution) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 4);
  const Schedule s = tree_barrier(4);
  const simmpi::ScheduleExecutor exec(s);
  // Scale microsecond link costs up to ~10 ms so thread-scheduling noise
  // cannot mask them.
  const auto slow =
      exec.run_once(simmpi::profile_latency(profile, /*scale=*/1000.0));
  const auto fast = exec.run_once(simmpi::uniform_latency());
  const auto slow_max = *std::max_element(slow.begin(), slow.end());
  const auto fast_max = *std::max_element(fast.begin(), fast.end());
  EXPECT_GT(slow_max, fast_max);
}

TEST(Executor, MismatchedCommunicatorSizeThrows) {
  const simmpi::ScheduleExecutor exec(tree_barrier(4));
  simmpi::Communicator comm(3);
  EXPECT_THROW(simmpi::run_ranks(
                   comm, [&](simmpi::RankContext& ctx) { exec.execute(ctx); }),
               Error);
}

TEST(LatencyModels, ProfileLatencyMatchesOverheadMatrix) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 16);
  const auto model = simmpi::profile_latency(profile, 1.0);
  const auto ns = model(0, 8);
  EXPECT_NEAR(static_cast<double>(ns.count()), profile.o(0, 8) * 1e9, 1.0);
  EXPECT_EQ(simmpi::uniform_latency()(3, 5), 0ns);
}

}  // namespace
}  // namespace optibar
