// Failure-injection tests: rank crashes in the simulator (the Eq. 3
// guarantee viewed from the failure side — nobody escapes a barrier a
// dead rank never entered) and bounded waits in the thread runtime.
#include <gtest/gtest.h>

#include <chrono>

#include "barrier/algorithms.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;

TopologyProfile cluster_profile(std::size_t ranks) {
  const MachineSpec m = quad_cluster();
  return generate_profile(m, round_robin_mapping(m, ranks));
}

class CrashSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrashSweep, NoRankEscapesABarrierWithACrashedParticipant) {
  // The defining property of a barrier, inverted: if one participant
  // never arrives, every participant must stay inside.
  const std::size_t p = 12;
  const TopologyProfile profile = cluster_profile(p);
  const std::size_t crashed = GetParam() % p;
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p),
        pairwise_exchange_barrier(p)}) {
    SimOptions options;
    options.crashed_ranks = {crashed};
    const SimResult result = simulate(s, profile, options);
    EXPECT_TRUE(result.deadlocked);
    EXPECT_EQ(result.stuck_ranks.size(), p)
        << "some rank escaped with rank " << crashed << " dead";
    EXPECT_THROW(result.barrier_time(), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(CrashedRank, CrashSweep,
                         ::testing::Values(0, 1, 5, 11));

TEST(CrashInjection, TunedHybridAlsoBlocksEveryone) {
  const std::size_t p = 24;
  const TopologyProfile profile = cluster_profile(p);
  const TuneResult tuned = tune_barrier(profile);
  SimOptions options;
  options.crashed_ranks = {7};
  const SimResult result = simulate(tuned.schedule(), profile, options);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.stuck_ranks.size(), p);
}

TEST(CrashInjection, NonBarrierPatternsLeakSurvivors) {
  // Contrast: a one-way chain is not a barrier, so ranks with no
  // dependency on the dead rank do exit — the leak Eq. 3 exists to
  // prevent.
  const std::size_t p = 4;
  const TopologyProfile profile = cluster_profile(p);
  Schedule chain(p);  // 0 -> 1 -> 2 -> 3, no return path
  for (std::size_t s = 0; s + 1 < p; ++s) {
    oracle::StageMatrix m(p, p, 0);
    m(s, s + 1) = 1;
    chain.append_stage(oracle::stage_from_matrix(m));
  }
  ASSERT_FALSE(chain.is_barrier());
  SimOptions options;
  options.crashed_ranks = {3};  // kill the chain's tail
  const SimResult result = simulate(chain, profile, options);
  EXPECT_TRUE(result.deadlocked);
  // Ranks 0 and 1 finish their sends; rank 2's send to dead 3 never
  // matches (synchronous), so 2 and 3 are stuck.
  EXPECT_EQ(result.stuck_ranks, (std::vector<std::size_t>{2, 3}));
}

TEST(CrashInjection, MultipleCrashesAndValidation) {
  const std::size_t p = 8;
  const TopologyProfile profile = cluster_profile(p);
  SimOptions options;
  options.crashed_ranks = {1, 6};
  const SimResult result =
      simulate(dissemination_barrier(p), profile, options);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_EQ(result.stuck_ranks.size(), p);
  SimOptions bad;
  bad.crashed_ranks = {99};
  EXPECT_THROW(simulate(dissemination_barrier(p), profile, bad), Error);
}

TEST(CrashInjection, NoCrashMeansNoDeadlockFields) {
  const TopologyProfile profile = cluster_profile(8);
  const SimResult result = simulate(tree_barrier(8), profile);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.stuck_ranks.empty());
}

// ---- The shared fault model on the virtual-time engine ----

TEST(NetsimFaults, CrashAtStageZeroMatchesLegacyCrashedRanks) {
  // FaultPlan crash@0 is exactly the crashed_ranks semantics: the rank
  // never enters the barrier.
  const std::size_t p = 8;
  const TopologyProfile profile = cluster_profile(p);
  const Schedule s = dissemination_barrier(p);
  SimOptions legacy;
  legacy.crashed_ranks = {3};
  const SimResult expected = simulate(s, profile, legacy);
  SimOptions modern;
  modern.faults.crashes.push_back({3, 0});
  const SimResult actual = simulate(s, profile, modern);
  EXPECT_TRUE(actual.deadlocked);
  EXPECT_EQ(actual.stuck_ranks, expected.stuck_ranks);
}

TEST(NetsimFaults, CertainDropDeadlocksTheWholeBarrier) {
  const std::size_t p = 4;
  const TopologyProfile profile = cluster_profile(p);
  SimOptions options;
  options.faults.drops.push_back(
      {0, 1, ChannelFaultRule::kAnyTag, 1.0, 0.0});
  const SimResult result =
      simulate(dissemination_barrier(p), profile, options);
  EXPECT_TRUE(result.deadlocked);
  // One lost edge strands everyone — the Eq. 3 guarantee again.
  EXPECT_EQ(result.stuck_ranks.size(), p);
  EXPECT_THROW(result.barrier_time(), Error);
}

TEST(NetsimFaults, DuplicatesAndDelaysCompleteButCostTime) {
  const std::size_t p = 8;
  const TopologyProfile profile = cluster_profile(p);
  const Schedule s = tree_barrier(p);
  const SimResult clean = simulate(s, profile);
  SimOptions delayed;
  delayed.faults.delays.push_back({ChannelFaultRule::kAnyRank,
                                   ChannelFaultRule::kAnyRank,
                                   ChannelFaultRule::kAnyTag, 1.0, 1e-3});
  const SimResult slow = simulate(s, profile, delayed);
  EXPECT_FALSE(slow.deadlocked);
  // Virtual time is exact: a 1 ms spike on every message must show.
  EXPECT_GT(slow.barrier_time(), clean.barrier_time());
  SimOptions duplicated;
  duplicated.faults.duplicates.push_back({ChannelFaultRule::kAnyRank,
                                          ChannelFaultRule::kAnyRank,
                                          ChannelFaultRule::kAnyTag, 1.0,
                                          0.0});
  const SimResult ghosts = simulate(s, profile, duplicated);
  EXPECT_FALSE(ghosts.deadlocked);
  EXPECT_GE(ghosts.barrier_time(), clean.barrier_time());
}

TEST(NetsimFaults, EmptyFaultPlanIsBitIdentical) {
  // An empty plan must not even perturb the RNG stream.
  const std::size_t p = 12;
  const TopologyProfile profile = cluster_profile(p);
  const Schedule s = dissemination_barrier(p);
  SimOptions noisy;
  noisy.jitter = 0.05;
  SimOptions with_plan = noisy;
  with_plan.faults = FaultPlan{};
  const SimResult a = simulate(s, profile, noisy);
  const SimResult b = simulate(s, profile, with_plan);
  EXPECT_EQ(a.completion, b.completion);
}

// ---- Bounded waits on the thread runtime ----

TEST(BoundedWait, TimesOutOnAnUnmatchedSend) {
  simmpi::Communicator comm(2);
  auto request = comm.issend(0, 1, 0);  // no matching receive ever posted
  EXPECT_FALSE(request->wait_for(30ms));
  EXPECT_EQ(comm.unmatched_operations(), 1u);
}

TEST(BoundedWait, SucceedsOnMatchedPairs) {
  simmpi::Communicator comm(2);
  auto send = comm.issend(0, 1, 0);
  auto recv = comm.irecv(0, 1, 0);
  EXPECT_TRUE(send->wait_for(50ms));
  EXPECT_TRUE(recv->wait_for(50ms));
}

TEST(BoundedWait, WaitAllForCoversWholeSets) {
  simmpi::Communicator comm(3);
  std::vector<simmpi::Request> matched{comm.issend(0, 1, 0),
                                       comm.irecv(0, 1, 0)};
  EXPECT_TRUE(simmpi::Communicator::wait_all_for(matched, 50ms));
  std::vector<simmpi::Request> hung{comm.issend(0, 2, 1)};
  EXPECT_FALSE(simmpi::Communicator::wait_all_for(hung, 30ms));
}

TEST(BoundedWait, DetectsDeadPeerDuringBarrier) {
  // Rank 2 "dies" (never participates); the survivors detect the hang
  // via bounded waits instead of blocking forever, and agree on it.
  const Schedule s = dissemination_barrier(3);
  simmpi::Communicator comm(3);
  std::vector<int> timed_out(3, 0);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    if (ctx.rank() == 2) {
      return;  // crashed before the barrier
    }
    std::vector<simmpi::Request> requests;
    for (std::size_t stage = 0; stage < s.stage_count(); ++stage) {
      for (std::size_t dst : s.targets_of(ctx.rank(), stage)) {
        requests.push_back(ctx.issend(dst, static_cast<int>(stage)));
      }
      for (std::size_t src : s.sources_of(ctx.rank(), stage)) {
        requests.push_back(ctx.irecv(src, static_cast<int>(stage)));
      }
      if (!simmpi::Communicator::wait_all_for(requests, 50ms)) {
        timed_out[ctx.rank()] = 1;
        return;
      }
      requests.clear();
    }
  });
  EXPECT_EQ(timed_out[0], 1);
  EXPECT_EQ(timed_out[1], 1);
}

}  // namespace
}  // namespace optibar
