// Tests for the one-sided RMA subsystem: the Window surface over the
// communicator's flag board, epoch double-buffering across many
// episodes without reset barriers, mixed-transport schedule execution
// on the threaded runtime, the nonblocking handle lifecycle over RMA
// edges, window slots keyed by the receiver's in-edge ordinal (a
// single-thread stepping test and the paper-scale window size),
// putdrop fault surfacing, transport assignment policies, the
// hybrid-beats-classic acceptance sweep on the hex preset with netsim
// agreeing on the ordering, and the differential test that pins the
// edge-patching transport tuner to the per-flip-recompile oracle.
#include "rma/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "barrier/schedule.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "rma/layout.hpp"
#include "rma/transport.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;
using simmpi::Communicator;
using simmpi::RankContext;
using simmpi::ResilienceOptions;
using simmpi::ScheduleExecutor;
using simmpi::StallReport;

simmpi::LatencyModel zero_latency() {
  return [](std::size_t, std::size_t) { return std::chrono::nanoseconds(0); };
}

/// Tag every signal of `schedule` one-sided.
void tag_all(Schedule& schedule) {
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    schedule.set_all_one_sided(s, true);
  }
}

/// Tag exactly the edge (stage, src, dst) one-sided.
void tag_edge(Schedule& schedule, std::size_t stage, std::size_t src,
              std::size_t dst) {
  oracle::StageMatrix transport(schedule.ranks(), schedule.ranks(), 0);
  transport(src, dst) = 1;
  oracle::set_transport(schedule, stage, std::move(transport));
}

ResilienceOptions fast_options() {
  ResilienceOptions options;
  options.max_retries = 0;
  options.deadline_floor = 15ms;
  return options;
}

TEST(RmaLayout, DoubleBufferedWordsAndFlags) {
  const std::size_t slots = 5;
  EXPECT_EQ(rma::words_per_rank(slots), 10u);  // 2 epochs x 5 slots
  // Consecutive episodes use disjoint epoch buffers; distance-2
  // episodes reuse the buffer but signal a different flag value, so a
  // stale flag can never satisfy a later wait.
  const std::size_t w0 = rma::word_index(0, 3, slots);
  const std::size_t w1 = rma::word_index(1, 3, slots);
  const std::size_t w2 = rma::word_index(2, 3, slots);
  EXPECT_NE(w0, w1);
  EXPECT_EQ(w0, w2);
  // Every slot of one episode lies inside the window and apart from
  // every slot of the next.
  for (std::size_t a = 0; a < slots; ++a) {
    EXPECT_LT(rma::word_index(1, a, slots), rma::words_per_rank(slots));
    for (std::size_t b = 0; b < slots; ++b) {
      EXPECT_NE(rma::word_index(0, a, slots), rma::word_index(1, b, slots));
      EXPECT_EQ(rma::word_index(0, a, slots) == rma::word_index(0, b, slots),
                a == b);
    }
  }
  EXPECT_NE(rma::flag_value(0), rma::flag_value(2));
  EXPECT_EQ(rma::flag_value(5), 6u);
}

TEST(RmaWindow, PutBecomesVisibleAtTheTarget) {
  Communicator comm(2, zero_latency());
  rma::Window window(comm, 4);
  EXPECT_EQ(window.slots(), 4u);
  EXPECT_FALSE(window.test(1, 0, 2));
  window.put(0, 1, 0, 2);
  EXPECT_TRUE(window.test(1, 0, 2));
  EXPECT_EQ(window.read(1, 0, 2), rma::Window::flag_value(0));
  // The source's own copy is untouched: puts are remote stores.
  EXPECT_FALSE(window.test(0, 0, 2));
}

TEST(RmaWindow, FetchAddAndCompareAndSwapRoundTrip) {
  Communicator comm(2, zero_latency());
  rma::Window window(comm, 2);
  EXPECT_EQ(window.fetch_add(0, 1, 0, 0, 5), 0u);
  EXPECT_EQ(window.fetch_add(0, 1, 0, 0, 3), 5u);
  EXPECT_EQ(window.read(1, 0, 0), 8u);
  // CAS stores only on a match and returns the previous value either way.
  EXPECT_EQ(window.compare_and_swap(0, 1, 0, 0, 8, 100), 8u);
  EXPECT_EQ(window.read(1, 0, 0), 100u);
  EXPECT_EQ(window.compare_and_swap(0, 1, 0, 0, 8, 7), 100u);
  EXPECT_EQ(window.read(1, 0, 0), 100u);
}

TEST(RmaWindow, WaitCollectsAllSlots) {
  Communicator comm(3, zero_latency());
  rma::Window window(comm, 3);
  window.put(0, 2, 0, 0);
  window.put(1, 2, 0, 1);
  const std::array<std::size_t, 2> slots{0, 1};
  EXPECT_TRUE(window.wait(2, 0, slots, simmpi::Clock::now() + 100ms));
  // Slot 2 was never signalled: the bounded wait gives up.
  const std::array<std::size_t, 1> missing{2};
  EXPECT_FALSE(window.wait(2, 0, missing, simmpi::Clock::now() + 20ms));
}

TEST(RmaWindow, SharedKeyAttachesTheSameRegion) {
  Communicator comm(2, zero_latency());
  rma::Window a(comm, 0xbeef, 4);
  rma::Window b(comm, 0xbeef, 4);
  EXPECT_EQ(a.base(), b.base());
  // A different key allocates fresh words.
  rma::Window c(comm, 0xcafe, 4);
  EXPECT_NE(a.base(), c.base());
  // Same key with a different size is a caller bug.
  EXPECT_THROW(rma::Window(comm, 0xbeef, 8), Error);
}

TEST(RmaWindow, EpochParityReusesBuffers) {
  Communicator comm(2, zero_latency());
  rma::Window window(comm, 1);
  window.put(0, 1, 0, 0);  // episode 0 -> epoch buffer 0, flag 1
  window.put(0, 1, 1, 0);  // episode 1 -> epoch buffer 1, flag 2
  EXPECT_TRUE(window.test(1, 0, 0));
  EXPECT_TRUE(window.test(1, 1, 0));
  // Episode 2 reuses buffer 0 but expects flag 3: the stale flag from
  // episode 0 does not satisfy it until the new put lands.
  EXPECT_FALSE(window.test(1, 2, 0));
  window.put(0, 1, 2, 0);
  EXPECT_TRUE(window.test(1, 2, 0));
}

TEST(RmaExecutor, FullyOneSidedBarrierSynchronizes) {
  Schedule schedule = dissemination_barrier(6);
  tag_all(schedule);
  const ScheduleExecutor executor(schedule);
  const auto exits = executor.run_once();
  EXPECT_EQ(exits.size(), 6u);
  // The paper's delay-injection check: a late rank delays every exit.
  const auto delayed = executor.run_once(
      simmpi::uniform_latency(),
      {30ms, 0ms, 0ms, 0ms, 0ms, 0ms});
  for (const auto exit : delayed) {
    EXPECT_GE(exit, 30ms);
  }
}

TEST(RmaExecutor, MixedTransportEpisodeSynchronizes) {
  Schedule schedule = dissemination_barrier(6);
  // Stage 0 travels one-sided, later stages stay two-sided: both
  // mechanisms must interlock within one episode.
  schedule.set_all_one_sided(0, true);
  const ScheduleExecutor executor(schedule);
  const auto delayed = executor.run_once(
      simmpi::uniform_latency(),
      {0ms, 0ms, 0ms, 30ms, 0ms, 0ms});
  ASSERT_EQ(delayed.size(), 6u);
  for (const auto exit : delayed) {
    EXPECT_GE(exit, 30ms);
  }
}

TEST(RmaExecutor, ThousandEpisodeEpochReuseOnPooledRanks) {
  // 1000 back-to-back episodes on ONE communicator, pooled rank
  // workers, no reset barrier between episodes: the double-buffered
  // epochs must never let a stale flag complete a later episode (a
  // stale-flag bug shows up as an early exit that deadlocks a peer or
  // trips the executor's asserts).
  const std::size_t p = 4;
  Schedule schedule = dissemination_barrier(p);
  tag_all(schedule);
  const ScheduleExecutor executor(schedule);
  Communicator comm(p, zero_latency());
  simmpi::RankPool pool(p);
  simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
    for (int episode = 0; episode < 1000; ++episode) {
      executor.execute(ctx, episode);
    }
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(RmaExecutor, HandleLifecycleOverRmaEdges) {
  // post/test/wait across mixed transports: episode 0 polled to
  // completion with test(), episode 1 parked out with wait().
  Schedule schedule = dissemination_barrier(4);
  schedule.set_all_one_sided(1, true);
  const ScheduleExecutor executor(schedule);
  Communicator comm(4, zero_latency());
  simmpi::run_ranks(comm, [&](RankContext& ctx) {
    ScheduleExecutor::EpisodeHandle polled = executor.post(ctx, 0);
    while (!executor.test(polled)) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(polled.done());
    ScheduleExecutor::EpisodeHandle parked = executor.post(ctx, 1);
    executor.wait(parked);
    EXPECT_TRUE(parked.done());
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

/// Two ranks, three one-sided stages 0->1, 1->0, 0->1: rank 1 awaits
/// two puts from the same source, which must land in different slots.
Schedule ping_pong_ping() {
  Schedule schedule(2);
  for (const auto [src, dst] : {std::array<std::size_t, 2>{0, 1},
                                std::array<std::size_t, 2>{1, 0},
                                std::array<std::size_t, 2>{0, 1}}) {
    oracle::StageMatrix stage(2, 2, 0);
    stage(src, dst) = 1;
    schedule.append_stage(oracle::stage_from_matrix(stage));
  }
  tag_all(schedule);
  return schedule;
}

TEST(RmaExecutor, SlotsSeparateStagesOfOneSource) {
  // Stepped from one thread: rank 1 may finish only after rank 0 has
  // issued its stage-2 put. A window keyed by source alone would let
  // the stage-0 flag satisfy the stage-2 wait as well.
  const Schedule schedule = ping_pong_ping();
  ASSERT_TRUE(schedule.is_barrier());
  const ScheduleExecutor executor(schedule);
  Communicator comm(2, zero_latency());
  RankContext rank0(comm, 0);
  RankContext rank1(comm, 1);
  ScheduleExecutor::EpisodeHandle h0 = executor.post(rank0, 0);
  ScheduleExecutor::EpisodeHandle h1 = executor.post(rank1, 0);
  EXPECT_FALSE(executor.test(h1));
  for (int sweep = 0; sweep < 8 && !(h0.done() && h1.done()); ++sweep) {
    executor.test(h0);
    executor.test(h1);
  }
  EXPECT_TRUE(h0.done());
  EXPECT_TRUE(h1.done());
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(RmaExecutor, ResilientSlotsSeparateStagesOfOneSource) {
  // The same steps through the bounded-wait lifecycle. A zero-width
  // resilient slice advances at most one stage, so rank 1 gets one
  // test() per stage: enough to reach stage 2, not to pass it.
  const Schedule schedule = ping_pong_ping();
  const ScheduleExecutor executor(schedule);
  Communicator comm(2, zero_latency());
  RankContext rank0(comm, 0);
  RankContext rank1(comm, 1);
  StallReport report;
  report.reset(2, schedule.stage_count());
  const ResilienceOptions options;
  ScheduleExecutor::ResilientEpisodeHandle h0 =
      executor.post_resilient(rank0, options, report, 0);
  ScheduleExecutor::ResilientEpisodeHandle h1 =
      executor.post_resilient(rank1, options, report, 0);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    EXPECT_FALSE(executor.test(h1)) << "after " << s + 1 << " test() calls";
  }
  for (int sweep = 0; sweep < 16 && !(h0.done() && h1.done()); ++sweep) {
    executor.test(h0);
    executor.test(h1);
  }
  EXPECT_TRUE(h0.succeeded());
  EXPECT_TRUE(h1.succeeded());
  report.per_rank[0].finished = h0.succeeded();
  report.per_rank[1].finished = h1.succeeded();
  report.finalize();
  EXPECT_FALSE(report.stalled);
  // Rank 1 heard both of rank 0's puts, one per stage.
  EXPECT_EQ(report.per_rank[1].delivered.size(), 2u);
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(RmaExecutor, WindowHoldsTwiceTheLargestPutInDegree) {
  // The paper-scale hybrid plan: the executor's window region must be
  // two epoch buffers of the busiest receiver's one-sided in-degree,
  // not of stages x ranks.
  const MachineSpec m = hex_cluster(10);
  const std::size_t p = m.total_cores();
  const TuneResult tuned = tune_barrier(
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{}), {});
  Schedule schedule = tuned.schedule();
  rma::assign_transports(schedule, tuned.profile(),
                         tuned.barrier().awaited_stages,
                         rma::Transport::kHybrid);
  ASSERT_TRUE(schedule.has_one_sided());
  std::size_t max_in_puts = 0;
  for (std::size_t r = 0; r < p; ++r) {
    std::size_t in_puts = 0;
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      for (std::size_t src : schedule.sources_of(r, s)) {
        in_puts += schedule.one_sided(s, src, r) ? 1 : 0;
      }
    }
    max_in_puts = std::max(max_in_puts, in_puts);
  }
  const ScheduleExecutor executor(schedule);
  Communicator comm(p, zero_latency());
  std::vector<RankContext> contexts;
  contexts.reserve(p);
  for (std::size_t r = 0; r < p; ++r) {
    contexts.emplace_back(comm, r);
  }
  std::vector<ScheduleExecutor::EpisodeHandle> handles;
  for (std::size_t r = 0; r < p; ++r) {
    handles.push_back(executor.post(contexts[r], 0));
  }
  EXPECT_EQ(comm.rma_words(), 2 * max_in_puts);
  std::cout << "[          ] P=" << p << " hybrid plan: "
            << schedule.one_sided_signal_count() << " puts, "
            << comm.rma_words() << " window words per rank, not 2 x "
            << schedule.stage_count() << " stages x P = "
            << 2 * schedule.stage_count() * p << "\n";
  std::size_t remaining = p;
  for (std::size_t sweep = 0; remaining > 0 && sweep < 64; ++sweep) {
    remaining = 0;
    for (ScheduleExecutor::EpisodeHandle& handle : handles) {
      remaining += executor.test(handle) ? 0 : 1;
    }
  }
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(RmaExecutor, DroppedPutSurfacesOnTheReceiver) {
  const std::size_t p = 6;
  Schedule schedule = dissemination_barrier(p);
  tag_edge(schedule, 0, 0, 1);
  const ScheduleExecutor executor(schedule);
  FaultPlan plan;
  plan.putdrops.push_back({0, 1, 0, 1.0, 0.0});
  const StallReport report =
      executor.run_once_resilient(fast_options(), plan);
  EXPECT_TRUE(report.stalled);
  EXPECT_TRUE(report.names_edge(0, 0, 1));
  const simmpi::RankStall& victim = report.per_rank[1];
  EXPECT_FALSE(victim.finished);
  EXPECT_EQ(victim.stage_reached, 0u);
  ASSERT_EQ(victim.pending_put_from.size(), 1u);
  EXPECT_EQ(victim.pending_put_from[0], 0u);
  // The fire-and-forget sender has nothing pending: it completed at
  // issue and never learns of the drop.
  EXPECT_TRUE(report.per_rank[0].pending_send_to.empty());
  // The human rendering points at the one-sided flag.
  EXPECT_NE(report.describe().find("one-sided flag"), std::string::npos);
}

TEST(RmaExecutor, PutdropReportsAreBitReproducible) {
  Schedule schedule = dissemination_barrier(6);
  tag_all(schedule);
  const ScheduleExecutor executor(schedule);
  const FaultPlan plan = FaultPlan::parse("seed=11;putdrop=*>*@*:0.4");
  const ResilienceOptions options = fast_options();
  const StallReport first = executor.run_once_resilient(options, plan);
  const StallReport second = executor.run_once_resilient(options, plan);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first.stalled);
}

/// Which branches of reference_assign_transports() ran, summed over a
/// corpus, so the differential test can show it exercised every one.
struct ReferenceBranches {
  std::size_t accepted_flips = 0;    ///< descent flips kept
  std::size_t late_accepts = 0;      ///< of those, kept in pass >= 2
  std::size_t one_sided_starts = 0;  ///< all-one-sided start was cheaper
  std::size_t two_sided_starts = 0;  ///< all-two-sided start kept
  std::size_t untags = 0;            ///< normalization untags kept
};

/// The oracle: the same descent priced the direct way. Every candidate
/// tagging is written into the Schedule and priced by
/// predicted_time(schedule, ...), which recompiles the whole schedule;
/// assign_transports() must reach the same cost and tagging by patching
/// one compiled edge per flip. Only the branch counters are added.
double reference_assign_transports(Schedule& schedule,
                                   const TopologyProfile& profile,
                                   const std::vector<bool>& awaited_stages,
                                   rma::Transport policy,
                                   ReferenceBranches& branches) {
  constexpr int kMaxHybridPasses = 3;
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  PredictOptions options;
  options.awaited_stages = awaited_stages;
  const auto cost = [&] { return predicted_time(schedule, profile, options); };
  const auto clear_all = [&] {
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      oracle::set_transport(schedule, s, oracle::StageMatrix(p, p, 0));
    }
  };
  const auto tag_all = [&] {
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      schedule.set_all_one_sided(s, true);
    }
  };

  if (policy == rma::Transport::kTwoSided) {
    clear_all();
    return cost();
  }
  if (policy == rma::Transport::kOneSided) {
    tag_all();
    return cost();
  }

  clear_all();
  double best = cost();
  tag_all();
  const double all_one_sided = cost();
  if (all_one_sided < best) {
    best = all_one_sided;
    ++branches.one_sided_starts;
  } else {
    clear_all();
    ++branches.two_sided_starts;
  }
  for (int pass = 0; pass < kMaxHybridPasses; ++pass) {
    bool improved = false;
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      const oracle::StageMatrix stage = oracle::stage_matrix(schedule, s);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          if (!stage(i, j)) {
            continue;
          }
          const oracle::StageMatrix before =
              oracle::transport_matrix(schedule, s);
          oracle::StageMatrix flipped = before;
          flipped(i, j) = flipped(i, j) ? 0 : 1;
          oracle::set_transport(schedule, s, std::move(flipped));
          const double flipped_cost = cost();
          if (flipped_cost < best) {
            best = flipped_cost;
            improved = true;
            ++branches.accepted_flips;
            branches.late_accepts += pass >= 1 ? 1 : 0;
          } else {
            oracle::set_transport(schedule, s, before);
          }
        }
      }
    }
    if (!improved) {
      break;
    }
  }
  for (bool changed = true; changed && schedule.has_one_sided();) {
    changed = false;
    for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          if (!schedule.one_sided(s, i, j)) {
            continue;
          }
          const oracle::StageMatrix before =
              oracle::transport_matrix(schedule, s);
          oracle::StageMatrix untagged = before;
          untagged(i, j) = 0;
          oracle::set_transport(schedule, s, std::move(untagged));
          const double untagged_cost = cost();
          if (untagged_cost <= best) {
            best = untagged_cost;
            changed = true;
            ++branches.untags;
          } else {
            oracle::set_transport(schedule, s, before);
          }
        }
      }
    }
  }
  return best;
}

TEST(RmaTransport, PolicyNamesRoundTrip) {
  for (const rma::Transport t :
       {rma::Transport::kTwoSided, rma::Transport::kOneSided,
        rma::Transport::kHybrid}) {
    EXPECT_EQ(rma::parse_transport(rma::transport_name(t)), t);
  }
  EXPECT_THROW(rma::parse_transport("carrier-pigeon"), Error);
}

TEST(RmaTransport, TwoSidedAssignmentIsBitIdenticalToClassic) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 8), GenerateOptions{});
  Schedule schedule = dissemination_barrier(8);
  const std::vector<bool> awaited(schedule.stage_count(), true);
  PredictOptions predict;
  predict.awaited_stages = awaited;
  const double classic = predicted_time(schedule, profile, predict);
  const double assigned = rma::assign_transports(
      schedule, profile, awaited, rma::Transport::kTwoSided);
  EXPECT_EQ(assigned, classic);  // bit-identical, not approximately
  EXPECT_FALSE(schedule.has_one_sided());
}

TEST(RmaTransport, HybridIsNeverWorseThanEitherUniform) {
  const MachineSpec m = hex_cluster(2);
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 12), GenerateOptions{});
  const Schedule base = dissemination_barrier(12);
  const std::vector<bool> awaited(base.stage_count(), true);
  Schedule two = base;
  Schedule one = base;
  Schedule hybrid = base;
  const double two_cost =
      rma::assign_transports(two, profile, awaited, rma::Transport::kTwoSided);
  const double one_cost =
      rma::assign_transports(one, profile, awaited, rma::Transport::kOneSided);
  const double hybrid_cost = rma::assign_transports(
      hybrid, profile, awaited, rma::Transport::kHybrid);
  EXPECT_LE(hybrid_cost, two_cost);
  EXPECT_LE(hybrid_cost, one_cost);
}

TEST(RmaTransport, ProfileWithoutRDataStaysTwoSided) {
  // A flat profile without R data prices puts at the conservative L
  // fallback and gains nothing from the startup swap (O is uniform),
  // so the enumeration's simplest-policy tie-break must return the
  // untagged schedule, bit-identical to plain tune_barrier().
  Matrix<double> o(4, 4);
  Matrix<double> l(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      o(i, j) = 1e-6;
      l(i, j) = i == j ? 0.0 : 1e-6;
    }
  }
  const TopologyProfile flat(std::move(o), std::move(l));
  ASSERT_FALSE(flat.has_rma_latency());
  const rma::TransportTune best = rma::tune_best_transport(flat, {});
  EXPECT_EQ(best.transport, rma::Transport::kTwoSided);
  EXPECT_EQ(best.one_sided_signals, 0u);
  EXPECT_EQ(best.cost, best.tuned.predicted_cost());  // bit-identical
  EXPECT_FALSE(best.schedule.has_one_sided());
}

TEST(RmaTransport, HybridBeatsClassicOnHexPreset) {
  // The acceptance sweep: on the hex preset the tuner must find a
  // genuinely mixed schedule whose predicted cost beats the best
  // all-two-sided schedule, and netsim must agree on the ordering.
  const MachineSpec m = hex_cluster(4);
  const std::size_t p = m.total_cores();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  ASSERT_TRUE(profile.has_rma_latency());
  const rma::TransportTune best = rma::tune_best_transport(profile, {});
  EXPECT_LT(best.cost, best.tuned.predicted_cost());
  // Mixed, not uniform: some signals stay two-sided (intra-node, where
  // the loopback put round loses to shared-memory completion) and some
  // go one-sided (inter-node RDMA).
  EXPECT_GT(best.one_sided_signals, 0u);
  std::size_t total_signals = 0;
  for (std::size_t s = 0; s < best.schedule.stage_count(); ++s) {
    total_signals += best.schedule.stage(s).size();
  }
  EXPECT_LT(best.one_sided_signals, total_signals);

  // Both netsim engines agree with the predictor's ordering and with
  // each other, bit for bit.
  const TopologyProfile& tuned_profile = best.tuned.profile();
  const SimOptions options;
  const SimResult classic =
      simulate(best.tuned.schedule(), tuned_profile, options);
  const SimResult hybrid = simulate(best.schedule, tuned_profile, options);
  EXPECT_LT(hybrid.completion_time(), classic.completion_time());
  const SimResult hybrid_ref =
      simulate_reference(best.schedule, tuned_profile, options);
  ASSERT_EQ(hybrid.completion.size(), hybrid_ref.completion.size());
  for (std::size_t rank = 0; rank < hybrid.completion.size(); ++rank) {
    EXPECT_EQ(hybrid.completion[rank], hybrid_ref.completion[rank]) << rank;
  }
}

TEST(RmaTransport, PatchingTunerMatchesRecompilingReference) {
  // Every policy, on tuned plans and classic algorithms over the quad
  // and hex presets, must return the oracle's cost bit for bit and the
  // identical tagged Schedule; the corpus must reach every branch of
  // the hybrid descent.
  ReferenceBranches branches;
  std::size_t hybrid_cases = 0;
  std::size_t mismatches = 0;
  const auto check = [&](const Schedule& base, const TopologyProfile& profile,
                         const std::vector<bool>& awaited,
                         const std::string& label) {
    for (const rma::Transport policy :
         {rma::Transport::kTwoSided, rma::Transport::kOneSided,
          rma::Transport::kHybrid}) {
      Schedule expected = base;
      Schedule patched = base;
      const double expected_cost = reference_assign_transports(
          expected, profile, awaited, policy, branches);
      const double patched_cost =
          rma::assign_transports(patched, profile, awaited, policy);
      if (patched_cost != expected_cost || !(patched == expected)) {
        ++mismatches;
        ADD_FAILURE() << label << " " << rma::transport_name(policy) << ": "
                      << patched_cost << " vs " << expected_cost;
      }
      hybrid_cases += policy == rma::Transport::kHybrid ? 1 : 0;
    }
  };

  Rng rng(16);
  for (const bool hex : {false, true}) {
    for (std::size_t nodes = 1; nodes <= 6; ++nodes) {
      const MachineSpec m = hex ? hex_cluster(nodes) : quad_cluster(nodes);
      const std::size_t max_p = m.total_cores();
      for (const std::size_t p : {std::size_t{2}, std::size_t{5}, max_p / 2,
                                  max_p}) {
        const std::string label = (hex ? "hex " : "quad ") +
                                  std::to_string(nodes) + "x P=" +
                                  std::to_string(p);
        const TopologyProfile profile = generate_profile(
            m, round_robin_mapping(m, p), GenerateOptions{});
        const TuneResult tuned = tune_barrier(profile, {});
        check(tuned.schedule(), tuned.profile(),
              tuned.barrier().awaited_stages, label + " tuned");
        for (const Schedule& classic : {dissemination_barrier(p),
                                        tree_barrier(p), linear_barrier(p)}) {
          check(classic, profile, {}, label + " classic");
          std::vector<bool> awaited(classic.stage_count());
          for (std::size_t s = 0; s < awaited.size(); ++s) {
            awaited[s] = rng.next_below(2) != 0;
          }
          check(classic, profile, awaited, label + " classic, random awaited");
        }
      }
    }
  }
  // The paper-scale plan: hex_cluster(10), all 120 cores.
  const MachineSpec paper = hex_cluster(10);
  const TopologyProfile paper_profile = generate_profile(
      paper, round_robin_mapping(paper, paper.total_cores()),
      GenerateOptions{});
  const TuneResult paper_tuned = tune_barrier(paper_profile, {});
  check(paper_tuned.schedule(), paper_tuned.profile(),
        paper_tuned.barrier().awaited_stages, "hex 10x P=120 tuned");

  EXPECT_EQ(mismatches, 0u) << "of " << hybrid_cases << " hybrid cases";
  EXPECT_GT(branches.accepted_flips, 0u);
  EXPECT_GT(branches.late_accepts, 0u);
  EXPECT_GT(branches.one_sided_starts, 0u);
  EXPECT_GT(branches.two_sided_starts, 0u);
  EXPECT_GT(branches.untags, 0u);
  std::cout << "[          ] " << hybrid_cases << " hybrid cases, "
            << mismatches << " mismatches; branch hits: "
            << branches.accepted_flips << " accepted flips, "
            << branches.late_accepts << " in pass >= 2, "
            << branches.one_sided_starts << " one-sided starts, "
            << branches.two_sided_starts << " two-sided starts, "
            << branches.untags << " untags\n";
}

}  // namespace
}  // namespace optibar
