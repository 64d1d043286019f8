// Tests for the discrete-event barrier engine: determinism, agreement
// with the analytic model in degenerate cases, synchronized-send
// coupling, noise behaviour, and the paper's delay-injection
// synchronization check (Section VI).
#include "netsim/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace optibar {
namespace {

TopologyProfile uniform_profile(std::size_t p, double o, double l) {
  Matrix<double> om(p, p, o);
  Matrix<double> lm(p, p, l);
  for (std::size_t i = 0; i < p; ++i) {
    om(i, i) = o / 10;
    lm(i, i) = 0.0;
  }
  return TopologyProfile(std::move(om), std::move(lm));
}

TEST(Netsim, SingleRankCompletesInstantly) {
  const SimResult r = simulate(Schedule(1), uniform_profile(1, 1e-5, 1e-6));
  EXPECT_DOUBLE_EQ(r.barrier_time(), 0.0);
}

TEST(Netsim, SingleSignalTakesO) {
  const TopologyProfile p = uniform_profile(2, 1e-5, 1e-6);
  Schedule s(2);
  oracle::StageMatrix m0(2, 2, 0);
  m0(1, 0) = 1;
  oracle::StageMatrix m1(2, 2, 0);
  m1(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m0));
  s.append_stage(oracle::stage_from_matrix(m1));
  const SimResult r = simulate(s, p);
  // Two sequential one-message hops, each costing O (injection)
  // plus L (receive completion processing).
  EXPECT_DOUBLE_EQ(r.barrier_time(), 2 * 1.1e-5);
}

TEST(Netsim, SerialInjectionAddsLPerExtraMessage) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 1e-6);
  // Rank 0 fans out to 1,2,3 in a single stage; rank 3's signal is
  // injected at O + 2L.
  Schedule s(4);
  oracle::StageMatrix m(4, 4, 0);
  m(0, 1) = m(0, 2) = m(0, 3) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  SimOptions opts;
  opts.record_trace = true;
  const SimResult r = simulate(s, p, opts);
  // Last injection at O + 2L, plus that receiver's processing L.
  EXPECT_DOUBLE_EQ(r.barrier_time(), 1e-5 + 3e-6);
  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_DOUBLE_EQ(r.trace[0].injected, 1e-5);
  EXPECT_DOUBLE_EQ(r.trace[1].injected, 1.1e-5);
  EXPECT_DOUBLE_EQ(r.trace[2].injected, 1.2e-5);
  // Each match completes one processing latency after its injection.
  EXPECT_DOUBLE_EQ(r.trace[0].matched, 1.1e-5);
}

TEST(Netsim, DeterministicForFixedSeed) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile p =
      generate_profile(m, round_robin_mapping(m, 24), GenerateOptions{});
  SimOptions opts;
  opts.jitter = 0.1;
  opts.seed = 1234;
  const Schedule s = tree_barrier(24);
  const SimResult a = simulate(s, p, opts);
  const SimResult b = simulate(s, p, opts);
  EXPECT_EQ(a.completion, b.completion);
}

TEST(Netsim, DifferentSeedsDifferUnderNoise) {
  const TopologyProfile p = uniform_profile(8, 1e-5, 1e-6);
  SimOptions a;
  a.jitter = 0.1;
  a.seed = 1;
  SimOptions b = a;
  b.seed = 2;
  const Schedule s = dissemination_barrier(8);
  EXPECT_NE(simulate(s, p, a).barrier_time(),
            simulate(s, p, b).barrier_time());
}

TEST(Netsim, NoNoiseMeansNoiseOptionsIrrelevant) {
  const TopologyProfile p = uniform_profile(8, 1e-5, 1e-6);
  const Schedule s = tree_barrier(8);
  SimOptions a;
  a.seed = 1;
  SimOptions b;
  b.seed = 999;
  EXPECT_EQ(simulate(s, p, a).completion, simulate(s, p, b).completion);
}

class NetsimAlgorithms : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetsimAlgorithms, AllRanksCompleteAllAlgorithms) {
  const std::size_t p = GetParam();
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p),
        pairwise_exchange_barrier(p), heap_tree_barrier(p)}) {
    const SimResult r = simulate(s, profile);
    ASSERT_EQ(r.completion.size(), p);
    for (double c : r.completion) {
      EXPECT_GT(c, 0.0);
      EXPECT_TRUE(std::isfinite(c));
    }
  }
}

TEST_P(NetsimAlgorithms, DelayInjectionShowsSynchronization) {
  // The paper's correctness check: delay one rank's entry by a large
  // constant; every rank's exit must then be >= that constant, because
  // no participant may leave before all have entered.
  const std::size_t p = GetParam();
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  const double delay = 1.0;  // one virtual second, enormous vs link costs
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p)}) {
    for (std::size_t late = 0; late < p; ++late) {
      SimOptions opts;
      opts.entry_times.assign(p, 0.0);
      opts.entry_times[late] = delay;
      const SimResult r = simulate(s, profile, opts);
      for (std::size_t rank = 0; rank < p; ++rank) {
        EXPECT_GE(r.completion[rank], delay)
            << "rank " << rank << " left before late rank " << late
            << " arrived (P=" << p << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, NetsimAlgorithms,
                         ::testing::Values(2, 3, 4, 7, 8, 12, 16));

TEST(Netsim, MeasuredTracksPredictedShape) {
  // The fine model and the coarse model must agree on ordering for the
  // classic algorithms at scale (this is Figures 5/6's core claim).
  const MachineSpec m = quad_cluster();
  const std::size_t p = 56;
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  const double sim_linear = simulate(linear_barrier(p), profile).barrier_time();
  const double sim_tree = simulate(tree_barrier(p), profile).barrier_time();
  const double pred_linear = predicted_time(linear_barrier(p), profile);
  const double pred_tree = predicted_time(tree_barrier(p), profile);
  EXPECT_LT(sim_tree, sim_linear);
  EXPECT_LT(pred_tree, pred_linear);
}

TEST(Netsim, SynchronousSendsCoupleSenderToReceiver) {
  // With Issend semantics a sender cannot finish a stage before its
  // receiver has entered it; with eager sends it can.
  const TopologyProfile p = uniform_profile(3, 1e-5, 1e-6);
  // Stage 0: 1 -> 2 (slowly: rank 2 enters late). Rank 0 idles.
  // Stage 1: 1 -> 0.
  Schedule s(3);
  oracle::StageMatrix m0(3, 3, 0);
  m0(1, 2) = 1;
  m0(2, 1) = 1;
  oracle::StageMatrix m1(3, 3, 0);
  m1(1, 0) = 1;
  m1(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m0));
  s.append_stage(oracle::stage_from_matrix(m1));
  SimOptions sync;
  sync.entry_times = {0.0, 0.0, 5e-4};
  sync.synchronous_sends = true;
  SimOptions eager = sync;
  eager.synchronous_sends = false;
  const SimResult rs = simulate(s, p, sync);
  const SimResult re = simulate(s, p, eager);
  // Rank 1 is blocked on rank 2's late entry either way (it must also
  // receive), but rank 0's completion differs: under eager sends rank
  // 1's stage-1 message to 0 is not gated by matching.
  EXPECT_GE(rs.completion[0], 5e-4);
  EXPECT_GE(re.completion[1], 5e-4);
}

TEST(Netsim, SpikesOnlyIncreaseTime) {
  const TopologyProfile p = uniform_profile(16, 1e-5, 1e-6);
  const Schedule s = dissemination_barrier(16);
  const double base = simulate(s, p).barrier_time();
  SimOptions spiky;
  spiky.spike_probability = 0.2;
  spiky.spike_scale = 10.0;
  spiky.seed = 5;
  EXPECT_GT(simulate(s, p, spiky).barrier_time(), base);
}

TEST(Netsim, MeanOverRepetitionsIsStable) {
  const TopologyProfile p = uniform_profile(8, 1e-5, 1e-6);
  const Schedule s = tree_barrier(8);
  SimOptions opts;
  opts.jitter = 0.05;
  const double mean1 = simulate_mean_time(s, p, opts, 25);
  const double mean2 = simulate_mean_time(s, p, opts, 25);
  EXPECT_DOUBLE_EQ(mean1, mean2);  // derived seeds are deterministic
  const double base = simulate(s, p).barrier_time();
  EXPECT_NEAR(mean1, base, 0.2 * base);
}

TEST(Netsim, RejectsInvalidOptions) {
  const TopologyProfile p = uniform_profile(2, 1e-5, 1e-6);
  Schedule s(2);
  SimOptions bad_jitter;
  bad_jitter.jitter = -0.1;
  EXPECT_THROW(simulate(s, p, bad_jitter), Error);
  SimOptions bad_spike;
  bad_spike.spike_probability = 1.5;
  EXPECT_THROW(simulate(s, p, bad_spike), Error);
  SimOptions bad_entries;
  bad_entries.entry_times = {0.0};
  EXPECT_THROW(simulate(s, p, bad_entries), Error);
  EXPECT_THROW(simulate_mean_time(s, p, SimOptions{}, 0), Error);
}

TEST(NetsimContention, EgressSerializesCoLocatedRemoteSenders) {
  // Two ranks on resource 0 both send to ranks on resource 1 in one
  // stage; with contention their remote messages serialize through the
  // shared egress, so completion is later than without.
  const TopologyProfile p = uniform_profile(4, 1e-5, 4e-6);
  Schedule s(4);
  oracle::StageMatrix m0(4, 4, 0);
  m0(0, 2) = 1;
  m0(1, 3) = 1;
  oracle::StageMatrix m1(4, 4, 0);
  m1(2, 0) = 1;
  m1(3, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m0));
  s.append_stage(oracle::stage_from_matrix(m1));
  SimOptions contended;
  contended.egress_resource_of = {0, 0, 1, 1};
  const double with_contention = simulate(s, p, contended).barrier_time();
  const double without = simulate(s, p).barrier_time();
  EXPECT_GT(with_contention, without);
}

TEST(NetsimContention, LocalMessagesDoNotContend) {
  // Same-resource messages bypass the egress entirely.
  const TopologyProfile p = uniform_profile(4, 1e-5, 4e-6);
  Schedule s(4);
  oracle::StageMatrix m0(4, 4, 0);
  m0(0, 1) = 1;
  m0(2, 3) = 1;
  oracle::StageMatrix m1(4, 4, 0);
  m1(1, 0) = 1;
  m1(3, 2) = 1;
  s.append_stage(oracle::stage_from_matrix(m0));
  s.append_stage(oracle::stage_from_matrix(m1));
  SimOptions contended;
  contended.egress_resource_of = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(simulate(s, p, contended).barrier_time(),
                   simulate(s, p).barrier_time());
}

TEST(NetsimContention, PunishesHighFanOutAlgorithms) {
  // The physical argument for the hybrid's win on GbE clusters: under
  // per-node egress contention, dissemination (every rank sending
  // remotely at once) degrades more than the tree (few senders/stage).
  const MachineSpec m = quad_cluster();
  const std::size_t p = 32;
  const Mapping mapping = round_robin_mapping(m, p);
  const TopologyProfile profile = generate_profile(m, mapping);
  SimOptions contended;
  contended.egress_resource_of = node_egress_resources(m, mapping);
  auto penalty = [&](const Schedule& s) {
    return simulate(s, profile, contended).barrier_time() /
           simulate(s, profile).barrier_time();
  };
  EXPECT_GT(penalty(dissemination_barrier(p)), penalty(tree_barrier(p)));
}

TEST(NetsimContention, DelayInjectionStillSynchronizes) {
  const MachineSpec m = quad_cluster();
  const std::size_t p = 12;
  const Mapping mapping = round_robin_mapping(m, p);
  const TopologyProfile profile = generate_profile(m, mapping);
  SimOptions opts;
  opts.egress_resource_of = node_egress_resources(m, mapping);
  opts.entry_times.assign(p, 0.0);
  opts.entry_times[5] = 1.0;
  const SimResult r = simulate(dissemination_barrier(p), profile, opts);
  for (double c : r.completion) {
    EXPECT_GE(c, 1.0);
  }
}

TEST(NetsimContention, ResourceMapMismatchThrows) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 1e-6);
  SimOptions bad;
  bad.egress_resource_of = {0, 1};
  EXPECT_THROW(simulate(tree_barrier(4), p, bad), Error);
}

TEST(NetsimContention, NodeEgressResourcesFollowMapping) {
  const MachineSpec m = quad_cluster();
  const Mapping mapping = round_robin_mapping(m, 10);
  const auto resources = node_egress_resources(m, mapping);
  ASSERT_EQ(resources.size(), 10u);
  for (std::size_t rank = 0; rank < 10; ++rank) {
    EXPECT_EQ(resources[rank], rank % 2);  // 2 nodes, dealt round-robin
  }
}

TEST(Workload, SingleEpisodeMatchesPlainSimulation) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 12);
  const Schedule s = tree_barrier(12);
  WorkloadOptions options;
  options.episodes = 1;
  options.compute_mean = 0.0;
  options.compute_stddev = 0.0;
  const WorkloadResult w = simulate_workload(s, profile, options);
  ASSERT_EQ(w.episode_barrier_times.size(), 1u);
  EXPECT_DOUBLE_EQ(w.episode_barrier_times[0],
                   simulate(s, profile).barrier_time());
}

TEST(Workload, EpisodesChainThroughCompletionTimes) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = dissemination_barrier(8);
  WorkloadOptions options;
  options.episodes = 5;
  options.compute_mean = 1e-4;
  options.compute_stddev = 0.0;
  const WorkloadResult w = simulate_workload(s, profile, options);
  // Makespan >= episodes * (compute + one barrier span).
  const double one_barrier = simulate(s, profile).barrier_time();
  EXPECT_GE(w.makespan, 5 * (1e-4 + one_barrier) - 1e-12);
  EXPECT_EQ(w.episode_barrier_times.size(), 5u);
}

TEST(Workload, SkewInflatesWaitNotSpan) {
  // Arrival skew makes *early* ranks wait for stragglers, so the total
  // per-rank wait grows with skew. The span (last entry to last exit)
  // does not grow — a straggler arrives into a barrier whose arrival
  // phase has already progressed, so the residual critical path can
  // even shrink (the situation Eq. 2 models).
  const MachineSpec m = quad_cluster();
  const std::size_t p = 24;
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  const Schedule s = tree_barrier(p);
  auto workload = [&](double stddev) {
    WorkloadOptions options;
    options.episodes = 20;
    options.compute_mean = 3e-4;
    options.compute_stddev = stddev;
    options.sim.seed = 7;
    return simulate_workload(s, profile, options);
  };
  const WorkloadResult flat = workload(0.0);
  const WorkloadResult skewed = workload(2e-4);
  EXPECT_GT(skewed.total_wait(), 1.5 * flat.total_wait());
  EXPECT_LT(skewed.mean_barrier_time(), 2.0 * flat.mean_barrier_time());
}

TEST(Workload, DeterministicForFixedSeed) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = tree_barrier(8);
  WorkloadOptions options;
  options.episodes = 8;
  options.compute_stddev = 5e-5;
  options.sim.jitter = 0.05;
  const WorkloadResult a = simulate_workload(s, profile, options);
  const WorkloadResult b = simulate_workload(s, profile, options);
  EXPECT_EQ(a.episode_barrier_times, b.episode_barrier_times);
  EXPECT_EQ(a.rank_wait_total, b.rank_wait_total);
}

TEST(Workload, RejectsBadOptions) {
  const MachineSpec m = quad_cluster(1);
  const TopologyProfile profile = generate_profile(m, 4);
  const Schedule s = tree_barrier(4);
  WorkloadOptions zero;
  zero.episodes = 0;
  EXPECT_THROW(simulate_workload(s, profile, zero), Error);
  WorkloadOptions negative;
  negative.compute_mean = -1.0;
  EXPECT_THROW(simulate_workload(s, profile, negative), Error);
  WorkloadOptions with_entries;
  with_entries.sim.entry_times.assign(4, 0.0);
  EXPECT_THROW(simulate_workload(s, profile, with_entries), Error);
}

TEST(Workload, WaitTotalsAreNonNegativeAndConsistent) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 16);
  WorkloadOptions options;
  options.episodes = 10;
  options.compute_stddev = 1e-4;
  const WorkloadResult w =
      simulate_workload(dissemination_barrier(16), profile, options);
  for (double wait : w.rank_wait_total) {
    EXPECT_GE(wait, 0.0);
  }
  EXPECT_GT(w.total_wait(), 0.0);
}

TEST(Workload, ComposesWithContentionAndNoise) {
  // All engine features at once: multi-episode workload with skew,
  // noise, and per-node egress contention — deterministic and sane.
  const MachineSpec m = quad_cluster();
  const std::size_t p = 24;
  const Mapping mapping = round_robin_mapping(m, p);
  const TopologyProfile profile = generate_profile(m, mapping);
  WorkloadOptions options;
  options.episodes = 10;
  options.compute_stddev = 1e-4;
  options.sim.jitter = 0.05;
  options.sim.egress_resource_of = node_egress_resources(m, mapping);
  const Schedule s = dissemination_barrier(p);
  const WorkloadResult a = simulate_workload(s, profile, options);
  const WorkloadResult b = simulate_workload(s, profile, options);
  EXPECT_EQ(a.episode_barrier_times, b.episode_barrier_times);
  // Contention must show up against the free-egress run.
  WorkloadOptions free_egress = options;
  free_egress.sim.egress_resource_of.clear();
  const WorkloadResult c = simulate_workload(s, profile, free_egress);
  EXPECT_GT(a.makespan, c.makespan);
}

TEST(Netsim, TraceCoversEverySignal) {
  const std::size_t p = 8;
  const TopologyProfile profile = uniform_profile(p, 1e-5, 1e-6);
  const Schedule s = tree_barrier(p);
  SimOptions opts;
  opts.record_trace = true;
  const SimResult r = simulate(s, profile, opts);
  EXPECT_EQ(r.trace.size(), s.total_signals());
  for (const MessageTrace& t : r.trace) {
    EXPECT_LE(t.injected, t.matched);
    EXPECT_TRUE(s.has_signal(t.stage, t.src, t.dst));
  }
}

TEST(Netsim, MeanTimeIsInvariantToPoolWidth) {
  // Repetitions fan out across the pool but land in index-owned slots
  // and are summed in index order: the mean must be bit-identical with
  // no pool, a width-1 pool (inline path), and a wide pool.
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 12);
  const Schedule s = dissemination_barrier(12);
  SimOptions options;
  options.jitter = 0.05;
  options.seed = 77;
  const std::size_t reps = 10;
  const double serial = simulate_mean_time(s, profile, options, reps);
  ThreadPool inline_pool(1);
  ThreadPool wide_pool(4);
  EXPECT_EQ(simulate_mean_time(s, profile, options, reps, &inline_pool),
            serial);
  EXPECT_EQ(simulate_mean_time(s, profile, options, reps, &wide_pool),
            serial);
}

TEST(Workload, RepsInvariantToPoolWidthAndAnchoredAtRepZero) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = tree_barrier(8);
  WorkloadOptions options;
  options.episodes = 6;
  options.compute_stddev = 5e-5;
  options.sim.jitter = 0.05;
  const std::size_t reps = 5;
  const std::vector<WorkloadResult> serial =
      simulate_workload_reps(s, profile, options, reps);
  ASSERT_EQ(serial.size(), reps);
  // Rep 0 is the plain simulate_workload run, verbatim.
  const WorkloadResult plain = simulate_workload(s, profile, options);
  EXPECT_EQ(serial[0].episode_barrier_times, plain.episode_barrier_times);
  EXPECT_EQ(serial[0].rank_wait_total, plain.rank_wait_total);
  EXPECT_EQ(serial[0].makespan, plain.makespan);
  // Later reps draw fresh seeds — they must differ from rep 0.
  EXPECT_NE(serial[1].episode_barrier_times, serial[0].episode_barrier_times);
  // The whole vector is pool-width invariant.
  ThreadPool wide_pool(4);
  const std::vector<WorkloadResult> pooled =
      simulate_workload_reps(s, profile, options, reps, &wide_pool);
  ASSERT_EQ(pooled.size(), reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    EXPECT_EQ(pooled[rep].episode_barrier_times,
              serial[rep].episode_barrier_times)
        << "rep " << rep;
    EXPECT_EQ(pooled[rep].rank_wait_total, serial[rep].rank_wait_total)
        << "rep " << rep;
    EXPECT_EQ(pooled[rep].makespan, serial[rep].makespan) << "rep " << rep;
  }
}

TEST(OverlapModel, DisabledModelIsBitIdentical) {
  // Leaving compute_after_post empty / poll 0 must leave every result
  // — and the RNG stream — identical to the plain engine.
  const TopologyProfile profile = uniform_profile(8, 1e-5, 1e-6);
  const Schedule s = dissemination_barrier(8);
  SimOptions plain;
  plain.jitter = 0.04;
  plain.seed = 77;
  SimOptions modeled = plain;
  modeled.compute_after_post = {};  // explicit no-op
  modeled.progress_poll_interval = 0.0;
  EXPECT_EQ(simulate(s, profile, plain).completion,
            simulate(s, profile, modeled).completion);
}

TEST(OverlapModel, PollTicksDeferStageTransitions) {
  // With compute windows and a coarse poll interval, every transition
  // inside the window rounds up to a tick, so completion can only grow.
  const TopologyProfile profile = uniform_profile(6, 1e-5, 1e-6);
  const Schedule s = tree_barrier(6);
  SimOptions plain;
  const SimResult base = simulate(s, profile, plain);
  SimOptions polled = plain;
  polled.compute_after_post = std::vector<double>(6, 5e-4);
  polled.progress_poll_interval = 1e-4;
  const SimResult deferred = simulate(s, profile, polled);
  EXPECT_FALSE(deferred.deadlocked);
  EXPECT_GE(deferred.completion_time(), base.completion_time());
}

TEST(OverlapModel, RejectsBadOptions) {
  const TopologyProfile profile = uniform_profile(4, 1e-5, 1e-6);
  const Schedule s = tree_barrier(4);
  SimOptions bad_size;
  bad_size.compute_after_post = {1e-4, 1e-4};  // 2 entries, 4 ranks
  bad_size.progress_poll_interval = 1e-5;
  EXPECT_THROW(simulate(s, profile, bad_size), Error);
  SimOptions no_poll;
  no_poll.compute_after_post = std::vector<double>(4, 1e-4);
  EXPECT_THROW(simulate(s, profile, no_poll), Error);  // poll required
  SimOptions negative;
  negative.compute_after_post = {1e-4, -1.0, 1e-4, 1e-4};
  negative.progress_poll_interval = 1e-5;
  EXPECT_THROW(simulate(s, profile, negative), Error);
}

TEST(Overlap, DeterministicAndPaired) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = dissemination_barrier(8);
  OverlapOptions options;
  options.compute_seconds = 5e-4;
  options.compute_stddev = 5e-5;
  options.sim.seed = 19;
  const OverlapResult a = simulate_overlap(s, profile, options);
  const OverlapResult b = simulate_overlap(s, profile, options);
  EXPECT_EQ(a.blocking_completion, b.blocking_completion);
  EXPECT_EQ(a.nonblocking_completion, b.nonblocking_completion);
  EXPECT_EQ(a.saved, b.saved);
  // saved is definitionally the paired difference.
  EXPECT_DOUBLE_EQ(a.saved,
                   a.blocking_completion - a.nonblocking_completion);
  EXPECT_GE(a.overlap_efficiency, 0.0);
  EXPECT_LE(a.overlap_efficiency, 1.0);
}

TEST(Overlap, ZeroRatioDegeneratesToBlocking) {
  const TopologyProfile profile = uniform_profile(6, 1e-5, 1e-6);
  const Schedule s = tree_barrier(6);
  OverlapOptions options;
  options.overlap_ratio = 0.0;
  options.compute_seconds = 3e-4;
  const OverlapResult result = simulate_overlap(s, profile, options);
  EXPECT_DOUBLE_EQ(result.nonblocking_completion,
                   result.blocking_completion);
  EXPECT_DOUBLE_EQ(result.saved, 0.0);
}

TEST(Overlap, FullOverlapHidesMostOfTheBarrier) {
  // With compute far larger than the barrier and everything after the
  // post, the barrier hides inside the compute window and the exposed
  // wait collapses to poll-latency scale.
  const TopologyProfile profile = uniform_profile(8, 1e-5, 1e-6);
  const Schedule s = dissemination_barrier(8);
  OverlapOptions options;
  options.compute_seconds = 5e-3;  // >> barrier time
  options.overlap_ratio = 1.0;
  options.poll_interval = 1e-5;
  const OverlapResult result = simulate_overlap(s, profile, options);
  EXPECT_GT(result.saved, 0.0);
  EXPECT_LT(result.exposed_wait,
            simulate(s, profile, options.sim).barrier_time());
}

TEST(Overlap, MeanAnchorsAtRepZeroAndIsPoolInvariant) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 8);
  const Schedule s = tree_barrier(8);
  OverlapOptions options;
  options.compute_seconds = 4e-4;
  options.compute_stddev = 4e-5;
  options.sim.jitter = 0.03;
  options.sim.seed = 5;
  const OverlapResult single = simulate_overlap(s, profile, options);
  const OverlapResult one_rep =
      simulate_overlap_mean(s, profile, options, 1);
  EXPECT_EQ(one_rep.blocking_completion, single.blocking_completion);
  EXPECT_EQ(one_rep.nonblocking_completion, single.nonblocking_completion);
  const OverlapResult serial =
      simulate_overlap_mean(s, profile, options, 6);
  ThreadPool pool(4);
  const OverlapResult pooled =
      simulate_overlap_mean(s, profile, options, 6, &pool);
  EXPECT_EQ(pooled.blocking_completion, serial.blocking_completion);
  EXPECT_EQ(pooled.nonblocking_completion, serial.nonblocking_completion);
  EXPECT_EQ(pooled.exposed_wait, serial.exposed_wait);
  EXPECT_EQ(pooled.saved, serial.saved);
}

TEST(Overlap, RunnerOwnsTheModelFields) {
  const TopologyProfile profile = uniform_profile(4, 1e-5, 1e-6);
  const Schedule s = tree_barrier(4);
  OverlapOptions stolen;
  stolen.sim.compute_after_post = std::vector<double>(4, 1e-4);
  stolen.sim.progress_poll_interval = 1e-5;
  EXPECT_THROW(simulate_overlap(s, profile, stolen), Error);
  OverlapOptions entries;
  entries.sim.entry_times = std::vector<double>(4, 0.0);
  EXPECT_THROW(simulate_overlap(s, profile, entries), Error);
}

}  // namespace
}  // namespace optibar
