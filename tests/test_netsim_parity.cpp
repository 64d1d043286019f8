// Randomized old-vs-new engine parity: simulate() (typed-event heap,
// slab-backed events, SimWorkspace) must be *bit-identical* to
// simulate_reference() (std::function closures on the binary-heap
// EventQueue) on every output — completion vectors, entry times,
// traces, deadlock flags, stuck-rank lists — across the full option
// matrix: jitter, spikes, egress contention, entry skew, fault plans,
// crashed ranks, eager sends, free receives, the nonblocking-progress
// model, payload-cost hooks, and trace recording, on both paper
// presets. Bit identity (EXPECT_EQ on doubles, not near) is the
// contract: the engines make the same scheduling calls in the same
// order, so even the RNG streams coincide.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace optibar {
namespace {

struct Fixture {
  std::string name;
  TopologyProfile profile;
  Schedule schedule;
};

/// The sweep's schedule/topology pairs: both paper presets, a
/// high-fan-out family (dissemination) and a sparse one (heap tree).
std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  const MachineSpec quad = quad_cluster();
  const MachineSpec hex = hex_cluster();
  const TopologyProfile quad24 =
      generate_profile(quad, round_robin_mapping(quad, 24), GenerateOptions{});
  const TopologyProfile hex40 =
      generate_profile(hex, round_robin_mapping(hex, 40), GenerateOptions{});
  out.push_back({"quad24/dissemination", quad24, dissemination_barrier(24)});
  out.push_back({"quad24/heap_tree", quad24, heap_tree_barrier(24)});
  out.push_back({"hex40/dissemination", hex40, dissemination_barrier(40)});
  out.push_back({"hex40/pairwise", hex40, pairwise_exchange_barrier(40)});
  return out;
}

/// Exact comparison of every SimResult field. `where` names the
/// (fixture, config, seed) cell for the failure message.
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& where) {
  ASSERT_EQ(a.completion.size(), b.completion.size()) << where;
  for (std::size_t i = 0; i < a.completion.size(); ++i) {
    EXPECT_EQ(a.completion[i], b.completion[i]) << where << " rank " << i;
  }
  ASSERT_EQ(a.entry.size(), b.entry.size()) << where;
  for (std::size_t i = 0; i < a.entry.size(); ++i) {
    EXPECT_EQ(a.entry[i], b.entry[i]) << where << " rank " << i;
  }
  EXPECT_EQ(a.deadlocked, b.deadlocked) << where;
  EXPECT_EQ(a.stuck_ranks, b.stuck_ranks) << where;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << where;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].stage, b.trace[i].stage) << where << " msg " << i;
    EXPECT_EQ(a.trace[i].src, b.trace[i].src) << where << " msg " << i;
    EXPECT_EQ(a.trace[i].dst, b.trace[i].dst) << where << " msg " << i;
    EXPECT_EQ(a.trace[i].injected, b.trace[i].injected)
        << where << " msg " << i;
    EXPECT_EQ(a.trace[i].matched, b.trace[i].matched) << where << " msg " << i;
  }
}

/// One named option configuration, parameterized on the sweep seed.
struct Config {
  std::string name;
  SimOptions (*make)(const Fixture& f, std::uint64_t seed);
};

std::vector<double> skewed_entries(std::size_t p, std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  std::vector<double> entry(p);
  for (double& e : entry) {
    e = rng.next_double() * 5e-5;
  }
  return entry;
}

std::vector<Config> configs() {
  return {
      {"plain",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         return o;
       }},
      {"jitter",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.15;
         return o;
       }},
      {"spikes",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.05;
         o.spike_probability = 0.05;
         o.spike_scale = 8.0;
         return o;
       }},
      {"egress",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         // Four ranks per synthetic NIC — enough sharing to force
         // retry-on-busy reschedules.
         o.egress_resource_of.resize(f.schedule.ranks());
         for (std::size_t r = 0; r < o.egress_resource_of.size(); ++r) {
           o.egress_resource_of[r] = r / 4;
         }
         return o;
       }},
      {"entry_skew",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         o.entry_times = skewed_entries(f.schedule.ranks(), seed);
         return o;
       }},
      {"trace",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         o.record_trace = true;
         o.entry_times = skewed_entries(f.schedule.ranks(), seed);
         return o;
       }},
      {"eager_sends",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         o.synchronous_sends = false;
         return o;
       }},
      {"free_receive",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         o.receiver_processing = false;
         return o;
       }},
      {"payload_hook",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         o.extra_message_cost = [](std::size_t stage, std::size_t src,
                                   std::size_t dst) {
           return 1e-7 * static_cast<double>(stage + 1) +
                  1e-9 * static_cast<double>(src + dst);
         };
         return o;
       }},
      {"faults_dup_delay",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.1;
         // Duplicates and delays perturb timing but never deadlock.
         o.faults = FaultPlan::parse("seed=" + std::to_string(seed % 97) +
                                     ";dup=*>*@*:0.2;delay=*>*@*:0.3:0.0001");
         return o;
       }},
      {"faults_drop",
       [](const Fixture&, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         // Random drops: synchronized senders stall, both engines must
         // agree on the deadlock flag and the stuck-rank set.
         o.faults = FaultPlan::parse("seed=" + std::to_string(seed % 89) +
                                     ";drop=*>*@*:0.1");
         return o;
       }},
      {"crashed_ranks",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.05;
         o.crashed_ranks = {1 + seed % (f.schedule.ranks() - 1)};
         return o;
       }},
      {"crash_at_stage",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.faults = FaultPlan::parse(
             "seed=1;crash=" +
             std::to_string(2 + seed % (f.schedule.ranks() - 2)) + "@1");
         return o;
       }},
      {"overlap_progress",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.05;
         o.compute_after_post.assign(f.schedule.ranks(), 2e-4);
         o.progress_poll_interval = 3e-5;
         o.entry_times = skewed_entries(f.schedule.ranks(), seed);
         return o;
       }},
      {"kitchen_sink",
       [](const Fixture& f, std::uint64_t seed) {
         SimOptions o;
         o.seed = seed;
         o.jitter = 0.2;
         o.spike_probability = 0.03;
         o.record_trace = true;
         o.entry_times = skewed_entries(f.schedule.ranks(), seed);
         o.egress_resource_of.resize(f.schedule.ranks());
         for (std::size_t r = 0; r < o.egress_resource_of.size(); ++r) {
           o.egress_resource_of[r] = r / 4;
         }
         o.faults = FaultPlan::parse("seed=3;dup=*>*@*:0.1");
         return o;
       }},
  };
}

TEST(NetsimParity, RandomizedSweepIsBitIdentical) {
  for (const Fixture& f : fixtures()) {
    for (const Config& c : configs()) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const SimOptions options = c.make(f, seed);
        const SimResult reference = simulate_reference(f.schedule, f.profile,
                                                       options);
        const SimResult production = simulate(f.schedule, f.profile, options);
        expect_identical(production, reference,
                         f.name + "/" + c.name + "/seed" +
                             std::to_string(seed));
      }
    }
  }
}

// A workspace reused across *different* shapes (rank counts, stage
// counts, option families) must behave exactly like a fresh one —
// stale capacities and leftover pool contents must never leak into the
// next run.
TEST(NetsimParity, WorkspaceReuseAcrossShapesMatchesFreshRuns) {
  SimWorkspace ws;
  SimResult out;
  std::size_t checked = 0;
  for (const Fixture& f : fixtures()) {
    for (const Config& c : configs()) {
      const SimOptions options = c.make(f, /*seed=*/11);
      simulate_into(f.schedule, f.profile, options, ws, out);
      const SimResult fresh = simulate_reference(f.schedule, f.profile,
                                                 options);
      expect_identical(out, fresh, f.name + "/" + c.name + "/reused-ws");
      ++checked;
    }
  }
  EXPECT_GT(checked, 40u);
}

/// Reference reimplementation of simulate_mean_time on top of
/// simulate_reference, pinning the documented seed-derivation constant.
double reference_mean_time(const Schedule& s, const TopologyProfile& p,
                           const SimOptions& options, std::size_t reps) {
  double total = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    SimOptions rep_options = options;
    rep_options.seed = options.seed + 0x9E3779B9ULL * (rep + 1);
    total += simulate_reference(s, p, rep_options).barrier_time();
  }
  return total / static_cast<double>(reps);
}

TEST(NetsimParity, MeanTimeMatchesReferenceAtAnyPoolWidth) {
  const Fixture f = fixtures()[0];
  SimOptions options;
  options.jitter = 0.1;
  options.seed = 42;
  const double expected =
      reference_mean_time(f.schedule, f.profile, options, 8);
  EXPECT_EQ(simulate_mean_time(f.schedule, f.profile, options, 8), expected);
  ThreadPool pool(4);
  EXPECT_EQ(simulate_mean_time(f.schedule, f.profile, options, 8, &pool),
            expected);
}

TEST(NetsimParity, WorkloadMatchesReferenceEpisodeChain) {
  const Fixture f = fixtures()[1];
  WorkloadOptions options;
  options.episodes = 6;
  options.sim.jitter = 0.1;
  options.sim.seed = 7;

  // The documented chain: episode e's entries are episode e-1's
  // completions plus truncated-normal compute draws from the derived
  // workload RNG.
  const std::size_t p = f.schedule.ranks();
  Rng rng(options.sim.seed ^ 0xB5297A4D3F84D5A9ULL);
  std::vector<double> completion(p, 0.0);
  std::vector<double> expected_barrier;
  std::vector<double> expected_wait(p, 0.0);
  for (std::size_t episode = 0; episode < options.episodes; ++episode) {
    SimOptions sim = options.sim;
    sim.seed = options.sim.seed + 0x9E3779B9ULL * (episode + 1);
    sim.entry_times.resize(p);
    for (std::size_t rank = 0; rank < p; ++rank) {
      const double compute = std::max(
          0.0, rng.normal(options.compute_mean, options.compute_stddev));
      sim.entry_times[rank] = completion[rank] + compute;
    }
    const SimResult r = simulate_reference(f.schedule, f.profile, sim);
    expected_barrier.push_back(r.barrier_time());
    for (std::size_t rank = 0; rank < p; ++rank) {
      expected_wait[rank] += r.completion[rank] - r.entry[rank];
    }
    completion = r.completion;
  }

  const WorkloadResult actual =
      simulate_workload(f.schedule, f.profile, options);
  ASSERT_EQ(actual.episode_barrier_times.size(), expected_barrier.size());
  for (std::size_t e = 0; e < expected_barrier.size(); ++e) {
    EXPECT_EQ(actual.episode_barrier_times[e], expected_barrier[e]);
  }
  for (std::size_t rank = 0; rank < p; ++rank) {
    EXPECT_EQ(actual.rank_wait_total[rank], expected_wait[rank]);
  }
  EXPECT_EQ(actual.makespan,
            *std::max_element(completion.begin(), completion.end()));

  // Rep 0 of the reps fan-out must equal the single run bit for bit,
  // at any pool width.
  ThreadPool pool(3);
  const std::vector<WorkloadResult> reps =
      simulate_workload_reps(f.schedule, f.profile, options, 3, &pool);
  ASSERT_EQ(reps.size(), 3u);
  EXPECT_EQ(reps[0].episode_barrier_times, actual.episode_barrier_times);
  EXPECT_EQ(reps[0].makespan, actual.makespan);
}

TEST(NetsimParity, OverlapMatchesReferencePairedRuns) {
  const Fixture f = fixtures()[2];
  OverlapOptions options;
  options.compute_seconds = 3e-4;
  options.compute_stddev = 5e-5;
  options.overlap_ratio = 0.7;
  options.poll_interval = 2e-5;
  options.sim.jitter = 0.1;
  options.sim.seed = 21;

  // Paired reference runs sharing the documented compute-draw RNG.
  const std::size_t p = f.schedule.ranks();
  Rng rng(options.sim.seed ^ 0xA0761D6478BD642FULL);
  std::vector<double> compute(p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    compute[rank] = std::max(
        0.0, rng.normal(options.compute_seconds, options.compute_stddev));
  }
  SimOptions blocking = options.sim;
  blocking.entry_times = compute;
  const SimResult blocking_run =
      simulate_reference(f.schedule, f.profile, blocking);
  SimOptions nonblocking = options.sim;
  nonblocking.entry_times.resize(p);
  nonblocking.compute_after_post.resize(p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    nonblocking.entry_times[rank] =
        (1.0 - options.overlap_ratio) * compute[rank];
    nonblocking.compute_after_post[rank] =
        options.overlap_ratio * compute[rank];
  }
  nonblocking.progress_poll_interval = options.poll_interval;
  const SimResult nonblocking_run =
      simulate_reference(f.schedule, f.profile, nonblocking);

  const OverlapResult actual =
      simulate_overlap(f.schedule, f.profile, options);
  EXPECT_EQ(actual.blocking_completion, blocking_run.completion_time());
  EXPECT_EQ(actual.nonblocking_completion,
            nonblocking_run.completion_time());
  EXPECT_EQ(actual.saved, blocking_run.completion_time() -
                              nonblocking_run.completion_time());

  // Rep 0 of the mean fan-out keeps the caller's seed; a 1-rep mean is
  // the episode itself, bit for bit, pooled or not.
  ThreadPool pool(3);
  const OverlapResult mean1 =
      simulate_overlap_mean(f.schedule, f.profile, options, 1, &pool);
  EXPECT_EQ(mean1.blocking_completion, actual.blocking_completion);
  EXPECT_EQ(mean1.nonblocking_completion, actual.nonblocking_completion);
  EXPECT_EQ(mean1.exposed_wait, actual.exposed_wait);
  EXPECT_EQ(mean1.saved, actual.saved);
  EXPECT_EQ(mean1.overlap_efficiency, actual.overlap_efficiency);
}

// Thread-pooled repetition fan-out with thread_local workspaces: the
// tsan label makes this the concurrency check for the workspace reuse
// discipline (no shared mutable state between reps beyond the
// read-only compiled schedule).
TEST(NetsimParity, PooledSweepsAreWidthInvariant) {
  const Fixture f = fixtures()[3];
  SimOptions options;
  options.jitter = 0.1;
  options.seed = 5;
  const double serial =
      simulate_mean_time(f.schedule, f.profile, options, 12);
  ThreadPool pool(8);
  EXPECT_EQ(simulate_mean_time(f.schedule, f.profile, options, 12, &pool),
            serial);

  OverlapOptions overlap;
  overlap.sim.seed = 5;
  overlap.sim.jitter = 0.05;
  const OverlapResult serial_mean =
      simulate_overlap_mean(f.schedule, f.profile, overlap, 6);
  const OverlapResult pooled_mean =
      simulate_overlap_mean(f.schedule, f.profile, overlap, 6, &pool);
  EXPECT_EQ(pooled_mean.blocking_completion, serial_mean.blocking_completion);
  EXPECT_EQ(pooled_mean.nonblocking_completion,
            serial_mean.nonblocking_completion);
  EXPECT_EQ(pooled_mean.saved, serial_mean.saved);
}

}  // namespace
}  // namespace optibar
