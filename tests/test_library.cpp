// Tests for the runtime BarrierLibrary (Section VIII's "library
// implementation which would benefit unmodified application codes").
#include "core/library.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "collective/executor.hpp"
#include "collective/schedule.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/resilience.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TopologyProfile cluster_profile(std::size_t ranks) {
  const MachineSpec m = quad_cluster();
  return generate_profile(m, round_robin_mapping(m, ranks));
}

TEST(Library, FullBarrierIsTunedAndValid) {
  BarrierLibrary library(cluster_profile(24));
  const LibraryEntry& entry = library.full_barrier();
  EXPECT_TRUE(entry.stored.schedule.is_barrier());
  EXPECT_EQ(entry.stored.schedule.ranks(), 24u);
  EXPECT_GT(entry.predicted_cost, 0.0);
  EXPECT_EQ(entry.global_ranks.size(), 24u);
}

TEST(Library, RepeatedRequestsHitTheCache) {
  BarrierLibrary library(cluster_profile(16));
  const LibraryEntry& a = library.full_barrier();
  const LibraryEntry& b = library.full_barrier();
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_EQ(library.cache_size(), 1u);
}

TEST(Library, SubCommunicatorUsesLocalNumbering) {
  BarrierLibrary library(cluster_profile(32));
  // A sub-communicator of one node's ranks (round-robin: node 0 hosts
  // ranks 0, 4, 8, ... for 32 ranks over 4 nodes).
  const std::vector<std::size_t> subset{0, 4, 8, 12, 16, 20, 24, 28};
  const LibraryEntry& entry = library.subset_plan(subset);
  EXPECT_EQ(entry.stored.schedule.ranks(), subset.size());
  EXPECT_TRUE(entry.stored.schedule.is_barrier());
  EXPECT_EQ(entry.global_ranks, subset);
  EXPECT_EQ(library.cache_size(), 1u);
}

TEST(Library, SubsetCostReflectsItsTopology) {
  BarrierLibrary library(cluster_profile(32));
  // All ranks of one node (cheap links) vs one rank per node (slow).
  const LibraryEntry& local = library.subset_plan({0, 4, 8, 12});
  const LibraryEntry& remote = library.subset_plan({0, 1, 2, 3});
  // Round-robin over 4 nodes: ranks 0,4,8,12 share node 0; ranks
  // 0,1,2,3 are one per node.
  EXPECT_LT(local.predicted_cost, remote.predicted_cost);
}

TEST(Library, DifferentOrderingsAreDifferentEntries) {
  BarrierLibrary library(cluster_profile(8));
  library.subset_plan({0, 1, 2});
  library.subset_plan({2, 1, 0});
  EXPECT_EQ(library.cache_size(), 2u);
}

TEST(Library, ValidatesSubsets) {
  BarrierLibrary library(cluster_profile(8));
  EXPECT_THROW(library.subset_plan({}), Error);
  EXPECT_THROW(library.subset_plan({0, 0}), Error);
  EXPECT_THROW(library.subset_plan({0, 8}), Error);
}

TEST(Library, ServedPlanExecutesOnThreads) {
  BarrierLibrary library(cluster_profile(12));
  const LibraryEntry& entry = library.full_barrier();
  const simmpi::ScheduleExecutor executor(entry.stored.schedule);
  simmpi::Communicator comm(12);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    executor.execute(ctx);
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(Library, ConcurrentRequestsAreSafe) {
  BarrierLibrary library(cluster_profile(24));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      try {
        const std::vector<std::size_t> subset{0, static_cast<std::size_t>(t) + 1,
                                              static_cast<std::size_t>(t) + 9};
        const LibraryEntry& entry = library.subset_plan(subset);
        if (!entry.stored.schedule.is_barrier()) {
          ++failures;
        }
        library.full_barrier();
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(library.cache_size(), 9u);  // 8 subsets + the full set
}

TEST(Library, LoadsProfileFromDisk) {
  const auto path =
      std::filesystem::temp_directory_path() / "optibar_library_profile.txt";
  cluster_profile(16).save_file(path.string());
  BarrierLibrary library = BarrierLibrary::from_profile_file(path.string());
  EXPECT_EQ(library.ranks(), 16u);
  EXPECT_TRUE(library.full_barrier().stored.schedule.is_barrier());
  std::filesystem::remove(path);
}

TEST(Library, FailuresBelowTheThresholdKeepTheTunedPlan) {
  BarrierLibrary library(cluster_profile(12));  // default threshold: 3
  const std::vector<std::size_t> subset{0, 1, 2, 3};
  const LibraryEntry& tuned = library.subset_plan(subset);
  EXPECT_FALSE(tuned.degraded);
  EXPECT_FALSE(library.report_execution_failure(subset, "stall at stage 0"));
  EXPECT_FALSE(library.report_execution_failure(subset, "stall at stage 0"));
  EXPECT_EQ(library.failure_count(subset), 2u);
  EXPECT_FALSE(library.is_quarantined(subset));
  // Still the tuned plan, same cached object.
  const LibraryEntry& again = library.subset_plan(subset);
  EXPECT_EQ(&again, &tuned);
  EXPECT_FALSE(again.degraded);
}

TEST(Library, QuarantineServesADisseminationFallback) {
  EngineOptions options;
  options.quarantine_threshold = 2;
  BarrierLibrary library(cluster_profile(12), options);
  const std::vector<std::size_t> subset{0, 4, 8, 1, 5};
  const LibraryEntry& tuned = library.subset_plan(subset);
  EXPECT_FALSE(library.report_execution_failure(subset, "first stall"));
  EXPECT_TRUE(library.report_execution_failure(subset, "second stall"));
  EXPECT_TRUE(library.is_quarantined(subset));

  const LibraryEntry& fallback = library.subset_plan(subset);
  EXPECT_NE(&fallback, &tuned);
  EXPECT_TRUE(fallback.degraded);
  EXPECT_NE(fallback.degradation_reason.find("second stall"),
            std::string::npos);
  EXPECT_EQ(fallback.global_ranks, subset);
  // The fallback is the known-safe dissemination pattern, costed
  // against the subset's topology.
  EXPECT_EQ(fallback.stored.schedule, dissemination_barrier(subset.size()));
  EXPECT_TRUE(fallback.stored.awaited_stages.empty());
  EXPECT_GT(fallback.predicted_cost, 0.0);

  // Later failure reports keep counting but stay degraded (true).
  EXPECT_TRUE(library.report_execution_failure(subset, "third stall"));
  EXPECT_EQ(library.failure_count(subset), 3u);
}

TEST(Library, InjectedFaultsDriveQuarantineEndToEnd) {
  // The full degradation loop: execute the served plan under an
  // injected 100%-drop fault, feed the resulting StallReports back,
  // and verify the library swaps in a fallback that then runs clean.
  EngineOptions options;
  options.quarantine_threshold = 2;
  BarrierLibrary library(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3, 4, 5};
  const LibraryEntry& tuned = library.subset_plan(subset);

  const Schedule& schedule = tuned.stored.schedule;
  // Drop the first stage-0 signal the tuned schedule sends, whoever
  // sends it — hybrid arrival stages vary with the clustering.
  FaultPlan faults;
  for (std::size_t src = 0; src < schedule.ranks(); ++src) {
    const auto targets = schedule.targets_of(src, 0);
    if (!targets.empty()) {
      faults.drops.push_back({src, targets.front(), 0, 1.0, 0.0});
      break;
    }
  }
  ASSERT_EQ(faults.drops.size(), 1u);
  simmpi::ResilienceOptions resilience;
  resilience.max_retries = 0;
  resilience.deadline_floor = std::chrono::milliseconds(15);
  // The retry loop executes episode after episode — exactly the caller
  // the pooled mode exists for: one set of parked rank workers serves
  // every attempt.
  simmpi::ExecutorOptions pooled;
  pooled.mode = simmpi::ExecutionMode::kPersistentPool;
  const simmpi::ScheduleExecutor executor(schedule, pooled);
  while (!library.is_quarantined(subset)) {
    const simmpi::StallReport report =
        executor.run_once_resilient(resilience, faults);
    ASSERT_TRUE(report.stalled);
    library.report_execution_failure(subset, report.describe());
  }
  EXPECT_EQ(library.failure_count(subset), 2u);

  // The fallback executes to completion on real threads, no faults.
  const LibraryEntry& fallback = library.subset_plan(subset);
  ASSERT_TRUE(fallback.degraded);
  const simmpi::ScheduleExecutor safe(fallback.stored.schedule);
  simmpi::Communicator comm(subset.size());
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    safe.execute(ctx);
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(Library, CollectivePlansQuarantineUnderThePooledExecutor) {
  // Collective callers ride the same health machinery: a library plan
  // lifted to a zero-payload collective (from_barrier) stalls under the
  // pooled collective executor, its structured StallReports drive the
  // quarantine, and the *lifted fallback* then runs clean with intact
  // buffers.
  EngineOptions options;
  options.quarantine_threshold = 2;
  BarrierLibrary library(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3, 4, 5};
  const LibraryEntry& tuned = library.subset_plan(subset);
  const Schedule& schedule = tuned.stored.schedule;

  FaultPlan faults;
  for (std::size_t src = 0; src < schedule.ranks(); ++src) {
    const auto targets = schedule.targets_of(src, 0);
    if (!targets.empty()) {
      faults.drops.push_back({src, targets.front(), 0, 1.0, 0.0});
      break;
    }
  }
  ASSERT_EQ(faults.drops.size(), 1u);
  simmpi::ResilienceOptions resilience;
  resilience.max_retries = 0;
  resilience.deadline_floor = std::chrono::milliseconds(15);
  simmpi::ExecutorOptions pooled;
  pooled.mode = simmpi::ExecutionMode::kPersistentPool;
  const CollectiveExecutor executor(from_barrier(schedule), pooled);
  const std::vector<Payload> inputs(subset.size());
  while (!library.is_quarantined(subset)) {
    const CollectiveExecutor::ResilientResult result =
        executor.run_once_resilient(inputs, ReduceOp::kSum, resilience,
                                    faults);
    ASSERT_TRUE(result.report.stalled);
    library.report_execution_failure(subset, result.report);
  }
  EXPECT_EQ(library.failure_count(subset), 2u);

  const LibraryEntry& fallback = library.subset_plan(subset);
  ASSERT_TRUE(fallback.degraded);
  const CollectiveExecutor safe(from_barrier(fallback.stored.schedule),
                                pooled);
  const CollectiveExecutor::ResilientResult clean =
      safe.run_once_resilient(inputs, ReduceOp::kSum, resilience);
  EXPECT_FALSE(clean.report.stalled);
  EXPECT_EQ(clean.buffers, inputs);
}

TEST(Library, FailureReportsRequireAServedPlan) {
  BarrierLibrary library(cluster_profile(8));
  // Never tuned: nothing to quarantine — that is a caller bug.
  EXPECT_THROW(library.report_execution_failure({0, 1}, "stall"), Error);
  EXPECT_EQ(library.failure_count({0, 1}), 0u);
  EXPECT_FALSE(library.is_quarantined({0, 1}));
  // Invalid subsets are rejected the same way as in subset_plan().
  EXPECT_THROW(library.report_execution_failure({}, "stall"), Error);
  EXPECT_THROW(library.report_execution_failure({0, 0}, "stall"), Error);
  EXPECT_THROW(library.report_execution_failure({0, 99}, "stall"), Error);
}

TEST(Library, QuarantineThresholdIsValidated) {
  EngineOptions options;
  options.quarantine_threshold = 0;
  EXPECT_THROW(BarrierLibrary(cluster_profile(8), options), Error);
}

TEST(Library, EntryPredictionMatchesDirectTuning) {
  const TopologyProfile profile = cluster_profile(20);
  BarrierLibrary library(profile);
  const LibraryEntry& entry = library.full_barrier();
  const TuneResult direct = tune_barrier(profile);
  EXPECT_EQ(entry.stored.schedule, direct.schedule());
  EXPECT_DOUBLE_EQ(entry.predicted_cost, direct.predicted_cost());
}

}  // namespace
}  // namespace optibar
