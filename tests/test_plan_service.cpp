// Self-healing plan service: lifecycle transitions, the closed
// fault -> quarantine -> background repair -> probation -> healthy loop,
// permanent degradation, the warm-restartable plan store, the bounded
// cache, and the feedback-path validation. The multi-threaded soak
// smoke at the bottom is the tsan target.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "core/library.hpp"
#include "core/plan_store.hpp"
#include "core/service_soak.hpp"
#include "netsim/engine.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/resilience.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TopologyProfile cluster_profile(std::size_t ranks) {
  const MachineSpec machine = quad_cluster();
  return generate_profile(machine, round_robin_mapping(machine, ranks));
}

/// Options with the repair loop on and no backoff, so tests never sleep.
EngineOptions repair_options() {
  EngineOptions options;
  options.quarantine_threshold = 2;
  options.service.auto_repair = true;
  options.service.repair_backoff_seconds = 0.0;
  return options;
}

std::filesystem::path temp_store(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

TEST(PlanService, SuspectStateHealsOnSuccess) {
  BarrierLibrary library(cluster_profile(12));  // default threshold: 3
  const std::vector<std::size_t> subset{0, 1, 2, 3};
  library.subset_plan(subset);
  EXPECT_EQ(library.plan_state(subset), PlanState::kHealthy);

  EXPECT_FALSE(library.report_execution_failure(subset, "one stall"));
  EXPECT_EQ(library.plan_state(subset), PlanState::kSuspect);
  EXPECT_EQ(library.failure_count(subset), 1u);

  // A clean execution clears the suspicion and the counter.
  library.report_execution_success(subset);
  EXPECT_EQ(library.plan_state(subset), PlanState::kHealthy);
  EXPECT_EQ(library.failure_count(subset), 0u);
  const PlanHealthView health = library.plan_health(subset);
  EXPECT_EQ(health.failures, 0u);
  EXPECT_TRUE(health.reason.empty());
}

TEST(PlanService, ClosedLoopRepairPromotesThroughProbation) {
  // The acceptance loop: real injected faults produce StallReports, the
  // library quarantines, the background worker re-tunes against the
  // inflated evidence, the repaired plan beats the fallback under the
  // simulator and is promoted, and probation successes heal it.
  EngineOptions options = repair_options();
  options.service.probation_successes = 2;
  BarrierLibrary library(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3, 4, 5};
  const LibraryEntry& tuned = library.subset_plan(subset);
  const std::uint64_t tuned_generation = tuned.generation;

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
  const simmpi::ScheduleExecutor executor(schedule, pooled);
  // Loop on the cumulative counter, not the transient state: with a
  // zero backoff the worker can repair and promote before this thread
  // ever observes kQuarantined, and an extra injected failure would
  // then re-quarantine the probation plan.
  while (library.stats().quarantines == 0) {
    const simmpi::StallReport report =
        executor.run_once_resilient(resilience, faults);
    ASSERT_TRUE(report.stalled);
    library.report_execution_failure(subset, report);
  }
  EXPECT_EQ(library.stats().quarantines, 1u);

  // Drain the repair: the re-tuned plan must come back on probation.
  library.wait_for_repairs();
  ASSERT_EQ(library.plan_state(subset), PlanState::kProbation);
  const LibraryEntry& repaired = library.subset_plan(subset);
  EXPECT_FALSE(repaired.degraded);
  EXPECT_GT(repaired.generation, tuned_generation);
  const ServiceStats stats = library.stats();
  EXPECT_EQ(stats.repairs_started, 1u);
  EXPECT_EQ(stats.repairs_promoted, 1u);
  EXPECT_EQ(stats.repairs_failed, 0u);
  EXPECT_EQ(library.plan_health(subset).repair_attempts, 1u);

  // The promotion gate's claim holds independently: the served plan
  // simulates faster than the dissemination fallback it replaced.
  const TopologyProfile sub =
      library.profile().restrict_to(subset).symmetrized();
  SimOptions sim;
  const double served_time =
      simulate_mean_time(repaired.stored.schedule, sub, sim, 3);
  const double fallback_time =
      simulate_mean_time(dissemination_barrier(subset.size()), sub, sim, 3);
  EXPECT_LT(served_time, fallback_time);

  // Two clean executions end probation.
  library.report_execution_success(subset);
  EXPECT_EQ(library.plan_state(subset), PlanState::kProbation);
  library.report_execution_success(subset);
  EXPECT_EQ(library.plan_state(subset), PlanState::kHealthy);
  EXPECT_EQ(library.failure_count(subset), 0u);
}

TEST(PlanService, ProbationFailureAfterExhaustedRepairsDegrades) {
  EngineOptions options = repair_options();
  options.quarantine_threshold = 1;
  options.service.max_repair_attempts = 1;
  BarrierLibrary library(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3};
  library.subset_plan(subset);

  EXPECT_TRUE(library.report_execution_failure(subset, "injected stall"));
  library.wait_for_repairs();
  ASSERT_EQ(library.plan_state(subset), PlanState::kProbation);

  // The one allowed repair is spent; the next failure is terminal.
  EXPECT_TRUE(library.report_execution_failure(subset, "stalled again"));
  EXPECT_EQ(library.plan_state(subset), PlanState::kDegraded);
  EXPECT_TRUE(library.is_quarantined(subset));
  const LibraryEntry& served = library.subset_plan(subset);
  EXPECT_TRUE(served.degraded);
  EXPECT_EQ(served.stored.schedule, dissemination_barrier(subset.size()));
  EXPECT_NE(library.plan_health(subset).reason.find(
                "repairs exhausted after 1 attempt(s)"),
            std::string::npos);
  EXPECT_EQ(library.stats().permanent_degradations, 1u);

  // Terminal means terminal: more feedback changes nothing.
  EXPECT_TRUE(library.report_execution_failure(subset, "still bad"));
  library.report_execution_success(subset);
  library.wait_for_repairs();
  EXPECT_EQ(library.plan_state(subset), PlanState::kDegraded);
  EXPECT_EQ(library.stats().repairs_started, 1u);
}

TEST(PlanService, StoreRoundTripPreservesPlansAndHealth) {
  EngineOptions options;
  options.quarantine_threshold = 2;
  const TopologyProfile profile = cluster_profile(12);
  const auto path = temp_store("optibar_plan_store_roundtrip.txt");

  std::vector<std::size_t> healthy{0, 1, 2, 3};
  std::vector<std::size_t> suspect{4, 5, 6};
  std::vector<std::size_t> sick{0, 4, 8, 1, 5};
  Schedule healthy_schedule(1);
  double healthy_cost = 0.0;
  {
    BarrierLibrary library(profile, options);
    const LibraryEntry& entry = library.subset_plan(healthy);
    healthy_schedule = entry.stored.schedule;
    healthy_cost = entry.predicted_cost;
    library.subset_plan(suspect);
    library.report_execution_failure(suspect, "one stall");
    library.subset_plan(sick);
    library.report_execution_failure(sick, "first stall");
    library.report_execution_failure(sick, "second stall");
    ASSERT_TRUE(library.is_quarantined(sick));
    library.save_store(path.string());
    // Saving over an existing store goes through the atomic rename.
    library.save_store(path.string());
  }

  BarrierLibrary restarted(profile, options);
  restarted.load_store(path.string());
  EXPECT_EQ(restarted.cache_size(), 3u);
  EXPECT_EQ(restarted.stats().tunes, 0u);  // nothing re-tuned on load

  const LibraryEntry& entry = restarted.subset_plan(healthy);
  EXPECT_EQ(entry.stored.schedule, healthy_schedule);
  EXPECT_DOUBLE_EQ(entry.predicted_cost, healthy_cost);
  EXPECT_FALSE(entry.degraded);
  EXPECT_EQ(restarted.plan_state(healthy), PlanState::kHealthy);

  // The suspect entry resumes one failure short of quarantine.
  EXPECT_EQ(restarted.plan_state(suspect), PlanState::kSuspect);
  EXPECT_EQ(restarted.failure_count(suspect), 1u);
  EXPECT_TRUE(restarted.report_execution_failure(suspect, "again"));
  EXPECT_TRUE(restarted.is_quarantined(suspect));

  // The quarantined entry resumes quarantined, fallback and reason intact.
  EXPECT_EQ(restarted.plan_state(sick), PlanState::kQuarantined);
  EXPECT_EQ(restarted.failure_count(sick), 2u);
  const LibraryEntry& fallback = restarted.subset_plan(sick);
  EXPECT_TRUE(fallback.degraded);
  EXPECT_EQ(fallback.stored.schedule, dissemination_barrier(sick.size()));
  EXPECT_NE(restarted.plan_health(sick).reason.find("second stall"),
            std::string::npos);
  EXPECT_EQ(restarted.stats().tunes, 0u);
  std::filesystem::remove(path);

  // Every reason reads back as written, including one that is exactly
  // "-", the spelling of the empty reason; only that one is escaped.
  const std::vector<std::pair<std::string, std::string>> reasons = {
      {"", "-"},       {"-", "\\-"},      {"--", "--"},
      {"\\-", "\\\\-"}, {"a-b", "a-b"}, {"-\n-", "-\\n-"}};
  std::vector<PlanStoreRecord> records;
  for (std::size_t k = 0; k < reasons.size(); ++k) {
    PlanStoreRecord record;
    record.subset = {k, k + 1};
    record.state = PlanState::kQuarantined;
    record.reason = reasons[k].first;
    record.plan = {dissemination_barrier(2), {}};
    records.push_back(record);
  }
  std::ostringstream os;
  save_plan_store(os, 12, records);
  for (const auto& [reason, line] : reasons) {
    EXPECT_NE(os.str().find("\nreason " + line + "\n"), std::string::npos)
        << line;
  }
  std::istringstream is(os.str());
  const std::vector<PlanStoreRecord> loaded = load_plan_store(is, 12);
  ASSERT_EQ(loaded.size(), reasons.size());
  for (std::size_t k = 0; k < reasons.size(); ++k) {
    EXPECT_EQ(loaded[k].reason, reasons[k].first) << k;
  }
}

TEST(PlanService, LoadedQuarantineReenqueuesItsRepair) {
  const TopologyProfile profile = cluster_profile(8);
  const auto path = temp_store("optibar_plan_store_reenqueue.txt");
  const std::vector<std::size_t> subset{0, 1, 2, 3, 4};
  {
    EngineOptions options;  // no auto_repair: quarantine stays put
    options.quarantine_threshold = 1;
    BarrierLibrary library(profile, options);
    library.subset_plan(subset);
    EXPECT_TRUE(library.report_execution_failure(subset, "stall"));
    library.wait_for_repairs();  // immediate: no worker configured
    EXPECT_EQ(library.plan_state(subset), PlanState::kQuarantined);
    library.save_store(path.string());
  }

  // The restarted service has the repair loop on: loading the store
  // picks the quarantined plan up and repairs it in the background.
  EngineOptions options = repair_options();
  options.quarantine_threshold = 1;
  BarrierLibrary restarted(profile, options);
  restarted.load_store(path.string());
  restarted.wait_for_repairs();
  EXPECT_EQ(restarted.plan_state(subset), PlanState::kProbation);
  EXPECT_FALSE(restarted.subset_plan(subset).degraded);
  EXPECT_GE(restarted.stats().repairs_promoted, 1u);
  std::filesystem::remove(path);
}

TEST(PlanService, LoadStoreRequiresAnEmptyLibrary) {
  const TopologyProfile profile = cluster_profile(8);
  const auto path = temp_store("optibar_plan_store_nonempty.txt");
  {
    BarrierLibrary library(profile);
    library.subset_plan({0, 1, 2});
    library.save_store(path.string());
  }
  BarrierLibrary library(profile);
  library.subset_plan({0, 1});  // no longer empty
  EXPECT_THROW(library.load_store(path.string()), Error);
  std::filesystem::remove(path);
}

TEST(PlanService, StoreRejectsARanksMismatch) {
  const auto path = temp_store("optibar_plan_store_ranks.txt");
  {
    BarrierLibrary library(cluster_profile(12));
    library.subset_plan({0, 1, 2});
    library.save_store(path.string());
  }
  BarrierLibrary smaller(cluster_profile(8));
  EXPECT_THROW(smaller.load_store(path.string()), IoError);
  EXPECT_EQ(smaller.cache_size(), 0u);
  std::filesystem::remove(path);
}

TEST(PlanService, CorruptedAndTruncatedStoresThrowIoError) {
  const TopologyProfile profile = cluster_profile(8);
  const auto path = temp_store("optibar_plan_store_corrupt.txt");
  std::string saved;
  {
    EngineOptions options;
    options.quarantine_threshold = 1;
    BarrierLibrary library(profile, options);
    library.subset_plan({0, 1, 2, 3});
    library.report_execution_failure({0, 1, 2, 3}, "multi\nline\nreason");
    library.save_store(path.string());
    std::ifstream in(path);
    std::ostringstream all;
    all << in.rdbuf();
    saved = all.str();
  }
  ASSERT_FALSE(saved.empty());

  const auto expect_rejected = [&](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    BarrierLibrary fresh(profile);
    EXPECT_THROW(fresh.load_store(path.string()), IoError) << text.size();
    EXPECT_EQ(fresh.cache_size(), 0u);
    // A rejected load leaves a perfectly usable library behind.
    EXPECT_FALSE(fresh.subset_plan({0, 1}).degraded);
  };

  expect_rejected("");                          // empty file
  expect_rejected("not-a-plan-store v1\n");     // wrong magic
  expect_rejected(saved.substr(0, saved.size() / 2));  // truncated
  expect_rejected(saved.substr(0, saved.size() - 4));  // missing "end"

  // An unknown state token is rejected, not defaulted.
  std::string tampered = saved;
  const auto pos = tampered.find("state quarantined");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, std::string("state quarantined").size(),
                   "state wounded");
  expect_rejected(tampered);

  // The round trip itself preserves the escaped multi-line reason.
  std::ofstream out(path, std::ios::trunc);
  out << saved;
  out.close();
  EngineOptions options;
  options.quarantine_threshold = 1;
  BarrierLibrary strict(profile, options);
  strict.load_store(path.string());
  EXPECT_NE(strict.plan_health({0, 1, 2, 3}).reason.find("multi\nline"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(PlanService, StoreParserRejectsRetuningAndDuplicates) {
  const StoredSchedule plan{dissemination_barrier(3), {}};
  PlanStoreRecord record;
  record.subset = {0, 1, 2};
  record.plan = plan;
  record.predicted_cost = 1e-6;

  {
    // kRetuning never round-trips: save maps it to kQuarantined...
    PlanStoreRecord retuning = record;
    retuning.state = PlanState::kRetuning;
    std::ostringstream os;
    save_plan_store(os, 8, {retuning});
    std::istringstream is(os.str());
    const auto loaded = load_plan_store(is, 8);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].state, PlanState::kQuarantined);
    // ...and a hand-written "retuning" token is rejected on load.
    std::string text = os.str();
    const auto pos = text.find("state quarantined");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string("state quarantined").size(),
                 "state retuning");
    std::istringstream bad(text);
    EXPECT_THROW(load_plan_store(bad, 8), IoError);
  }
  {
    // Two records for the same subset cannot both be authoritative.
    std::ostringstream os;
    save_plan_store(os, 8, {record, record});
    std::istringstream is(os.str());
    EXPECT_THROW(load_plan_store(is, 8), IoError);
  }
}

TEST(PlanService, BoundedCacheEvictsSmallestSubsetsFirst) {
  EngineOptions options;
  options.service.max_cache_entries = 2;
  BarrierLibrary library(cluster_profile(16), options);

  const std::vector<std::size_t> big{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::size_t> small_a{0, 1};
  const std::vector<std::size_t> small_b{2, 3};
  library.subset_plan(big);
  library.subset_plan(small_a);
  EXPECT_EQ(library.cache_size(), 2u);

  // Inserting a third entry evicts the cheapest-to-retune (smallest)
  // subset, never the one just inserted.
  library.subset_plan(small_b);
  EXPECT_EQ(library.cache_size(), 2u);
  EXPECT_EQ(library.stats().evictions, 1u);

  std::size_t tunes = library.stats().tunes;
  library.subset_plan(big);  // survived: costliest to rebuild
  EXPECT_EQ(library.stats().tunes, tunes);
  library.subset_plan(small_b);  // survived: was the keep key
  EXPECT_EQ(library.stats().tunes, tunes);
  library.subset_plan(small_a);  // evicted: re-tunes on demand
  EXPECT_EQ(library.stats().tunes, tunes + 1);
}

TEST(PlanService, MeasuredLatencyValidationRejectsGarbage) {
  BarrierLibrary library(cluster_profile(8));
  const std::vector<std::size_t> subset{0, 1, 2, 3};
  library.subset_plan(subset);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Report = void (BarrierLibrary::*)(const std::vector<std::size_t>&,
                                          std::size_t, std::size_t, double);
  for (const Report report : {&BarrierLibrary::report_measured_latency,
                              &BarrierLibrary::report_measured_overhead}) {
    EXPECT_THROW((library.*report)(subset, 0, 1, nan), Error);
    EXPECT_THROW((library.*report)(subset, 0, 1, inf), Error);
    EXPECT_THROW((library.*report)(subset, 0, 1, -inf), Error);
    EXPECT_THROW((library.*report)(subset, 0, 1, -1e-6), Error);
    EXPECT_THROW((library.*report)(subset, 1, 1, 1e-6), Error);
    EXPECT_THROW((library.*report)(subset, 4, 0, 1e-6), Error);
    EXPECT_THROW((library.*report)(subset, 0, 4, 1e-6), Error);
    // Feedback for a subset that never got a plan is a caller bug.
    EXPECT_THROW((library.*report)({4, 5}, 0, 1, 1e-6), Error);
  }
  EXPECT_EQ(library.stats().latency_reports, 0u);
  EXPECT_EQ(library.stats().overhead_reports, 0u);
  EXPECT_DOUBLE_EQ(library.plan_health(subset).observed_drift, 0.0);

  library.report_measured_latency(subset, 0, 1, 1e-6);
  library.report_measured_overhead(subset, 0, 1, 1e-6);
  EXPECT_EQ(library.stats().latency_reports, 1u);
  EXPECT_EQ(library.stats().overhead_reports, 1u);
  EXPECT_GE(library.plan_health(subset).observed_drift, 0.0);
}

TEST(PlanService, DriftBeyondThresholdTriggersABackgroundRetune) {
  EngineOptions options = repair_options();
  options.service.drift_alpha = 1.0;  // converge on one observation
  options.service.drift_retune_threshold = 0.2;
  BarrierLibrary library(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3, 4, 5};
  const LibraryEntry& tuned = library.subset_plan(subset);
  const std::uint64_t tuned_generation = tuned.generation;
  const TopologyProfile sub = library.profile().restrict_to(subset);

  // Make every link of the schedule's busiest sender ten times slower
  // than profiled (drift 9.0 >> 0.2): a re-tune that demotes the hub
  // strictly beats the prior plan, so the amortization rule promotes.
  const Schedule& schedule = tuned.stored.schedule;
  std::vector<std::size_t> sends(subset.size(), 0);
  for (std::size_t stage = 0; stage < schedule.stage_count(); ++stage) {
    for (std::size_t s = 0; s < subset.size(); ++s) {
      sends[s] += schedule.targets_of(s, stage).size();
    }
  }
  std::size_t hub = 0;
  for (std::size_t s = 1; s < subset.size(); ++s) {
    if (sends[s] > sends[hub]) hub = s;
  }
  // Each report can kick off a repair before the full perturbation is
  // visible, and a partial view may (correctly) decline the re-tune;
  // keep reporting rounds until one repair sees enough to promote.
  for (int round = 0; round < 10 && library.stats().drift_retunes == 0;
       ++round) {
    for (std::size_t j = 0; j < subset.size(); ++j) {
      if (j == hub) continue;
      library.report_measured_latency(subset, hub, j, 10.0 * sub.l(hub, j));
      library.report_measured_latency(subset, j, hub, 10.0 * sub.l(j, hub));
    }
    library.wait_for_repairs();
  }
  const ServiceStats stats = library.stats();
  EXPECT_GE(stats.repairs_started, 1u);
  EXPECT_GE(stats.drift_retunes, 1u);
  EXPECT_EQ(stats.repairs_failed, 0u);  // declined drift jobs never "fail"
  // Drift repairs never demote the plan: it keeps serving (healthy, no
  // probation) and the promoted successor is a fresh generation.
  EXPECT_EQ(library.plan_state(subset), PlanState::kHealthy);
  const LibraryEntry& promoted = library.subset_plan(subset);
  EXPECT_FALSE(promoted.degraded);
  EXPECT_GT(promoted.generation, tuned_generation);
}

TEST(PlanService, DeclinedDriftRetuneReanchorsTheMonitor) {
  // A drift re-tune the amortization rule declines must still re-anchor
  // the drift monitor to the view it evaluated. Otherwise drift stays
  // above the threshold, and every later report, even one repeating an
  // already evaluated value, starts another full re-tune.
  EngineOptions options = repair_options();
  options.service.drift_alpha = 1.0;     // converge on one observation
  options.service.expected_calls = 0.0;  // no re-tune ever amortizes
  const std::size_t ranks = 16;
  BarrierLibrary library(cluster_profile(ranks), options);
  std::vector<std::size_t> world(ranks);
  std::iota(world.begin(), world.end(), std::size_t{0});
  const LibraryEntry& tuned = library.subset_plan(world);
  const MachineSpec machine = quad_cluster();
  const TopologyProfile moved =
      generate_profile(machine, block_mapping(machine, ranks));
  // Draining after every report makes every decision deterministic.
  const auto feed = [&] {
    for (std::size_t i = 0; i < ranks; ++i) {
      for (std::size_t j = i + 1; j < ranks; ++j) {
        library.report_measured_latency(world, i, j, moved.l(i, j));
        library.wait_for_repairs();
      }
    }
  };

  feed();
  const ServiceStats fed = library.stats();
  ASSERT_GE(fed.repairs_started, 1u);
  EXPECT_EQ(fed.drift_retunes, 0u);
  const double drift = library.plan_health(world).observed_drift;
  EXPECT_LT(drift, options.service.drift_retune_threshold);

  // The same observations again: nothing new to evaluate.
  feed();
  EXPECT_EQ(library.stats().repairs_started, fed.repairs_started);
  EXPECT_DOUBLE_EQ(library.plan_health(world).observed_drift, drift);
  EXPECT_EQ(&library.subset_plan(world), &tuned);
}

TEST(PlanService, MovedLibraryKeepsItsRepairWorker) {
  EngineOptions options = repair_options();
  options.quarantine_threshold = 1;
  BarrierLibrary original(cluster_profile(8), options);
  const std::vector<std::size_t> subset{0, 1, 2, 3};
  original.subset_plan(subset);

  BarrierLibrary library(std::move(original));
  EXPECT_TRUE(library.report_execution_failure(subset, "stall"));
  library.wait_for_repairs();
  EXPECT_EQ(library.plan_state(subset), PlanState::kProbation);
  EXPECT_EQ(library.stats().repairs_promoted, 1u);
}

TEST(PlanService, StatsCountTheBasicTraffic) {
  BarrierLibrary library(cluster_profile(8));
  library.wait_for_repairs();  // immediate when auto_repair is off
  const ServiceStats zero = library.stats();
  EXPECT_EQ(zero.plan_requests, 0u);
  EXPECT_EQ(zero.tunes, 0u);

  const std::vector<std::size_t> subset{0, 1, 2};
  library.subset_plan(subset);
  library.subset_plan(subset);
  library.report_execution_success(subset);
  library.report_execution_failure(subset, "stall");
  const ServiceStats stats = library.stats();
  EXPECT_EQ(stats.plan_requests, 2u);
  EXPECT_EQ(stats.tunes, 1u);
  EXPECT_EQ(stats.success_reports, 1u);
  EXPECT_EQ(stats.stall_reports, 1u);
  EXPECT_EQ(stats.quarantines, 0u);
}

TEST(PlanService, MixedSoakRunsCleanWithRepairsLive) {
  // The tsan target: concurrent clients race lookups, latency reports,
  // successes and injected stalls against the background repair worker.
  EngineOptions options = repair_options();
  options.threads = 2;
  BarrierLibrary library(cluster_profile(16), options);

  SoakOptions soak;
  soak.operations = 20000;
  soak.clients = 4;
  soak.subsets = 6;
  soak.max_subset = 6;
  soak.seed = 7;
  const SoakResult result = run_service_soak(library, soak);
  EXPECT_EQ(result.operations, 20000u);
  EXPECT_GT(result.ops_per_second, 0.0);
  EXPECT_LE(result.p50_ns, result.p99_ns);
  EXPECT_EQ(result.dropped_reports, 0u);  // unbounded cache: no races lost
  EXPECT_GE(result.stats.plan_requests, 1u);
  EXPECT_GE(result.cache_size, soak.subsets);
  EXPECT_FALSE(result.describe().empty());

  // Whatever the soak quarantined, the worker finished dealing with it.
  EXPECT_EQ(result.stats.repairs_started,
            result.stats.repairs_promoted + result.stats.repairs_failed);
}

}  // namespace
}  // namespace optibar
