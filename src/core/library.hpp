// Self-healing runtime plan service (Section VIII).
//
// "Another appealing direction would be to employ this method in a
//  library implementation which would benefit unmodified application
//  codes. ... Implementing a solution which stores the profile in a
//  manner which can be efficiently indexed at run-time would alleviate
//  this problem."
//
// BarrierLibrary is that solution grown into a long-running service:
// it owns a machine profile, serves tuned barrier plans on demand for
// the full rank set or any sub-communicator, and — unlike the earlier
// batch cache — keeps every served plan healthy over time.
//
// Concurrency: the plan cache is sharded, each shard behind a
// std::shared_mutex, so repeated subset_plan() hits are read-locked
// lookups and distinct subsets tune genuinely in parallel. Within a
// slot the served entry is published through one atomic pointer
// (release store / acquire load); entries are immutable once published
// and stay alive until the slot dies, so the hot read path takes no
// lock at all.
//
// Self-healing (see core/plan_health.hpp for the state machine): the
// resilience layer's StallReports and measured pairwise costs feed
// report_execution_failure / report_measured_{overhead,latency}; past the
// quarantine threshold a plan is demoted to a dissemination fallback
// *while* a background worker repairs it — inflating the O/L (and R)
// estimates of the implicated edges, re-tuning with the prior schedule
// as a warm-start candidate (Estefanel & Mounié, "Fast Tuning of
// Intra-Cluster Collective Communications": reuse prior results to cut
// tuning cost), and promoting the repaired plan only after it beats
// the fallback under the netsim simulator. Repairs are capped and
// backed off; a plan whose repairs are exhausted is permanently
// degraded. The whole loop is opt-in via ServiceOptions::auto_repair.
//
// Warm restart: save_store()/load_store() persist plans *plus* their
// health records (docs/FORMATS.md, "Plan store v1"), so a restarted
// service resumes with quarantines and probations intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "barrier/schedule_io.hpp"
#include "core/plan_health.hpp"
#include "core/tuner.hpp"
#include "topology/profile.hpp"

namespace optibar {

class ThreadPool;
struct PlanStoreRecord;

namespace simmpi {
struct StallReport;
}

/// One cached tuning result for a rank subset. Rank indices inside the
/// stored schedule are *local* (0..k-1) in the order of the subset the
/// caller passed; the caller owns the local<->global translation, as a
/// sub-communicator implementation would. In process, the plan runs on
/// simmpi::ScheduleExecutor(stored.schedule). Entries are immutable
/// once published: a repair promotes a *new* entry (fresh generation)
/// and the old one stays valid for the slot's lifetime.
struct LibraryEntry {
  std::vector<std::size_t> global_ranks;
  StoredSchedule stored;
  double predicted_cost = 0.0;
  /// True when this entry is a quarantine fallback (a known-safe
  /// dissemination barrier) rather than the tuned plan — see
  /// report_execution_failure().
  bool degraded = false;
  std::string degradation_reason;
  /// Library-wide unique publication id; bumped for every entry built,
  /// so it keys external per-plan caches (the C API) unambiguously.
  std::uint64_t generation = 0;
};

/// Monotonic operation counters of the service, all since construction
/// (load_store does not replay history). Snapshot via stats().
struct ServiceStats {
  std::size_t plan_requests = 0;     ///< subset_plan / full_barrier calls
  std::size_t tunes = 0;             ///< cache misses that ran the tuner
  std::size_t stall_reports = 0;     ///< report_execution_failure calls
  std::size_t overhead_reports = 0;  ///< accepted measured overheads
  std::size_t latency_reports = 0;   ///< accepted measured latencies
  std::size_t success_reports = 0;   ///< report_execution_success calls
  std::size_t quarantines = 0;       ///< healthy/suspect -> quarantined
  std::size_t repairs_started = 0;   ///< repair jobs the worker began
  std::size_t repairs_promoted = 0;  ///< repairs that beat the fallback
  std::size_t repairs_failed = 0;    ///< repairs that did not
  std::size_t repairs_rejected = 0;  ///< enqueues dropped: queue full
  std::size_t warm_start_hits = 0;   ///< prior schedule won the re-tune
  std::size_t drift_retunes = 0;     ///< drift-triggered promotions
  std::size_t permanent_degradations = 0;  ///< entries that hit kDegraded
  std::size_t evictions = 0;         ///< entries evicted by the cache bound
};

class BarrierLibrary {
 public:
  /// Takes the machine profile measured by the profiling step.
  explicit BarrierLibrary(TopologyProfile profile, EngineOptions options = {});
  ~BarrierLibrary();

  BarrierLibrary(BarrierLibrary&&) noexcept;
  BarrierLibrary& operator=(BarrierLibrary&&) = delete;

  /// Load the profile from disk (the Figure 1 decoupling).
  static BarrierLibrary from_profile_file(const std::string& path,
                                          EngineOptions options = {});

  std::size_t ranks() const { return profile_.ranks(); }
  const TopologyProfile& profile() const { return profile_; }
  const EngineOptions& options() const { return options_; }

  /// Tuned barrier over all ranks. First call tunes; later calls hit the
  /// cache.
  const LibraryEntry& full_barrier();

  /// Tuned barrier over a rank subset (a sub-communicator). The subset
  /// must be non-empty, in-range and duplicate-free; order defines the
  /// local rank numbering. Returned references stay valid for the
  /// library's lifetime (until eviction when
  /// ServiceOptions::max_cache_entries bounds the cache).
  const LibraryEntry& subset_plan(const std::vector<std::size_t>& ranks);

  /// Batch form: tune every subset, fanning the not-yet-cached ones out
  /// across the pool (serial without one). Validates all subsets before
  /// tuning any. Results are positional; duplicate subsets yield the
  /// same entry pointer.
  std::vector<const LibraryEntry*> tune_all(
      const std::vector<std::vector<std::size_t>>& subsets);

  /// Number of distinct tuned subsets currently cached.
  std::size_t cache_size() const;

  /// Degraded-mode feedback path: callers that executed a served plan
  /// and watched it stall (e.g. a StallReport from the resilient
  /// executor) report the failure here. After
  /// EngineOptions::quarantine_threshold reports for the same subset the
  /// library quarantines the tuned plan and serves a conservative
  /// dissemination fallback for that subset — tuned plans are an
  /// optimization, not a correctness dependency. With
  /// ServiceOptions::auto_repair the quarantine also enqueues a
  /// background repair; a failure during probation re-quarantines and
  /// eventually degrades the plan permanently. Returns true when the
  /// subset is (now) served degraded. The subset must have been
  /// successfully tuned before (a plan was served for it).
  bool report_execution_failure(const std::vector<std::size_t>& ranks,
                                const std::string& reason);

  /// Structured form: extracts the implicated (src, dst) edges from the
  /// report's pending-edge set as repair evidence (local subset
  /// numbering, matching the report of a plan served for `ranks`) in
  /// addition to counting the failure.
  bool report_execution_failure(const std::vector<std::size_t>& ranks,
                                const simmpi::StallReport& report);

  /// Positive feedback: a served plan executed to completion. Advances
  /// probation toward `healthy` and clears suspect counts. No-op in
  /// quarantined/degraded states (the fallback working is expected).
  void report_execution_success(const std::vector<std::size_t>& ranks);

  /// Feed one measured pairwise latency (local subset indices, seconds)
  /// into the subset's drift monitor. Rejects non-finite or negative
  /// values, i == j, and out-of-range indices with an Error. With
  /// auto_repair, drift beyond ServiceOptions::drift_retune_threshold
  /// triggers a background re-tune gated by the amortization rule; the
  /// re-tune re-anchors the monitor to the view it evaluated, whether
  /// it promotes or declines, so only drift beyond that view can start
  /// the next one.
  void report_measured_latency(const std::vector<std::size_t>& ranks,
                               std::size_t src, std::size_t dst,
                               double seconds);

  /// As report_measured_latency, for one measured pairwise overhead O
  /// (the per-message startup cost; same validation and drift gate).
  void report_measured_overhead(const std::vector<std::size_t>& ranks,
                                std::size_t src, std::size_t dst,
                                double seconds);

  /// Failure reports recorded so far for a subset (0 when never tuned).
  std::size_t failure_count(const std::vector<std::size_t>& ranks);

  /// True when the subset is currently served its fallback.
  bool is_quarantined(const std::vector<std::size_t>& ranks);

  /// Lifecycle state of a subset's plan. Throws when no plan was ever
  /// served for the subset.
  PlanState plan_state(const std::vector<std::size_t>& ranks);

  /// Full health record of a subset's plan (state, counters, drift).
  PlanHealthView plan_health(const std::vector<std::size_t>& ranks);

  /// Block until the repair queue is drained and no repair is running.
  /// Returns immediately when auto_repair is off.
  void wait_for_repairs();

  /// Snapshot of the service counters.
  ServiceStats stats() const;

  /// Persist every cached plan plus its health record to `path` in the
  /// plan-store v1 format (docs/FORMATS.md). The write goes to a
  /// temporary sibling first and is renamed into place, so a crash
  /// mid-save never corrupts an existing store. The serialization
  /// itself lives in core/plan_store.{hpp,cpp}.
  void save_store(const std::string& path);

  /// Warm restart: load a plan store written by save_store() into this
  /// (still empty) library. Health states are restored — quarantined
  /// entries rebuild their fallback and, with auto_repair, re-enqueue
  /// their repair. Malformed or truncated stores throw IoError.
  void load_store(const std::string& path);

 private:
  struct Slot;
  struct Shard;
  struct Service;
  struct RepairJob;

  void validate_subset(const std::vector<std::size_t>& ranks) const;
  /// Get-or-create the cache slot of a subset (no tuning).
  std::shared_ptr<Slot> slot_for(const std::vector<std::size_t>& ranks);
  /// Look up a subset's slot without creating one; null when absent.
  std::shared_ptr<Slot> find_slot(const std::vector<std::size_t>& ranks);
  /// As find_slot, but requires a slot that has served a plan.
  std::shared_ptr<Slot> served_slot(const std::vector<std::size_t>& ranks);
  /// Blocking build: tune into the slot if nobody has, wait otherwise.
  const LibraryEntry& built_entry(Slot& slot,
                                  const std::vector<std::size_t>& ranks,
                                  ThreadPool* pool);
  void build_entry_locked(Slot& slot, const std::vector<std::size_t>& ranks,
                          ThreadPool* pool);
  /// Shared body of report_measured_{overhead,latency}: validate the
  /// observation, fold it into the subset's drift monitor (as O when
  /// `overhead`, else as L), then apply the drift gate.
  void report_measurement(const std::vector<std::size_t>& ranks,
                          std::size_t src, std::size_t dst, double seconds,
                          bool overhead);
  /// Shared failure-transition logic of both report overloads.
  bool record_failure(Slot& slot, const std::vector<std::size_t>& ranks,
                      const std::string& reason,
                      const std::vector<std::pair<std::size_t, std::size_t>>&
                          evidence);
  /// Demote to the fallback (building it if needed) under slot lock.
  void quarantine_locked(Slot& slot, const std::vector<std::size_t>& ranks,
                         const std::string& reason);
  /// Build and publish a fresh dissemination-fallback entry carrying
  /// `reason`; caller holds the slot lock.
  void publish_fallback_locked(Slot& slot,
                               const std::vector<std::size_t>& ranks,
                               const std::string& reason);
  /// Lazily create the slot's drift monitor (baseline: subset profile).
  void ensure_monitor_locked(Slot& slot,
                             const std::vector<std::size_t>& ranks);
  /// Queue a repair job if auto_repair allows; caller holds slot lock.
  void maybe_enqueue_repair_locked(const std::shared_ptr<Slot>& slot,
                                   const std::vector<std::size_t>& ranks,
                                   bool drift_only);
  /// Enforce ServiceOptions::max_cache_entries after an insert.
  void enforce_cache_bound(const std::vector<std::size_t>& keep);
  /// Insert one loaded store record as a cache slot (plan_store.cpp).
  void insert_record(const PlanStoreRecord& record);

  /// The background repair loop; static so the worker thread never
  /// touches a possibly-moved BarrierLibrary object — everything it
  /// needs lives in the heap-allocated Service.
  static void repair_worker(Service* service);
  static void run_repair(Service& service, RepairJob job);
  static void enqueue_locked(Service& service, RepairJob job);

  TopologyProfile profile_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when resolved width is 1
  std::size_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
  /// Declared last: destroyed first, so the worker thread is joined
  /// while the pool and shards it may still reference are alive.
  std::unique_ptr<Service> service_;
};

}  // namespace optibar
