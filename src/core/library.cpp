#include "core/library.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "core/plan_store.hpp"
#include "core/retune.hpp"
#include "netsim/engine.hpp"
#include "simmpi/resilience.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace optibar {

namespace {

/// FNV-1a over the subset elements; order-sensitive on purpose (order
/// defines local rank numbering, so permutations are distinct plans).
struct SubsetHash {
  std::size_t operator()(const std::vector<std::size_t>& ranks) const {
    std::size_t h = 1469598103934665603ull;
    for (std::size_t r : ranks) {
      h ^= r + 0x9e3779b97f4a7c15ull;
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Cap on accumulated stall evidence per slot; a misbehaving reporter
/// cannot grow the pair list without bound.
constexpr std::size_t kMaxEvidencePairs = 4096;

}  // namespace

/// One cache entry. Concurrent first requests for the same subset
/// serialize on build_mutex; after that, the entry the slot serves is
/// published through the lock-free `active` pointer. Entries are
/// immutable once published and owned by `versions`, so a reader's
/// entry stays valid even while a repair promotes a successor.
struct BarrierLibrary::Slot {
  std::mutex build_mutex;
  std::exception_ptr error;  // sticky: a failed tune stays failed

  /// The entry subset_plan() serves; release-published, acquire-read.
  std::atomic<const LibraryEntry*> active{nullptr};
  /// Lifecycle state (plan_health.hpp); written under build_mutex,
  /// readable lock-free.
  std::atomic<PlanState> state{PlanState::kHealthy};
  /// Cumulative failure reports; monotonic.
  std::atomic<std::size_t> failures{0};

  // Everything below is guarded by build_mutex.
  std::vector<std::unique_ptr<LibraryEntry>> versions;
  const LibraryEntry* tuned = nullptr;     ///< latest tuned version
  const LibraryEntry* fallback = nullptr;  ///< latest fallback version
  std::size_t repair_attempts = 0;
  std::size_t probation_left = 0;
  std::string last_reason;
  /// Deduplicated (src, dst) local pairs blamed by StallReports since
  /// the last repair consumed them.
  std::vector<std::pair<std::size_t, std::size_t>> evidence;
  std::unique_ptr<DriftMonitor> monitor;  ///< lazily created
  bool repair_pending = false;  ///< a repair job is queued or running
};

struct BarrierLibrary::Shard {
  mutable std::shared_mutex mutex;
  std::unordered_map<std::vector<std::size_t>, std::shared_ptr<Slot>,
                     SubsetHash>
      slots;
};

/// One queued repair. Holds the slot by shared_ptr so an eviction can
/// never dangle a job that is already in flight.
struct BarrierLibrary::RepairJob {
  std::shared_ptr<Slot> slot;
  std::vector<std::size_t> ranks;
  bool drift_only = false;
  std::chrono::steady_clock::time_point due;
};

/// All state the background worker touches. Heap-allocated and owned
/// by unique_ptr so its address survives a BarrierLibrary move; the
/// worker thread is handed a Service* and never dereferences the
/// (movable) library object itself.
struct BarrierLibrary::Service {
  explicit Service(EngineOptions engine_options)
      : options(std::move(engine_options)) {}

  EngineOptions options;       ///< worker's copy of the knobs
  ThreadPool* pool = nullptr;  ///< pointee owned by the library; stable

  std::atomic<std::uint64_t> next_generation{0};
  std::atomic<std::size_t> slot_count{0};

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable idle_cv;
  std::deque<RepairJob> queue;
  std::size_t active_jobs = 0;
  bool stop = false;
  bool started = false;
  std::thread worker;

  // ServiceStats counters, relaxed atomics.
  std::atomic<std::size_t> plan_requests{0};
  std::atomic<std::size_t> tunes{0};
  std::atomic<std::size_t> stall_reports{0};
  std::atomic<std::size_t> overhead_reports{0};
  std::atomic<std::size_t> latency_reports{0};
  std::atomic<std::size_t> success_reports{0};
  std::atomic<std::size_t> quarantines{0};
  std::atomic<std::size_t> repairs_started{0};
  std::atomic<std::size_t> repairs_promoted{0};
  std::atomic<std::size_t> repairs_failed{0};
  std::atomic<std::size_t> repairs_rejected{0};
  std::atomic<std::size_t> warm_start_hits{0};
  std::atomic<std::size_t> drift_retunes{0};
  std::atomic<std::size_t> permanent_degradations{0};
  std::atomic<std::size_t> evictions{0};

  ~Service() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    work_cv.notify_all();
    if (worker.joinable()) {
      worker.join();
    }
  }
};

BarrierLibrary::BarrierLibrary(TopologyProfile profile, EngineOptions options)
    : profile_(std::move(profile)), options_(std::move(options)) {
  options_.validate();
  OPTIBAR_REQUIRE(profile_.ranks() > 0, "empty profile");
  shard_mask_ = options_.cache_shards - 1;  // power of two, validated
  shards_ = std::make_unique<Shard[]>(options_.cache_shards);
  if (options_.resolved_threads() > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.resolved_threads());
  }
  service_ = std::make_unique<Service>(options_);
  service_->pool = pool_.get();
}

BarrierLibrary::~BarrierLibrary() = default;
BarrierLibrary::BarrierLibrary(BarrierLibrary&&) noexcept = default;

BarrierLibrary BarrierLibrary::from_profile_file(const std::string& path,
                                                 EngineOptions options) {
  return BarrierLibrary(TopologyProfile::load_file(path), std::move(options));
}

const LibraryEntry& BarrierLibrary::full_barrier() {
  std::vector<std::size_t> all(profile_.ranks());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return subset_plan(all);
}

void BarrierLibrary::validate_subset(
    const std::vector<std::size_t>& ranks) const {
  OPTIBAR_REQUIRE(!ranks.empty(), "empty rank subset");
  std::set<std::size_t> seen;
  for (std::size_t r : ranks) {
    OPTIBAR_REQUIRE(r < profile_.ranks(),
                    "rank " << r << " out of range (" << profile_.ranks()
                            << ")");
    OPTIBAR_REQUIRE(seen.insert(r).second, "duplicate rank " << r);
  }
}

std::shared_ptr<BarrierLibrary::Slot> BarrierLibrary::find_slot(
    const std::vector<std::size_t>& ranks) {
  Shard& shard = shards_[SubsetHash{}(ranks)&shard_mask_];
  std::shared_lock<std::shared_mutex> read(shard.mutex);
  auto it = shard.slots.find(ranks);
  return it == shard.slots.end() ? nullptr : it->second;
}

std::shared_ptr<BarrierLibrary::Slot> BarrierLibrary::served_slot(
    const std::vector<std::size_t>& ranks) {
  std::shared_ptr<Slot> slot = find_slot(ranks);
  OPTIBAR_REQUIRE(slot != nullptr &&
                      slot->active.load(std::memory_order_acquire) != nullptr,
                  "no plan was ever served for this subset");
  return slot;
}

std::shared_ptr<BarrierLibrary::Slot> BarrierLibrary::slot_for(
    const std::vector<std::size_t>& ranks) {
  Shard& shard = shards_[SubsetHash{}(ranks)&shard_mask_];
  {
    std::shared_lock<std::shared_mutex> read(shard.mutex);
    auto it = shard.slots.find(ranks);
    if (it != shard.slots.end()) {
      return it->second;
    }
  }
  std::shared_ptr<Slot> slot;
  bool inserted = false;
  {
    std::unique_lock<std::shared_mutex> write(shard.mutex);
    auto [it, fresh] = shard.slots.try_emplace(ranks);
    if (fresh) {
      it->second = std::make_shared<Slot>();
    }
    slot = it->second;
    inserted = fresh;
  }
  if (inserted) {
    service_->slot_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t cap = options_.service.max_cache_entries;
    if (cap > 0 &&
        service_->slot_count.load(std::memory_order_relaxed) > cap) {
      enforce_cache_bound(ranks);
    }
  }
  return slot;
}

void BarrierLibrary::enforce_cache_bound(const std::vector<std::size_t>& keep) {
  const std::size_t cap = options_.service.max_cache_entries;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // Bounded number of sweeps: an eviction pass that finds every
  // candidate busy gives up rather than spinning.
  for (int sweep = 0; sweep < 64; ++sweep) {
    if (service_->slot_count.load(std::memory_order_relaxed) <= cap) {
      return;
    }
    // Cheapest-to-retune-first: the smallest subset is the cheapest to
    // rebuild on a future miss. Entries under repair are never evicted.
    std::size_t best_shard = kNone;
    std::vector<std::size_t> best_key;
    std::size_t best_size = kNone;
    for (std::size_t s = 0; s <= shard_mask_; ++s) {
      std::shared_lock<std::shared_mutex> read(shards_[s].mutex);
      for (const auto& [key, slot] : shards_[s].slots) {
        if (key == keep || key.size() >= best_size) {
          continue;
        }
        std::unique_lock<std::mutex> guard(slot->build_mutex,
                                           std::try_to_lock);
        if (!guard.owns_lock() || slot->repair_pending ||
            slot->state.load(std::memory_order_relaxed) ==
                PlanState::kRetuning) {
          continue;
        }
        best_shard = s;
        best_key = key;
        best_size = key.size();
      }
    }
    if (best_shard == kNone) {
      return;  // everything left is busy or the fresh insert
    }
    Shard& shard = shards_[best_shard];
    std::unique_lock<std::shared_mutex> write(shard.mutex);
    auto it = shard.slots.find(best_key);
    if (it == shard.slots.end()) {
      continue;
    }
    // Hold the slot past the guard: erase() may drop the map's last
    // reference, and the guard must not unlock a destroyed mutex.
    std::shared_ptr<Slot> doomed = it->second;
    {
      std::unique_lock<std::mutex> guard(doomed->build_mutex,
                                         std::try_to_lock);
      if (!guard.owns_lock() || doomed->repair_pending ||
          doomed->state.load(std::memory_order_relaxed) ==
              PlanState::kRetuning) {
        continue;  // became busy between the scan and the erase
      }
      shard.slots.erase(it);
    }
    service_->slot_count.fetch_sub(1, std::memory_order_relaxed);
    service_->evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void BarrierLibrary::build_entry_locked(Slot& slot,
                                        const std::vector<std::size_t>& ranks,
                                        ThreadPool* pool) {
  // Caller holds slot.build_mutex and has checked !active && !error.
  try {
    const TopologyProfile local = profile_.restrict_to(ranks);
    const TuneResult tuned = tune_barrier(local, options_, pool);
    auto entry = std::make_unique<LibraryEntry>();
    entry->global_ranks = ranks;
    entry->stored.schedule = tuned.schedule();
    entry->stored.awaited_stages = tuned.barrier().awaited_stages;
    entry->predicted_cost = tuned.predicted_cost();
    entry->generation =
        service_->next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
    slot.tuned = entry.get();
    slot.versions.push_back(std::move(entry));
    service_->tunes.fetch_add(1, std::memory_order_relaxed);
    slot.active.store(slot.tuned, std::memory_order_release);
  } catch (...) {
    slot.error = std::current_exception();
  }
}

const LibraryEntry& BarrierLibrary::built_entry(
    Slot& slot, const std::vector<std::size_t>& ranks, ThreadPool* pool) {
  if (const LibraryEntry* entry =
          slot.active.load(std::memory_order_acquire)) {
    return *entry;  // fast path: no lock at all on a warm cache
  }
  std::lock_guard<std::mutex> build(slot.build_mutex);
  if (slot.active.load(std::memory_order_relaxed) == nullptr && !slot.error) {
    build_entry_locked(slot, ranks, pool);
  }
  if (slot.error) {
    std::rethrow_exception(slot.error);
  }
  return *slot.active.load(std::memory_order_relaxed);
}

const LibraryEntry& BarrierLibrary::subset_plan(
    const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  service_->plan_requests.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<Slot> slot = slot_for(ranks);
  return built_entry(*slot, ranks, pool_.get());
}

std::vector<const LibraryEntry*> BarrierLibrary::tune_all(
    const std::vector<std::vector<std::size_t>>& subsets) {
  std::vector<std::shared_ptr<Slot>> slots(subsets.size());
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    validate_subset(subsets[i]);
    slots[i] = slot_for(subsets[i]);
  }

  // Fan the not-yet-built distinct subsets out across the pool. Pool
  // tasks only try_lock: a slot somebody else is already building is
  // skipped here and collected (blocking) below, so no pool task ever
  // blocks — that keeps the helping scheduler deadlock-free. Each task
  // tunes serially; the batch itself is the parallel grain.
  if (pool_ != nullptr) {
    std::vector<std::size_t> work;
    std::unordered_set<Slot*> seen;
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      if (slots[i]->active.load(std::memory_order_acquire) == nullptr &&
          seen.insert(slots[i].get()).second) {
        work.push_back(i);
      }
    }
    if (work.size() > 1) {
      pool_->parallel_for(work.size(), [&](std::size_t k) {
        Slot& slot = *slots[work[k]];
        std::unique_lock<std::mutex> build(slot.build_mutex,
                                           std::try_to_lock);
        if (!build.owns_lock() ||
            slot.active.load(std::memory_order_relaxed) != nullptr ||
            slot.error) {
          return;
        }
        build_entry_locked(slot, subsets[work[k]], nullptr);
      });
    }
  }

  std::vector<const LibraryEntry*> out(subsets.size());
  for (std::size_t i = 0; i < subsets.size(); ++i) {
    service_->plan_requests.fetch_add(1, std::memory_order_relaxed);
    out[i] = &built_entry(*slots[i], subsets[i], pool_.get());
  }
  return out;
}

void BarrierLibrary::ensure_monitor_locked(
    Slot& slot, const std::vector<std::size_t>& ranks) {
  if (slot.monitor == nullptr) {
    slot.monitor = std::make_unique<DriftMonitor>(
        profile_.restrict_to(ranks), options_.service.drift_alpha);
  }
}

void BarrierLibrary::publish_fallback_locked(
    Slot& slot, const std::vector<std::size_t>& ranks,
    const std::string& reason) {
  auto fallback = std::make_unique<LibraryEntry>();
  const Schedule safe = dissemination_barrier(ranks.size());
  fallback->global_ranks = ranks;
  fallback->stored.schedule = safe;
  fallback->predicted_cost =
      predicted_time(safe, profile_.restrict_to(ranks).symmetrized());
  fallback->degraded = true;
  fallback->degradation_reason = reason;
  fallback->generation =
      service_->next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  slot.fallback = fallback.get();
  slot.versions.push_back(std::move(fallback));
  slot.active.store(slot.fallback, std::memory_order_release);
}

void BarrierLibrary::quarantine_locked(Slot& slot,
                                       const std::vector<std::size_t>& ranks,
                                       const std::string& reason) {
  const std::size_t count = slot.failures.load(std::memory_order_relaxed);
  const std::string full = "tuned plan quarantined after " +
                           std::to_string(count) +
                           " execution failure(s): " + reason;
  publish_fallback_locked(slot, ranks, full);
  slot.last_reason = full;
  slot.state.store(PlanState::kQuarantined, std::memory_order_relaxed);
  service_->quarantines.fetch_add(1, std::memory_order_relaxed);
}

void BarrierLibrary::maybe_enqueue_repair_locked(
    const std::shared_ptr<Slot>& slot, const std::vector<std::size_t>& ranks,
    bool drift_only) {
  const ServiceOptions& service = options_.service;
  if (!service.auto_repair || slot->repair_pending) {
    return;
  }
  if (!drift_only && slot->repair_attempts >= service.max_repair_attempts) {
    return;
  }
  RepairJob job{slot, ranks, drift_only, std::chrono::steady_clock::now()};
  std::lock_guard<std::mutex> lock(service_->mutex);
  if (service_->queue.size() >= service.repair_queue_capacity) {
    service_->repairs_rejected.fetch_add(1, std::memory_order_relaxed);
    return;  // stays quarantined; the next report retries the enqueue
  }
  slot->repair_pending = true;
  service_->queue.push_back(std::move(job));
  if (!service_->started) {
    service_->started = true;
    service_->worker = std::thread(&BarrierLibrary::repair_worker,
                                   service_.get());
  }
  service_->work_cv.notify_one();
}

bool BarrierLibrary::record_failure(
    Slot& slot, const std::vector<std::size_t>& ranks,
    const std::string& reason,
    const std::vector<std::pair<std::size_t, std::size_t>>& evidence) {
  // Re-find the shared_ptr for job ownership; the slot is known cached.
  const std::shared_ptr<Slot> slotp = find_slot(ranks);
  std::lock_guard<std::mutex> lock(slot.build_mutex);
  service_->stall_reports.fetch_add(1, std::memory_order_relaxed);
  const std::size_t count =
      slot.failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!evidence.empty() && slot.evidence.size() < kMaxEvidencePairs) {
    for (const auto& pair : evidence) {
      if (pair.first != pair.second) {
        slot.evidence.push_back(pair);
      }
    }
    std::sort(slot.evidence.begin(), slot.evidence.end());
    slot.evidence.erase(
        std::unique(slot.evidence.begin(), slot.evidence.end()),
        slot.evidence.end());
  }
  switch (slot.state.load(std::memory_order_relaxed)) {
    case PlanState::kQuarantined:
    case PlanState::kRetuning:
    case PlanState::kDegraded:
      return true;  // already on the fallback; keep counting
    case PlanState::kProbation:
      // The repaired plan failed its probation: straight back to the
      // fallback, and permanently degraded once repairs are exhausted.
      quarantine_locked(slot, ranks, reason);
      if (slot.repair_attempts >= options_.service.max_repair_attempts) {
        slot.state.store(PlanState::kDegraded, std::memory_order_relaxed);
        slot.last_reason +=
            " (repairs exhausted after " +
            std::to_string(slot.repair_attempts) + " attempt(s))";
        service_->permanent_degradations.fetch_add(1,
                                                   std::memory_order_relaxed);
      } else {
        ensure_monitor_locked(slot, ranks);
        maybe_enqueue_repair_locked(slotp, ranks, /*drift_only=*/false);
      }
      return true;
    case PlanState::kHealthy:
      slot.state.store(PlanState::kSuspect, std::memory_order_relaxed);
      [[fallthrough]];
    case PlanState::kSuspect:
      if (count < options_.quarantine_threshold) {
        return false;
      }
      quarantine_locked(slot, ranks, reason);
      ensure_monitor_locked(slot, ranks);
      maybe_enqueue_repair_locked(slotp, ranks, /*drift_only=*/false);
      return true;
  }
  return true;
}

bool BarrierLibrary::report_execution_failure(
    const std::vector<std::size_t>& ranks, const std::string& reason) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = served_slot(ranks);
  return record_failure(*slot, ranks, reason, {});
}

bool BarrierLibrary::report_execution_failure(
    const std::vector<std::size_t>& ranks,
    const simmpi::StallReport& report) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = served_slot(ranks);
  return record_failure(*slot, ranks, report.describe(),
                        report.implicated_pairs());
}

void BarrierLibrary::report_execution_success(
    const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = served_slot(ranks);
  std::lock_guard<std::mutex> lock(slot->build_mutex);
  service_->success_reports.fetch_add(1, std::memory_order_relaxed);
  switch (slot->state.load(std::memory_order_relaxed)) {
    case PlanState::kProbation:
      if (slot->probation_left > 0) {
        --slot->probation_left;
      }
      if (slot->probation_left == 0) {
        slot->state.store(PlanState::kHealthy, std::memory_order_relaxed);
        slot->failures.store(0, std::memory_order_relaxed);
        slot->evidence.clear();
        slot->last_reason.clear();
        if (slot->monitor != nullptr) {
          slot->monitor->rebaseline();
        }
      }
      break;
    case PlanState::kSuspect:
      slot->failures.store(0, std::memory_order_relaxed);
      slot->evidence.clear();
      slot->state.store(PlanState::kHealthy, std::memory_order_relaxed);
      break;
    default:
      break;  // healthy: nothing to clear; fallback states: expected
  }
}

void BarrierLibrary::report_measured_latency(
    const std::vector<std::size_t>& ranks, std::size_t src, std::size_t dst,
    double seconds) {
  report_measurement(ranks, src, dst, seconds, /*overhead=*/false);
}

void BarrierLibrary::report_measured_overhead(
    const std::vector<std::size_t>& ranks, std::size_t src, std::size_t dst,
    double seconds) {
  report_measurement(ranks, src, dst, seconds, /*overhead=*/true);
}

void BarrierLibrary::report_measurement(const std::vector<std::size_t>& ranks,
                                        std::size_t src, std::size_t dst,
                                        double seconds, bool overhead) {
  const char* what = overhead ? "overhead" : "latency";
  validate_subset(ranks);
  OPTIBAR_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
                  "measured " << what
                              << " must be finite and non-negative, got "
                              << seconds);
  OPTIBAR_REQUIRE(src < ranks.size() && dst < ranks.size(),
                  what << " indices are local subset ranks: (" << src << ", "
                       << dst << ") out of range (" << ranks.size() << ")");
  OPTIBAR_REQUIRE(src != dst, what << " observation needs distinct ranks");
  const std::shared_ptr<Slot> slot = served_slot(ranks);
  std::lock_guard<std::mutex> lock(slot->build_mutex);
  ensure_monitor_locked(*slot, ranks);
  if (overhead) {
    slot->monitor->observe_overhead(src, dst, seconds);
    service_->overhead_reports.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->monitor->observe_latency(src, dst, seconds);
    service_->latency_reports.fetch_add(1, std::memory_order_relaxed);
  }
  const PlanState state = slot->state.load(std::memory_order_relaxed);
  if ((state == PlanState::kHealthy || state == PlanState::kSuspect) &&
      slot->monitor->max_drift() >=
          options_.service.drift_retune_threshold) {
    maybe_enqueue_repair_locked(slot, ranks, /*drift_only=*/true);
  }
}

std::size_t BarrierLibrary::failure_count(
    const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = find_slot(ranks);
  return slot == nullptr ? 0
                         : slot->failures.load(std::memory_order_relaxed);
}

bool BarrierLibrary::is_quarantined(const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = find_slot(ranks);
  return slot != nullptr &&
         serves_fallback(slot->state.load(std::memory_order_acquire));
}

PlanState BarrierLibrary::plan_state(const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  return served_slot(ranks)->state.load(std::memory_order_acquire);
}

PlanHealthView BarrierLibrary::plan_health(
    const std::vector<std::size_t>& ranks) {
  validate_subset(ranks);
  const std::shared_ptr<Slot> slot = served_slot(ranks);
  std::lock_guard<std::mutex> lock(slot->build_mutex);
  PlanHealthView view;
  view.state = slot->state.load(std::memory_order_relaxed);
  view.failures = slot->failures.load(std::memory_order_relaxed);
  view.repair_attempts = slot->repair_attempts;
  view.probation_left = slot->probation_left;
  const LibraryEntry* active = slot->active.load(std::memory_order_relaxed);
  view.generation = active == nullptr ? 0 : active->generation;
  view.observed_drift =
      slot->monitor == nullptr ? 0.0 : slot->monitor->max_drift();
  view.reason = slot->last_reason;
  return view;
}

void BarrierLibrary::wait_for_repairs() {
  std::unique_lock<std::mutex> lock(service_->mutex);
  service_->idle_cv.wait(lock, [this] {
    return service_->queue.empty() && service_->active_jobs == 0;
  });
}

ServiceStats BarrierLibrary::stats() const {
  const Service& s = *service_;
  ServiceStats out;
  out.plan_requests = s.plan_requests.load(std::memory_order_relaxed);
  out.tunes = s.tunes.load(std::memory_order_relaxed);
  out.stall_reports = s.stall_reports.load(std::memory_order_relaxed);
  out.overhead_reports = s.overhead_reports.load(std::memory_order_relaxed);
  out.latency_reports = s.latency_reports.load(std::memory_order_relaxed);
  out.success_reports = s.success_reports.load(std::memory_order_relaxed);
  out.quarantines = s.quarantines.load(std::memory_order_relaxed);
  out.repairs_started = s.repairs_started.load(std::memory_order_relaxed);
  out.repairs_promoted = s.repairs_promoted.load(std::memory_order_relaxed);
  out.repairs_failed = s.repairs_failed.load(std::memory_order_relaxed);
  out.repairs_rejected = s.repairs_rejected.load(std::memory_order_relaxed);
  out.warm_start_hits = s.warm_start_hits.load(std::memory_order_relaxed);
  out.drift_retunes = s.drift_retunes.load(std::memory_order_relaxed);
  out.permanent_degradations =
      s.permanent_degradations.load(std::memory_order_relaxed);
  out.evictions = s.evictions.load(std::memory_order_relaxed);
  return out;
}

std::size_t BarrierLibrary::cache_size() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    std::shared_lock<std::shared_mutex> read(shards_[s].mutex);
    for (const auto& [ranks, slot] : shards_[s].slots) {
      if (slot->active.load(std::memory_order_acquire) != nullptr) {
        ++n;
      }
    }
  }
  return n;
}

/* ---- warm-restartable plan store ---- */

void BarrierLibrary::save_store(const std::string& path) {
  std::vector<PlanStoreRecord> records;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    std::shared_lock<std::shared_mutex> read(shards_[s].mutex);
    for (const auto& [ranks, slot] : shards_[s].slots) {
      std::lock_guard<std::mutex> lock(slot->build_mutex);
      if (slot->tuned == nullptr) {
        continue;  // never successfully tuned; nothing worth keeping
      }
      PlanStoreRecord record;
      record.subset = ranks;
      record.state = slot->state.load(std::memory_order_relaxed);
      record.failures = slot->failures.load(std::memory_order_relaxed);
      record.repair_attempts = slot->repair_attempts;
      record.probation_left = slot->probation_left;
      record.predicted_cost = slot->tuned->predicted_cost;
      record.reason = slot->last_reason;
      record.plan = slot->tuned->stored;
      records.push_back(std::move(record));
    }
  }
  save_plan_store_file(path, profile_.ranks(), std::move(records));
}

void BarrierLibrary::load_store(const std::string& path) {
  OPTIBAR_REQUIRE(
      service_->slot_count.load(std::memory_order_relaxed) == 0,
      "load_store needs an empty library (load before the first tune)");
  const std::vector<PlanStoreRecord> records =
      load_plan_store_file(path, profile_.ranks());
  for (const PlanStoreRecord& record : records) {
    insert_record(record);
  }
}

void BarrierLibrary::insert_record(const PlanStoreRecord& record) {
  // The loader has already range/duplicate-checked the subset and the
  // plan shape; this re-check guards direct callers.
  validate_subset(record.subset);
  OPTIBAR_REQUIRE(record.plan.schedule.ranks() == record.subset.size(),
                  "stored plan shape does not match its subset");
  const std::shared_ptr<Slot> slotp = slot_for(record.subset);
  Slot& slot = *slotp;
  std::lock_guard<std::mutex> lock(slot.build_mutex);
  OPTIBAR_REQUIRE(slot.versions.empty(),
                  "subset already present; load_store needs an empty library");
  auto entry = std::make_unique<LibraryEntry>();
  entry->global_ranks = record.subset;
  entry->stored = record.plan;
  entry->predicted_cost = record.predicted_cost;
  entry->generation =
      service_->next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  slot.tuned = entry.get();
  slot.versions.push_back(std::move(entry));
  slot.failures.store(record.failures, std::memory_order_relaxed);
  slot.repair_attempts = record.repair_attempts;
  slot.probation_left = record.probation_left;
  slot.last_reason = record.reason;
  PlanState state = record.state == PlanState::kRetuning
                        ? PlanState::kQuarantined
                        : record.state;
  if (state == PlanState::kProbation && slot.probation_left == 0) {
    slot.probation_left = 1;  // a probation needs at least one success
  }
  slot.state.store(state, std::memory_order_relaxed);
  if (serves_fallback(state)) {
    // The fallback is never stored — it is deterministic, so rebuild it.
    publish_fallback_locked(
        slot, record.subset,
        record.reason.empty() ? "restored from plan store in quarantine"
                              : record.reason);
    if (state == PlanState::kQuarantined) {
      ensure_monitor_locked(slot, record.subset);
      maybe_enqueue_repair_locked(slotp, record.subset,
                                  /*drift_only=*/false);
    }
  } else {
    slot.active.store(slot.tuned, std::memory_order_release);
  }
}

/* ---- background repair loop ---- */

void BarrierLibrary::enqueue_locked(Service& service, RepairJob job) {
  // Caller holds service.mutex (and the slot's build_mutex).
  service.queue.push_back(std::move(job));
  service.work_cv.notify_one();
}

void BarrierLibrary::repair_worker(Service* service) {
  for (;;) {
    RepairJob job;
    {
      std::unique_lock<std::mutex> lock(service->mutex);
      for (;;) {
        if (service->stop) {
          return;
        }
        auto earliest = std::min_element(
            service->queue.begin(), service->queue.end(),
            [](const RepairJob& a, const RepairJob& b) {
              return a.due < b.due;
            });
        if (earliest == service->queue.end()) {
          service->work_cv.wait(lock);
          continue;
        }
        if (earliest->due <= std::chrono::steady_clock::now()) {
          job = std::move(*earliest);
          service->queue.erase(earliest);
          break;
        }
        service->work_cv.wait_until(lock, earliest->due);
      }
      ++service->active_jobs;
    }
    run_repair(*service, std::move(job));
    {
      std::lock_guard<std::mutex> lock(service->mutex);
      --service->active_jobs;
    }
    service->idle_cv.notify_all();
  }
}

void BarrierLibrary::run_repair(Service& service, RepairJob job) {
  Slot& slot = *job.slot;
  const ServiceOptions& knobs = service.options.service;
  TopologyProfile drifted;
  StoredSchedule prior;
  std::size_t attempt = 0;

  {
    std::lock_guard<std::mutex> lock(slot.build_mutex);
    const PlanState state = slot.state.load(std::memory_order_relaxed);
    const bool stale =
        slot.tuned == nullptr || slot.monitor == nullptr ||
        state == PlanState::kDegraded ||
        (job.drift_only && state != PlanState::kHealthy &&
         state != PlanState::kSuspect);
    if (stale) {
      slot.repair_pending = false;
      return;
    }
    if (!job.drift_only) {
      slot.state.store(PlanState::kRetuning, std::memory_order_relaxed);
      attempt = ++slot.repair_attempts;
    }
    // Fold the stall evidence into the drift view: every implicated
    // link looks `evidence_inflation` times slower. One EWMA fold only
    // moves a fraction alpha toward the target, so the target is folded
    // ceil(1/alpha) times — enough to carry most of the inflation.
    const int folds = static_cast<int>(
        std::ceil(1.0 / std::max(knobs.drift_alpha, 1e-9)));
    for (const auto& [i, j] : slot.evidence) {
      const TopologyProfile& current = slot.monitor->current();
      const double target_o = current.o(i, j) * knobs.evidence_inflation;
      const double target_l = current.l(i, j) * knobs.evidence_inflation;
      const double target_r = current.has_rma_latency()
                                  ? current.r(i, j) * knobs.evidence_inflation
                                  : 0.0;
      for (int fold = 0; fold < folds; ++fold) {
        slot.monitor->observe_overhead(i, j, target_o);
        slot.monitor->observe_latency(i, j, target_l);
        if (slot.monitor->current().has_rma_latency()) {
          slot.monitor->observe_rma_latency(i, j, target_r);
        }
      }
    }
    slot.evidence.clear();
    drifted = slot.monitor->current();
    prior = slot.tuned->stored;
    service.repairs_started.fetch_add(1, std::memory_order_relaxed);
  }

  bool promote = false;
  StoredSchedule chosen;
  double chosen_cost = 0.0;
  try {
    // Re-tune against the drifted estimates, with the prior schedule as
    // the warm-start candidate (Estefanel & Mounié: reusing the prior
    // result makes the common repair far cheaper than a cold tune —
    // when the prior still wins on the drifted profile, it is promoted
    // without paying for a new search's output).
    const auto tune_start = std::chrono::steady_clock::now();
    const TuneResult candidate =
        tune_barrier(drifted, service.options, service.pool);
    const double tune_overhead =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tune_start)
            .count();
    PredictOptions prior_options;
    prior_options.awaited_stages = prior.awaited_stages;
    const double prior_cost =
        predicted_time(prior.schedule, candidate.profile(), prior_options);
    if (prior_cost <= candidate.predicted_cost()) {
      chosen = prior;
      chosen_cost = prior_cost;
      service.warm_start_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      chosen.schedule = candidate.schedule();
      chosen.awaited_stages = candidate.barrier().awaited_stages;
      chosen_cost = candidate.predicted_cost();
    }

    if (job.drift_only) {
      // Replacing a *working* plan is a pure optimization, so the
      // amortization rule gates it: the tuning overhead must pay for
      // itself within the expected remaining calls.
      promote = evaluate_retune(prior_cost, chosen_cost, tune_overhead,
                                knobs.expected_calls)
                    .retune;
    } else {
      // Repairing a *quarantined* plan must not lose to the fallback
      // the slot currently serves — and not just under the predictor
      // that already misjudged it once: the netsim simulator
      // arbitrates. Ties promote: on small subsets the optimal plan IS
      // dissemination, and refusing the tie would degrade a plan that
      // is exactly as good as the fallback it is measured against.
      const Schedule safe = dissemination_barrier(drifted.ranks());
      SimOptions sim;
      sim.seed = 0x9e3779b9ull + drifted.ranks();
      const double candidate_time = simulate_mean_time(
          chosen.schedule, drifted, sim, knobs.promote_sim_reps,
          service.pool);
      const double fallback_time = simulate_mean_time(
          safe, drifted, sim, knobs.promote_sim_reps, service.pool);
      promote = candidate_time <= fallback_time;
    }
  } catch (...) {
    promote = false;  // a tuning/simulation failure is a failed attempt
  }

  std::lock_guard<std::mutex> lock(slot.build_mutex);
  const PlanState state = slot.state.load(std::memory_order_relaxed);
  if (state == PlanState::kDegraded ||
      (job.drift_only && state != PlanState::kHealthy &&
       state != PlanState::kSuspect)) {
    slot.repair_pending = false;
    return;  // the world changed while we tuned; drop the result
  }
  if (promote) {
    auto entry = std::make_unique<LibraryEntry>();
    entry->global_ranks = job.ranks;
    entry->stored = std::move(chosen);
    entry->predicted_cost = chosen_cost;
    entry->generation =
        service.next_generation.fetch_add(1, std::memory_order_relaxed) + 1;
    slot.tuned = entry.get();
    slot.versions.push_back(std::move(entry));
    slot.monitor->rebaseline(std::move(drifted));
    if (job.drift_only) {
      service.drift_retunes.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot.probation_left = knobs.probation_successes;
      slot.state.store(PlanState::kProbation, std::memory_order_relaxed);
      service.repairs_promoted.fetch_add(1, std::memory_order_relaxed);
    }
    slot.active.store(slot.tuned, std::memory_order_release);
    slot.repair_pending = false;
    return;
  }
  if (job.drift_only) {
    // Not amortizable: keep the active plan, but re-anchor to the view
    // just evaluated, so re-reporting it cannot start the same re-tune
    // again; only drift beyond it can.
    slot.monitor->rebaseline(std::move(drifted));
    slot.repair_pending = false;
    return;
  }
  service.repairs_failed.fetch_add(1, std::memory_order_relaxed);
  if (attempt >= knobs.max_repair_attempts) {
    slot.state.store(PlanState::kDegraded, std::memory_order_relaxed);
    slot.last_reason += " (repairs exhausted after " +
                        std::to_string(attempt) + " attempt(s))";
    service.permanent_degradations.fetch_add(1, std::memory_order_relaxed);
    slot.repair_pending = false;
    return;
  }
  // Retry with exponential backoff; the fallback keeps serving.
  slot.state.store(PlanState::kQuarantined, std::memory_order_relaxed);
  const double delay =
      knobs.repair_backoff_seconds * static_cast<double>(1ull << attempt);
  RepairJob retry{job.slot, job.ranks, /*drift_only=*/false,
                  std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(delay))};
  std::lock_guard<std::mutex> service_lock(service.mutex);
  if (service.queue.size() >= knobs.repair_queue_capacity) {
    service.repairs_rejected.fetch_add(1, std::memory_order_relaxed);
    slot.repair_pending = false;
    return;
  }
  enqueue_locked(service, std::move(retry));  // repair_pending stays true
}

}  // namespace optibar
