// Implementation of the C API over BarrierLibrary.
//
// Error model: every entry point records its outcome in thread-local
// state (tl_status / tl_message) so concurrent callers never observe
// each other's failures.
#include "capi/optibar.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collective/executor.hpp"
#include "collective/tuner.hpp"
#include "core/library.hpp"
#include "rma/transport.hpp"
#include "simmpi/executor.hpp"
#include "topology/profile.hpp"
#include "util/error.hpp"

namespace {

using optibar::BarrierLibrary;
using optibar::EngineOptions;
using optibar::LibraryEntry;
using optibar::Schedule;
using optibar::TopologyProfile;

thread_local optibar_status tl_status = OPTIBAR_OK;
thread_local std::string tl_message;

void set_ok() {
  tl_status = OPTIBAR_OK;
  tl_message.clear();
}

void set_error(optibar_status status, std::string message) {
  tl_status = status;
  tl_message = std::move(message);
  if (tl_message.empty()) {
    // Guarantee: a non-OK status always has a non-empty message, even
    // when an exception carried an empty what().
    tl_message = optibar_status_string(status);
  }
}

/// Record the in-flight exception under `status`; unknown exception
/// types degrade to OPTIBAR_ERR_INTERNAL.
void set_caught(optibar_status status) {
  try {
    throw;
  } catch (const std::exception& error) {
    set_error(status, error.what());
  } catch (...) {
    set_error(OPTIBAR_ERR_INTERNAL, "unknown exception in optibar");
  }
}

}  // namespace

/// A tuned barrier flattened into per-rank op arrays.
struct optibar_plan_s {
  std::size_t ranks = 0;
  std::size_t stages = 0;
  double predicted_seconds = 0.0;
  bool degraded = false;
  std::string degradation_reason;
  std::vector<std::vector<optibar_op>> per_rank;

  explicit optibar_plan_s(const LibraryEntry& entry) {
    const Schedule& schedule = entry.stored.schedule;
    ranks = schedule.ranks();
    stages = schedule.stage_count();
    predicted_seconds = entry.predicted_cost;
    degraded = entry.degraded;
    degradation_reason = entry.degradation_reason;
    per_rank.resize(ranks);
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      std::vector<optibar_op>& ops = per_rank[rank];
      for (std::size_t stage = 0; stage < stages; ++stage) {
        const auto sends = schedule.targets_of(rank, stage);
        const auto recvs = schedule.sources_of(rank, stage);
        if (sends.empty() && recvs.empty()) {
          continue;  // rank-local no-op stage eliminated
        }
        for (std::size_t dst : sends) {
          ops.push_back(optibar_op{static_cast<int>(stage), 1,
                                   static_cast<int>(dst), 0});
        }
        for (std::size_t src : recvs) {
          ops.push_back(optibar_op{static_cast<int>(stage), 0,
                                   static_cast<int>(src), 0});
        }
        ops.back().stage_end = 1;
      }
    }
  }
};

/// The C handle: the C++ library plus plan storage keyed by the
/// entry's generation — a library-wide unique publication id, so a
/// repair promoting a new entry (or an eviction recycling an address)
/// can never alias a previously flattened plan. The map is read-locked
/// on hits so concurrent barrier setup scales.
struct optibar_library_s {
  explicit optibar_library_s(TopologyProfile profile, EngineOptions options)
      : library(std::move(profile), std::move(options)) {}

  const optibar_plan* plan_for(const LibraryEntry& entry) {
    {
      std::shared_lock<std::shared_mutex> read(mutex);
      auto it = plans.find(entry.generation);
      if (it != plans.end()) {
        return it->second.get();
      }
    }
    std::unique_lock<std::shared_mutex> write(mutex);
    auto it = plans.find(entry.generation);
    if (it == plans.end()) {
      it = plans
               .emplace(entry.generation,
                        std::make_unique<optibar_plan_s>(entry))
               .first;
    }
    return it->second.get();
  }

  BarrierLibrary library;
  std::shared_mutex mutex;
  std::map<std::uint64_t, std::unique_ptr<optibar_plan_s>> plans;
};

/// One in-flight nonblocking episode: a worker thread driving a full
/// in-process execution on the threaded runtime. The worker publishes
/// its outcome (error fields first, then the release store on
/// done/failed) so test/wait observe a consistent terminal state with
/// one acquire load.
struct optibar_episode_s {
  std::thread worker;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  optibar_status error_status = OPTIBAR_ERR_INTERNAL;
  std::string error;

  ~optibar_episode_s() {
    if (worker.joinable()) {
      worker.join();
    }
  }

  /// Record the in-flight exception as this episode's terminal failure.
  void fail_caught() {
    try {
      throw;
    } catch (const std::exception& exception) {
      error = exception.what();
    } catch (...) {
      error = "unknown exception in optibar episode";
    }
    error_status = OPTIBAR_ERR_INTERNAL;
    failed.store(true, std::memory_order_release);
  }
};

namespace {

/// Shared subset screening so the C layer can distinguish caller bugs
/// (INVALID_ARGUMENT) from tuning failures (TUNING). Returns false with
/// the status already set.
bool check_subset(const optibar_library* library, const size_t* ranks,
                  size_t count) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return false;
  }
  if (ranks == nullptr || count == 0) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "empty rank subset");
    return false;
  }
  const size_t world = library->library.ranks();
  for (size_t i = 0; i < count; ++i) {
    if (ranks[i] >= world) {
      set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
                "rank " + std::to_string(ranks[i]) + " out of range (" +
                    std::to_string(world) + ")");
      return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (ranks[j] == ranks[i]) {
        set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
                  "duplicate rank " + std::to_string(ranks[i]));
        return false;
      }
    }
  }
  return true;
}

/// Shared probe behind optibar_ibarrier_test / optibar_icollective_test.
int episode_test(optibar_episode* episode) {
  if (episode == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "episode is NULL");
    return -1;
  }
  if (episode->failed.load(std::memory_order_acquire)) {
    set_error(episode->error_status, episode->error);
    return -1;
  }
  if (episode->done.load(std::memory_order_acquire)) {
    set_ok();
    return 1;
  }
  set_ok();
  return 0;
}

/// Shared join-and-free behind optibar_ibarrier_wait /
/// optibar_icollective_wait.
optibar_status episode_wait(optibar_episode* episode) {
  if (episode == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "episode is NULL");
    return tl_status;
  }
  if (episode->worker.joinable()) {
    episode->worker.join();
  }
  if (episode->failed.load(std::memory_order_acquire)) {
    set_error(episode->error_status, episode->error);
  } else {
    set_ok();
  }
  delete episode;
  return tl_status;
}

}  // namespace

extern "C" {

optibar_status optibar_last_status(void) { return tl_status; }

const char* optibar_last_error(void) { return tl_message.c_str(); }

const char* optibar_status_string(optibar_status status) {
  switch (status) {
    case OPTIBAR_OK:
      return "OPTIBAR_OK";
    case OPTIBAR_ERR_INVALID_ARGUMENT:
      return "OPTIBAR_ERR_INVALID_ARGUMENT";
    case OPTIBAR_ERR_IO:
      return "OPTIBAR_ERR_IO";
    case OPTIBAR_ERR_TUNING:
      return "OPTIBAR_ERR_TUNING";
    case OPTIBAR_ERR_INTERNAL:
      return "OPTIBAR_ERR_INTERNAL";
    case OPTIBAR_DEGRADED:
      return "OPTIBAR_DEGRADED";
  }
  return "OPTIBAR_ERR_INTERNAL";
}

optibar_library* optibar_open_v2(const char* profile_path, size_t threads) {
  if (profile_path == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "profile_path is NULL");
    return nullptr;
  }
  TopologyProfile profile;
  try {
    profile = TopologyProfile::load_file(profile_path);
  } catch (...) {
    set_caught(OPTIBAR_ERR_IO);
    return nullptr;
  }
  try {
    EngineOptions options;
    options.threads = threads;
    auto* handle =
        new optibar_library_s(std::move(profile), std::move(options));
    set_ok();
    return handle;
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
    return nullptr;
  }
}

void optibar_close(optibar_library* library) {
  delete library;
  set_ok();
}

size_t optibar_ranks(const optibar_library* library) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return 0;
  }
  set_ok();
  return library->library.ranks();
}

const optibar_plan* optibar_world_plan_v2(optibar_library* library) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return nullptr;
  }
  try {
    const optibar_plan* plan = library->plan_for(library->library.full_barrier());
    if (plan->degraded) {
      set_error(OPTIBAR_DEGRADED, plan->degradation_reason);
    } else {
      set_ok();
    }
    return plan;
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
    return nullptr;
  }
}

const optibar_plan* optibar_subset_plan_v2(optibar_library* library,
                                           const size_t* ranks, size_t count) {
  if (!check_subset(library, ranks, count)) {
    return nullptr;
  }
  try {
    const std::vector<std::size_t> subset(ranks, ranks + count);
    const optibar_plan* plan =
        library->plan_for(library->library.subset_plan(subset));
    if (plan->degraded) {
      set_error(OPTIBAR_DEGRADED, plan->degradation_reason);
    } else {
      set_ok();
    }
    return plan;
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
    return nullptr;
  }
}

size_t optibar_tune_all(optibar_library* library, const size_t* ranks,
                        const size_t* counts, size_t count,
                        const optibar_plan** out_plans) {
  if (library == nullptr || counts == nullptr || out_plans == nullptr ||
      count == 0) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "invalid tune_all arguments");
    return 0;
  }
  std::vector<std::vector<std::size_t>> subsets(count);
  size_t offset = 0;
  for (size_t s = 0; s < count; ++s) {
    if (!check_subset(library, ranks == nullptr ? nullptr : ranks + offset,
                      counts[s])) {
      tl_message = "subset " + std::to_string(s) + ": " + tl_message;
      return 0;
    }
    subsets[s].assign(ranks + offset, ranks + offset + counts[s]);
    offset += counts[s];
  }
  std::vector<const LibraryEntry*> entries;
  try {
    entries = library->library.tune_all(subsets);
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
    return 0;
  }
  try {
    // Flatten every entry before touching out_plans so a failure leaves
    // the caller's array unwritten, as documented.
    std::vector<const optibar_plan*> plans(count);
    for (size_t s = 0; s < count; ++s) {
      plans[s] = library->plan_for(*entries[s]);
    }
    for (size_t s = 0; s < count; ++s) {
      out_plans[s] = plans[s];
    }
  } catch (...) {
    set_caught(OPTIBAR_ERR_INTERNAL);
    return 0;
  }
  set_ok();
  return count;
}

size_t optibar_plan_ranks(const optibar_plan* plan) {
  if (plan == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "plan is NULL");
    return 0;
  }
  set_ok();
  return plan->ranks;
}

double optibar_plan_predicted_seconds(const optibar_plan* plan) {
  if (plan == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "plan is NULL");
    return 0.0;
  }
  set_ok();
  return plan->predicted_seconds;
}

size_t optibar_plan_stage_count(const optibar_plan* plan) {
  if (plan == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "plan is NULL");
    return 0;
  }
  set_ok();
  return plan->stages;
}

size_t optibar_plan_op_count(const optibar_plan* plan, size_t rank) {
  if (plan == nullptr || rank >= plan->ranks) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              plan == nullptr ? "plan is NULL" : "rank out of range");
    return 0;
  }
  set_ok();
  return plan->per_rank[rank].size();
}

size_t optibar_plan_ops(const optibar_plan* plan, size_t rank,
                        optibar_op* out, size_t capacity) {
  if (plan == nullptr || out == nullptr || rank >= plan->ranks) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              plan == nullptr    ? "plan is NULL"
              : out == nullptr   ? "out is NULL"
                                 : "rank out of range");
    return 0;
  }
  set_ok();
  const std::vector<optibar_op>& ops = plan->per_rank[rank];
  const size_t n = capacity < ops.size() ? capacity : ops.size();
  for (size_t i = 0; i < n; ++i) {
    out[i] = ops[i];
  }
  return n;
}

int optibar_report_stall(optibar_library* library, const size_t* ranks,
                         size_t count, const char* detail) {
  if (!check_subset(library, ranks, count)) {
    return -1;
  }
  try {
    const std::vector<std::size_t> subset(ranks, ranks + count);
    const bool degraded = library->library.report_execution_failure(
        subset, detail == nullptr ? "unspecified stall" : detail);
    set_ok();
    return degraded ? 1 : 0;
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
    return -1;
  }
}

int optibar_plan_is_degraded(const optibar_plan* plan) {
  if (plan == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "plan is NULL");
    return 0;
  }
  set_ok();
  return plan->degraded ? 1 : 0;
}

/* ---- plan service ---- */

optibar_library* optibar_open_service(const char* profile_path,
                                      size_t threads, int auto_repair) {
  if (profile_path == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "profile_path is NULL");
    return nullptr;
  }
  TopologyProfile profile;
  try {
    profile = TopologyProfile::load_file(profile_path);
  } catch (...) {
    set_caught(OPTIBAR_ERR_IO);
    return nullptr;
  }
  try {
    EngineOptions options;
    options.threads = threads;
    options.service.auto_repair = auto_repair != 0;
    auto* handle =
        new optibar_library_s(std::move(profile), std::move(options));
    set_ok();
    return handle;
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
    return nullptr;
  }
}

optibar_status optibar_plan_state(optibar_library* library,
                                  const size_t* ranks, size_t count,
                                  optibar_plan_state_t* out_state) {
  if (!check_subset(library, ranks, count)) {
    return tl_status;
  }
  if (out_state == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "out_state is NULL");
    return tl_status;
  }
  try {
    const std::vector<std::size_t> subset(ranks, ranks + count);
    const optibar::PlanState state = library->library.plan_state(subset);
    *out_state = static_cast<optibar_plan_state_t>(state);
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
  }
  return tl_status;
}

optibar_status optibar_report_latency(optibar_library* library,
                                      const size_t* ranks, size_t count,
                                      size_t src, size_t dst,
                                      double seconds) {
  if (!check_subset(library, ranks, count)) {
    return tl_status;
  }
  try {
    const std::vector<std::size_t> subset(ranks, ranks + count);
    library->library.report_measured_latency(subset, src, dst, seconds);
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
  }
  return tl_status;
}

optibar_status optibar_report_success(optibar_library* library,
                                      const size_t* ranks, size_t count) {
  if (!check_subset(library, ranks, count)) {
    return tl_status;
  }
  try {
    const std::vector<std::size_t> subset(ranks, ranks + count);
    library->library.report_execution_success(subset);
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
  }
  return tl_status;
}

optibar_status optibar_service_wait(optibar_library* library) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return tl_status;
  }
  try {
    library->library.wait_for_repairs();
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_INTERNAL);
  }
  return tl_status;
}

optibar_status optibar_store_save(optibar_library* library,
                                  const char* path) {
  if (library == nullptr || path == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              library == nullptr ? "library is NULL" : "path is NULL");
    return tl_status;
  }
  try {
    library->library.save_store(path);
    set_ok();
  } catch (const optibar::IoError&) {
    set_caught(OPTIBAR_ERR_IO);
  } catch (...) {
    set_caught(OPTIBAR_ERR_INTERNAL);
  }
  return tl_status;
}

optibar_status optibar_store_load(optibar_library* library,
                                  const char* path) {
  if (library == nullptr || path == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              library == nullptr ? "library is NULL" : "path is NULL");
    return tl_status;
  }
  try {
    library->library.load_store(path);
    set_ok();
  } catch (const optibar::IoError&) {
    set_caught(OPTIBAR_ERR_IO);
  } catch (...) {
    set_caught(OPTIBAR_ERR_INVALID_ARGUMENT);
  }
  return tl_status;
}

optibar_status optibar_tune_collective_v2(optibar_library* library,
                                          optibar_collective_op op,
                                          size_t payload_bytes, size_t root,
                                          double* out_predicted_seconds,
                                          size_t* out_stages) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return tl_status;
  }
  optibar::CollectiveTuneOptions options;
  switch (op) {
    case OPTIBAR_COLLECTIVE_BCAST:
      options.op = optibar::CollectiveOp::kBroadcast;
      break;
    case OPTIBAR_COLLECTIVE_REDUCE:
      options.op = optibar::CollectiveOp::kReduce;
      break;
    case OPTIBAR_COLLECTIVE_ALLREDUCE:
      options.op = optibar::CollectiveOp::kAllreduce;
      break;
    default:
      set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
                "unknown collective op " + std::to_string(op));
      return tl_status;
  }
  if (root >= library->library.ranks()) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              "root " + std::to_string(root) + " out of range (" +
                  std::to_string(library->library.ranks()) + ")");
    return tl_status;
  }
  if (payload_bytes % options.elem_bytes != 0) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              "payload_bytes must be a multiple of " +
                  std::to_string(options.elem_bytes));
    return tl_status;
  }
  options.payload_bytes = payload_bytes;
  options.root = root;
  try {
    const optibar::CollectiveTuneResult tuned = optibar::tune_collective(
        library->library.profile(), options, library->library.options());
    if (out_predicted_seconds != nullptr) {
      *out_predicted_seconds = tuned.predicted_cost();
    }
    if (out_stages != nullptr) {
      *out_stages = tuned.schedule().stage_count();
    }
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
  }
  return tl_status;
}

optibar_status optibar_tune_hybrid_v2(optibar_library* library,
                                      double* out_predicted_seconds,
                                      optibar_transport* out_transport,
                                      size_t* out_one_sided_signals) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return tl_status;
  }
  try {
    const optibar::rma::TransportTune tuned = optibar::rma::tune_best_transport(
        library->library.profile(), library->library.options());
    if (out_predicted_seconds != nullptr) {
      *out_predicted_seconds = tuned.cost;
    }
    if (out_transport != nullptr) {
      switch (tuned.transport) {
        case optibar::rma::Transport::kTwoSided:
          *out_transport = OPTIBAR_TRANSPORT_TWO_SIDED;
          break;
        case optibar::rma::Transport::kOneSided:
          *out_transport = OPTIBAR_TRANSPORT_ONE_SIDED;
          break;
        case optibar::rma::Transport::kHybrid:
          *out_transport = OPTIBAR_TRANSPORT_HYBRID;
          break;
      }
    }
    if (out_one_sided_signals != nullptr) {
      *out_one_sided_signals = tuned.one_sided_signals;
    }
    set_ok();
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
  }
  return tl_status;
}

/* ---- nonblocking episode handles ---- */

optibar_episode* optibar_ibarrier_post(optibar_library* library) {
  if (library == nullptr) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT, "library is NULL");
    return nullptr;
  }
  const LibraryEntry* entry = nullptr;
  try {
    // Tune (or hit the cache) up front so a tuning failure surfaces
    // here, not asynchronously. Entry pointers are stable for the
    // library's lifetime, so the worker may hold one.
    entry = &library->library.full_barrier();
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
    return nullptr;
  }
  auto* episode = new optibar_episode_s;
  episode->worker = std::thread([entry, episode] {
    try {
      const optibar::simmpi::ScheduleExecutor executor(
          entry->stored.schedule);
      executor.run_once();
      episode->done.store(true, std::memory_order_release);
    } catch (...) {
      episode->fail_caught();
    }
  });
  set_ok();
  return episode;
}

int optibar_ibarrier_test(optibar_episode* episode) {
  return episode_test(episode);
}

optibar_status optibar_ibarrier_wait(optibar_episode* episode) {
  return episode_wait(episode);
}

optibar_episode* optibar_icollective_post(optibar_library* library,
                                          optibar_collective_op op,
                                          uint64_t* data, size_t elem_count,
                                          size_t root) {
  if (library == nullptr || data == nullptr || elem_count == 0) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              library == nullptr ? "library is NULL"
              : data == nullptr  ? "data is NULL"
                                 : "elem_count is 0");
    return nullptr;
  }
  optibar::CollectiveTuneOptions options;
  switch (op) {
    case OPTIBAR_COLLECTIVE_BCAST:
      options.op = optibar::CollectiveOp::kBroadcast;
      break;
    case OPTIBAR_COLLECTIVE_REDUCE:
      options.op = optibar::CollectiveOp::kReduce;
      break;
    case OPTIBAR_COLLECTIVE_ALLREDUCE:
      options.op = optibar::CollectiveOp::kAllreduce;
      break;
    default:
      set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
                "unknown collective op " + std::to_string(op));
      return nullptr;
  }
  const size_t ranks = library->library.ranks();
  if (root >= ranks) {
    set_error(OPTIBAR_ERR_INVALID_ARGUMENT,
              "root " + std::to_string(root) + " out of range (" +
                  std::to_string(ranks) + ")");
    return nullptr;
  }
  options.payload_bytes = elem_count * options.elem_bytes;
  options.root = root;
  optibar::CollectiveSchedule schedule;
  try {
    schedule = optibar::tune_collective(library->library.profile(), options,
                                        library->library.options())
                   .schedule();
  } catch (...) {
    set_caught(OPTIBAR_ERR_TUNING);
    return nullptr;
  }
  auto* episode = new optibar_episode_s;
  episode->worker = std::thread(
      [episode, data, elem_count, ranks, schedule = std::move(schedule)] {
        try {
          std::vector<optibar::Payload> inputs(ranks);
          for (size_t rank = 0; rank < ranks; ++rank) {
            inputs[rank].assign(data + rank * elem_count,
                                data + (rank + 1) * elem_count);
          }
          const optibar::CollectiveExecutor executor(schedule);
          const std::vector<optibar::Payload> results =
              executor.run_once(inputs, optibar::ReduceOp::kSum);
          // Results land in the caller's buffer before the release
          // store, so a caller that observed done may read them.
          for (size_t rank = 0; rank < ranks; ++rank) {
            for (size_t i = 0; i < elem_count; ++i) {
              data[rank * elem_count + i] = results[rank][i];
            }
          }
          episode->done.store(true, std::memory_order_release);
        } catch (...) {
          episode->fail_caught();
        }
      });
  set_ok();
  return episode;
}

int optibar_icollective_test(optibar_episode* episode) {
  return episode_test(episode);
}

optibar_status optibar_icollective_wait(optibar_episode* episode) {
  return episode_wait(episode);
}

}  // extern "C"
