// Shared construction knobs for the schedule and collective executors.
//
// Before the handle-based API both executors grew their own constructor
// overloads (mode-only, mode + pool, ...). ExecutorOptions consolidates
// everything an executor needs to know about *how* to run — execution
// mode, an optional shared RankPool, the progress-slice width of the
// nonblocking wait() loop, and the deadline/retry knobs of the
// resilient lifecycle — behind one aggregate validated like
// EngineOptions: validate() throws optibar::Error at the executor
// boundary, so a bad configuration fails at construction, not mid-run.
#pragma once

#include <chrono>
#include <cstddef>

#include "simmpi/rank_pool.hpp"
#include "simmpi/request.hpp"
#include "simmpi/resilience.hpp"

namespace optibar::simmpi {

struct ExecutorOptions {
  /// How run_once-style entry points obtain rank threads (see
  /// rank_pool.hpp). Ignored when `shared_pool` is set.
  ExecutionMode mode = ExecutionMode::kSpawnPerEpisode;

  /// Optional non-owning pool: several executors may share one set of
  /// parked rank workers instead of each owning stage_count() threads.
  /// Must outlive the executor and hold at least ranks() workers
  /// (checked at construction). When set, `mode` is ignored — episodes
  /// always dispatch pool generations.
  RankPool* shared_pool = nullptr;

  /// Width of one bounded progress slice inside wait(handle): the rank
  /// worker parks on its shard condvar for at most this long, then
  /// re-scans and either advances the episode a stage or parks again.
  /// Bounded slices are what let the resilient lifecycle charge
  /// deadlines by elapsed progress time and let pooled workers stay
  /// responsive instead of blocking indefinitely in one unbounded wait.
  Clock::duration progress_slice = std::chrono::milliseconds(1);

  /// Deadline/retry knobs used by the handle-based resilient lifecycle
  /// when the caller posts without explicit options
  /// (post_resilient(ctx, report)); the explicit-options overloads
  /// ignore this field.
  ResilienceOptions resilience;

  /// Throws optibar::Error when any knob is out of range (non-positive
  /// progress slice, resilience slack/backoff/clamp windows that could
  /// never produce a usable deadline).
  void validate() const;
};

}  // namespace optibar::simmpi
