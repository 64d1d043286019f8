// EngineOptions: the one knob struct of the tuning engine.
//
// Earlier revisions threaded four nested option structs
// (ClusterTreeOptions, ComposeOptions, SearchOptions, TuneOptions)
// through every layer; callers had to know which stage owned which
// knob. EngineOptions consolidates them behind a single validated
// top-level struct that the tuner, the exhaustive-search oracle, the
// runtime BarrierLibrary and the CLI all accept. The stage structs
// remain as members so stage-level code keeps its narrow view.
//
// `threads` is the engine's execution width: the greedy composer
// evaluates per-stage candidates and independent subtrees in parallel,
// the exhaustive search explores first-stage subtrees in parallel
// against a shared incumbent bound, and BarrierLibrary::tune_all fans
// whole subsets out across the pool. Width 1 (the default) is the
// bit-for-bit serial engine; any width produces identical tuned
// schedules (reductions are performed in deterministic index order).
#pragma once

#include <cstddef>
#include <string>

#include "core/cluster_tree.hpp"
#include "core/composer.hpp"

namespace optibar {

/// Knobs of the exhaustive branch-and-bound oracle (see core/search.hpp).
struct SearchOptions {
  /// Maximum stages explored.
  std::size_t max_stages = 3;
  /// Safety caps; raise knowingly.
  std::size_t max_ranks = 4;
  /// Upper bound on explored stage-prefixes (0 = unlimited).
  std::size_t node_budget = 50'000'000;
};

/// Knobs of the self-healing plan service (core/library.hpp): the
/// background repair loop that consumes StallReport / measured-latency
/// feedback, the probation rule, and the bounded cache. All repair
/// machinery is off by default (`auto_repair == false`): a library
/// without it behaves exactly like the PR 4 batch cache — quarantine
/// is terminal and nothing runs in the background.
struct ServiceOptions {
  /// Enable the background repair worker: quarantined plans are
  /// re-tuned from stall evidence and promoted back through probation.
  bool auto_repair = false;

  /// Capacity of the repair-job queue. A quarantine that finds the
  /// queue full stays quarantined (counted in ServiceStats); the next
  /// failure report retries the enqueue.
  std::size_t repair_queue_capacity = 64;

  /// Background repairs attempted per plan before the entry enters the
  /// permanent `degraded` terminal state. Must be >= 1.
  std::size_t max_repair_attempts = 3;

  /// Base backoff before repair attempt k re-runs after a failed
  /// promotion: base * 2^k seconds. 0 retries immediately (tests).
  double repair_backoff_seconds = 0.05;

  /// Successful executions a repaired plan must report before probation
  /// ends and the entry returns to `healthy`. Must be >= 1.
  std::size_t probation_successes = 2;

  /// Multiplier folded into the O/L (and R) estimates of every edge a
  /// StallReport implicates: the repair tunes against a profile where
  /// the blamed links look this many times slower. Must be >= 1.
  double evidence_inflation = 2.0;

  /// report_measured_{overhead,latency} drift (DriftMonitor::max_drift)
  /// at which a healthy plan is re-tuned in the background. In (0, +inf).
  double drift_retune_threshold = 0.20;

  /// EWMA weight of each measured overhead or latency observation, in
  /// (0, 1].
  double drift_alpha = 0.25;

  /// Amortization horizon for drift-triggered retunes: the candidate
  /// replaces the active plan only when evaluate_retune() says the
  /// re-tuning cost pays for itself within this many barrier calls.
  double expected_calls = 1e6;

  /// Netsim repetitions of the promotion gate (repaired plan vs the
  /// dissemination fallback). Must be >= 1.
  std::size_t promote_sim_reps = 3;

  /// Upper bound on cached plan slots; 0 = unbounded. When bounded, the
  /// cheapest-to-retune entries (smallest subsets) are evicted first,
  /// and entries under repair are never evicted. NOTE: with a bound,
  /// entry references returned by subset_plan() are only guaranteed
  /// alive until the entry is evicted, not for the library's lifetime.
  std::size_t max_cache_entries = 0;

  void validate() const;
};

struct EngineOptions {
  ClusterTreeOptions clustering;
  ComposeOptions composition;
  SearchOptions search;
  ServiceOptions service;

  /// Name of the function emitted by TuneResult::generated_code().
  std::string function_name = "optibar_barrier";

  /// Execution width of the tuning engine, including the calling
  /// thread: 1 = serial, 0 = one per hardware thread.
  std::size_t threads = 1;

  /// Shard count of BarrierLibrary's concurrent plan cache; must be a
  /// power of two. More shards = less writer contention when many
  /// distinct subsets tune at once.
  std::size_t cache_shards = 16;

  /// Number of reported execution failures after which BarrierLibrary
  /// quarantines a tuned plan and serves a conservative dissemination
  /// fallback instead (see BarrierLibrary::report_execution_failure).
  /// Must be >= 1.
  std::size_t quarantine_threshold = 3;

  /// Throws optibar::Error when any knob is out of its valid range.
  /// Every engine entry point validates on the way in, so a bad knob
  /// fails loudly at the boundary instead of deep inside a stage.
  void validate() const;

  /// `threads` with 0 resolved to the hardware thread count (>= 1).
  std::size_t resolved_threads() const;
};

}  // namespace optibar
