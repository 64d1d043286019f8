// The general matrix-barrier interpreter (Section VI).
//
// "The program used to validate the model employs a general simulator
//  for matrix encodings of barriers, storing the tested barrier in a
//  structure with a stage count, as well as the sequence of incidence
//  matrices, and an array of MPI requests to match the signal pattern of
//  each stage. Execution amounts to each participating process looping
//  over the required number of stages, issuing nonblocking, synchronized
//  signals according to the dependencies of the stage (with MPI_Issend),
//  and awaiting completion of all issued requests."
//
// ScheduleExecutor is the barrier view of that interpreter: it checks
// the schedule is a barrier, translates each stage's signals into the
// staged-edge core's per-rank signal edges (staged_executor.hpp, count
// 0), and forwards the handle lifecycle — post/test/wait, the resilient
// variants and run_once — to the core. Signals the schedule tags
// one-sided (Signal::one_sided) become RMA
// flag puts into the receiver's window instead of issend/irecv pairs;
// an untagged schedule touches no window state.
#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "barrier/schedule.hpp"
#include "simmpi/staged_executor.hpp"

namespace optibar::simmpi {

class ScheduleExecutor {
 public:
  /// One in-flight barrier episode of one rank (move-only).
  using EpisodeHandle = StagedExecutor::EpisodeHandle;
  /// One in-flight bounded-wait episode (see StagedExecutor).
  using ResilientEpisodeHandle = StagedExecutor::ResilientEpisodeHandle;

  /// Precompute per-rank signal edges. The schedule must be a valid
  /// barrier (checked: executing a non-barrier would not synchronize,
  /// and some non-barriers deadlock the synchronized sends);
  /// options.validate() runs too. Pool semantics: an owned RankPool
  /// with ExecutionMode::kPersistentPool, or the caller's shared_pool.
  explicit ScheduleExecutor(const Schedule& schedule,
                            const ExecutorOptions& options = {});

  std::size_t ranks() const { return core_.ranks(); }
  std::size_t stage_count() const { return core_.stage_count(); }
  const ExecutorOptions& options() const { return core_.options(); }
  /// The per-rank signal edges the schedule translated into.
  const StagedExecutor::Table& table() const { return core_.table(); }

  /// Post one barrier episode for this rank: issue stage 0 and return.
  /// `episode` distinguishes repeated invocations in the tag space.
  EpisodeHandle post(RankContext& ctx, int episode = 0) const {
    return core_.post(ctx, episode);
  }

  /// Nonblocking probe (MPI_Test): advance through every completed
  /// stage; returns whether the episode is done.
  bool test(EpisodeHandle& handle) const { return core_.test(handle); }

  /// Drive the episode to completion in bounded progress slices.
  void wait(EpisodeHandle& handle) const { core_.wait(handle); }

  /// Blocking barrier episode: exactly wait(post(ctx, episode)).
  void execute(RankContext& ctx, int episode = 0) const {
    core_.execute(ctx, episode);
  }

  /// Run one full barrier across all ranks of a fresh communicator.
  /// Each rank optionally sleeps for its entry delay first (the paper's
  /// delay-injection synchronization check); returns each rank's
  /// wall-clock exit time relative to the common start.
  std::vector<std::chrono::nanoseconds> run_once(
      LatencyModel latency = uniform_latency(),
      std::vector<std::chrono::nanoseconds> entry_delays = {}) const {
    return core_.run_once(std::move(latency), nullptr, nullptr,
                          ReduceOp::kSum, entry_delays);
  }

  /// Post one bounded-wait episode (see resilience.hpp): per-stage
  /// deadlines, bounded resends of unacked Issends, crash faults
  /// honoured. `report` must have been reset(ranks(), stage_count()) by
  /// the caller and outlive the handle.
  ResilientEpisodeHandle post_resilient(RankContext& ctx,
                                        const ResilienceOptions& options,
                                        StallReport& report,
                                        int episode = 0) const {
    return core_.post_resilient(ctx, options, report, episode);
  }

  /// As above with the executor's own options().resilience knobs.
  ResilientEpisodeHandle post_resilient(RankContext& ctx, StallReport& report,
                                        int episode = 0) const {
    return post_resilient(ctx, options().resilience, report, episode);
  }

  /// One zero-width progress slice; returns handle.done().
  bool test(ResilientEpisodeHandle& handle) const {
    return core_.test(handle);
  }

  /// Drive to a terminal state; true when every stage completed, false
  /// when the rank crashed or gave up (the report records where).
  bool wait(ResilientEpisodeHandle& handle) const {
    return core_.wait(handle);
  }

  /// Blocking bounded-wait episode: exactly
  /// wait(post_resilient(ctx, options, report, episode)).
  bool execute_resilient(RankContext& ctx, const ResilienceOptions& options,
                         StallReport& report, int episode = 0) const {
    return core_.execute_resilient(ctx, options, report, episode);
  }

  /// Run one bounded-wait barrier across all ranks of a fresh
  /// communicator with `faults` attached, and return the finalized
  /// StallReport. Never hangs and never leaks rank threads.
  StallReport run_once_resilient(const ResilienceOptions& options,
                                 const FaultPlan& faults = {},
                                 LatencyModel latency =
                                     uniform_latency()) const {
    return core_.run_once_resilient(options, faults, std::move(latency),
                                    nullptr, nullptr, ReduceOp::kSum);
  }

 private:
  StagedExecutor core_;
};

}  // namespace optibar::simmpi
