// End-to-end collective execution on the simmpi runtime.
//
// The collective view of the staged-edge executor core
// (simmpi/staged_executor.hpp), which also runs barriers: it checks the
// schedule's dataflow and translates each CollectiveEdge into an
// outgoing edge of its sender and an incoming edge of its receiver,
// carrying the edge's element sub-range and combine role. The core's
// stage semantics match the serial interpreter exactly — outgoing
// sub-ranges are copied out of the rank's buffer *before* any incoming
// data of the stage is applied (the snapshot rule), and incoming edges
// are applied in ascending source order — so a valid schedule's
// execution is bit-exact against execute_serial() and the oracle, which
// is what makes data correctness (not just timing) testable on the
// threaded runtime. Execution is handle-based (MPI_Iallreduce-style):
// post() issues stage 0 and returns, test() polls and advances, wait()
// finishes in bounded progress slices, and execute() is wait(post()).
// Collective edges are always two-sided: the RMA board carries flag
// words only.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "collective/schedule.hpp"
#include "simmpi/staged_executor.hpp"

namespace optibar {

class CollectiveExecutor {
 public:
  /// One in-flight collective episode of one rank (move-only). The
  /// buffer passed to post() is transformed in place and must stay
  /// alive (at a stable address) until the episode is done.
  using EpisodeHandle = simmpi::StagedExecutor::EpisodeHandle;
  /// One in-flight bounded-wait episode; its inbox is shared with the
  /// communicator (keepalive) so a late sender can still deliver into
  /// storage that outlives a given-up receive.
  using ResilientEpisodeHandle = simmpi::StagedExecutor::ResilientEpisodeHandle;

  /// Precompute per-rank edges. The schedule must pass
  /// is_valid_collective(): executing an invalid dataflow would
  /// silently produce wrong buffers. options.validate() runs too. Pool
  /// semantics match the barrier executor: an owned RankPool with
  /// ExecutionMode::kPersistentPool, or the caller's shared_pool.
  explicit CollectiveExecutor(const CollectiveSchedule& schedule,
                              const simmpi::ExecutorOptions& options = {});

  std::size_t ranks() const { return core_.ranks(); }
  std::size_t stage_count() const { return core_.stage_count(); }
  const simmpi::ExecutorOptions& options() const { return core_.options(); }
  /// The per-rank payload edges the schedule translated into.
  const simmpi::StagedExecutor::Table& table() const { return core_.table(); }

  /// Post one collective episode: snapshot and send stage 0's outgoing
  /// sub-ranges of `buffer` (elem_count words, transformed in place as
  /// stages complete), arm stage 0's receives, return without waiting.
  EpisodeHandle post(simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
                     int episode = 0) const {
    return core_.post(ctx, episode, &buffer, op);
  }

  /// Nonblocking probe: advance through every stage whose requests all
  /// completed, applying incoming edges in ascending source order as
  /// each stage closes; returns whether the episode is done.
  bool test(EpisodeHandle& handle) const { return core_.test(handle); }

  /// Drive the episode to completion in bounded progress slices.
  void wait(EpisodeHandle& handle) const { core_.wait(handle); }

  /// Execute one collective episode for `rank`, transforming `buffer`
  /// in place: exactly wait(post(ctx, op, buffer, episode)).
  void execute(simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
               int episode = 0) const {
    core_.execute(ctx, episode, &buffer, op);
  }

  /// Run the collective once across all ranks of a fresh communicator
  /// and return the final per-rank buffers. `inputs` must hold ranks()
  /// buffers of elem_count words each.
  std::vector<Payload> run_once(
      const std::vector<Payload>& inputs, ReduceOp op,
      simmpi::LatencyModel latency = simmpi::uniform_latency(),
      simmpi::ByteLatencyModel byte_latency = nullptr) const {
    std::vector<Payload> buffers = inputs;
    core_.run_once(std::move(latency), std::move(byte_latency), &buffers, op);
    return buffers;
  }

  /// Post one bounded-wait episode (see simmpi/resilience.hpp):
  /// per-stage deadlines, bounded resends, crash faults honoured.
  /// Incoming data is applied only when the whole stage completed, so a
  /// stalled rank's buffer stays at its last consistent stage snapshot;
  /// resends re-copy from the unchanged buffer and carry identical
  /// words. `report` must be pre-reset and outlive the handle.
  ResilientEpisodeHandle post_resilient(
      simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
      const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
      int episode = 0) const {
    return core_.post_resilient(ctx, options, report, episode, &buffer, op);
  }

  /// Nonblocking probe of a resilient episode (zero-width progress
  /// slice; only time spent inside is charged to the deadline).
  bool test(ResilientEpisodeHandle& handle) const {
    return core_.test(handle);
  }

  /// Drive a resilient episode to a terminal state; true when every
  /// stage completed.
  bool wait(ResilientEpisodeHandle& handle) const {
    return core_.wait(handle);
  }

  /// Blocking bounded-wait episode: exactly wait(post_resilient(...)).
  bool execute_resilient(simmpi::RankContext& ctx, ReduceOp op,
                         Payload& buffer,
                         const simmpi::ResilienceOptions& options,
                         simmpi::StallReport& report, int episode = 0) const {
    return core_.execute_resilient(ctx, options, report, episode, &buffer,
                                   op);
  }

  /// A resilient run across all ranks: final buffers (stalled ranks
  /// keep their last consistent state) plus the finalized StallReport.
  struct ResilientResult {
    std::vector<Payload> buffers;
    simmpi::StallReport report;
  };
  ResilientResult run_once_resilient(
      const std::vector<Payload>& inputs, ReduceOp op,
      const simmpi::ResilienceOptions& options,
      const FaultPlan& faults = {},
      simmpi::LatencyModel latency = simmpi::uniform_latency(),
      simmpi::ByteLatencyModel byte_latency = nullptr) const {
    ResilientResult result{inputs, {}};
    result.report = core_.run_once_resilient(options, faults,
                                             std::move(latency),
                                             std::move(byte_latency),
                                             &result.buffers, op);
    return result;
  }

 private:
  simmpi::StagedExecutor core_;
};

}  // namespace optibar
