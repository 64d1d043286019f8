// Bounded-wait execution and stall diagnostics.
//
// The happy-path executors wait forever — correct when the schedule is
// a barrier and the network delivers. Under faults (fault.hpp) a
// synchronized send can simply never complete, so the resilient mode
// gives every stage a deadline derived from the predicted stage cost
// (predicted x slack, clamped to a floor/ceiling), retries unacked
// Issends with exponential backoff a bounded number of times (a resend
// is a fresh message with a fresh fault draw, so it can get through a
// lossy link), and on exhaustion stops with a structured StallReport
// instead of hanging.
//
// The report answers the operator's question — *which signal never
// propagated?* — by replaying the paper's Eq. 3 knowledge recurrence
// over the signals that actually arrived: K_0 = I + D_0,
// K_a = K_{a-1} + K_{a-1} * D_a, where D_a is the incidence matrix of
// stage-a signals whose receive completed. Zero cells of the final K
// are exactly the arrival facts that never reached their destination.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "barrier/schedule.hpp"
#include "simmpi/request.hpp"
#include "util/matrix.hpp"

namespace optibar::simmpi {

/// Knobs of the bounded-wait mode.
struct ResilienceOptions {
  /// Predicted cost of each stage in seconds (cost_model.hpp's
  /// Prediction::stage_increment). Empty: every deadline is the floor.
  std::vector<double> predicted_stage_seconds;

  /// Deadline = predicted * slack * time_scale, clamped below/above.
  /// The slack absorbs model error and scheduler jitter; the floor
  /// keeps microsecond-scale predictions from producing deadlines a
  /// thread wakeup can miss; the ceiling bounds the total stall time.
  double slack = 8.0;
  double time_scale = 1.0;
  Clock::duration deadline_floor = std::chrono::milliseconds(10);
  Clock::duration deadline_ceiling = std::chrono::milliseconds(250);

  /// Resend attempts per stage after the first timeout; each retry
  /// multiplies the wait budget by retry_backoff.
  std::size_t max_retries = 1;
  double retry_backoff = 2.0;

  Clock::duration stage_deadline(std::size_t stage) const;
};

/// One schedule edge (stage s, src -> dst); the unit the report names.
struct SignalEdge {
  std::size_t stage = 0;
  std::size_t src = 0;
  std::size_t dst = 0;

  bool operator==(const SignalEdge& other) const = default;
  bool operator<(const SignalEdge& other) const {
    if (stage != other.stage) return stage < other.stage;
    if (src != other.src) return src < other.src;
    return dst < other.dst;
  }
};

/// What one rank saw before finishing, crashing, or giving up.
struct RankStall {
  std::size_t rank = 0;
  std::size_t stage_reached = 0;  ///< last stage entered
  bool finished = false;          ///< ran every stage to completion
  bool crashed = false;           ///< halted by a crash fault
  std::vector<std::size_t> pending_send_to;    ///< unacked sends at stall
  std::vector<std::size_t> pending_recv_from;  ///< undelivered recvs at stall
  /// Sources whose one-sided flag never arrived at stall. Puts are
  /// fire-and-forget — the *sender* completed long ago and has nothing
  /// to resend or report — so a dropped put surfaces only here, on the
  /// receiver.
  std::vector<std::size_t> pending_put_from;
  /// Recvs that completed (dst == rank). finalize() sorts this into
  /// canonical (stage, src, dst) order: delivery is a set, and the
  /// detection order under retries is not rerun-stable.
  std::vector<SignalEdge> delivered;
  /// Peer of the latest delivered signal (by stage, then source), or
  /// npos when nothing ever arrived. Derived from the delivery log, not
  /// wall-clock order, so it is deterministic.
  std::size_t last_heard_from = static_cast<std::size_t>(-1);

  bool operator==(const RankStall& other) const = default;
};

/// The structured outcome of a resilient run. With `stalled == false`
/// the operation completed everywhere and the diagnostic fields are
/// the (complete) delivery log.
struct StallReport {
  std::size_t ranks = 0;
  std::size_t stages = 0;
  bool stalled = false;
  std::vector<RankStall> per_rank;
  /// Eq. 3 knowledge over delivered signals; all-nonzero iff every
  /// rank could have observed every arrival.
  BoolMatrix knowledge;
  /// Edges some rank was still waiting on when it gave up, sorted.
  std::vector<SignalEdge> pending_edges;

  /// True when the report blames (stage, src, dst): the edge appears in
  /// pending_edges.
  bool names_edge(std::size_t stage, std::size_t src, std::size_t dst) const;

  /// The (src, dst) rank pairs implicated by pending_edges, deduplicated
  /// across stages and sorted — the evidence unit the plan service's
  /// repair loop feeds to its DriftMonitor (a pair blamed in several
  /// stages is one suspect link, not several).
  std::vector<std::pair<std::size_t, std::size_t>> implicated_pairs() const;

  /// Human-readable rendering (CLI / C API surface).
  std::string describe() const;

  /// Size per_rank and the knowledge matrix for a run; executors
  /// require a report already shaped for their schedule.
  void reset(std::size_t ranks, std::size_t stages);

  /// Aggregate per-rank logs into knowledge / pending_edges /
  /// last_heard_from / stalled. Called once, after all rank threads
  /// joined.
  void finalize();

  bool operator==(const StallReport& other) const = default;
};

}  // namespace optibar::simmpi
