// The coupled cost model (Sections IV and VI).
//
// The per-step cost of rank i sending to a recipient vector J is
//
//   Eq. 1:  t(i,J) = max_k O(i,j_k) + sum_k L(i,j_k)
//   Eq. 2:  t(i,J) = O(i,i)         + sum_k L(i,j_k)
//
// Eq. 1 models the expected total transmission time in general; Eq. 2
// models the case where the receivers are known to already await the
// signal (the paper applies it to departure phases, whose receivers are
// blocked inside the barrier by construction).
//
// The prediction for a whole schedule weights each incidence matrix by
// these costs and propagates readiness through the layered dependency
// graph; the reported figure is the critical path from all arrivals
// through all departures (Section VI, "Predictions were collected by...").
//
// Receiver-side processing: the paper describes weighting the incidence
// matrices "to obtain matrices of per-rank cost estimates at each step"
// without spelling out the receive side; with sender-only costing the
// linear barrier's fan-in stage is free and its predicted curve would be
// flat, while the paper's Figure 5-A/7-A show it growing steeply with P.
// We therefore charge a receiving rank the marginal latency L(i,j) of
// each incoming message (serial completion processing) on top of the
// latest dependency — the same per-message quantity the Section IV-A
// batch benchmark measures. This reproduces the paper's predicted
// shapes; set PredictOptions::receiver_processing = false to recover the
// strict sender-only reading (compared in bench_ablation_model).
#pragma once

#include <cstddef>
#include <vector>

#include "barrier/schedule.hpp"
#include "topology/profile.hpp"

namespace optibar {

struct PredictOptions {
  /// Per-stage flag: stage s is costed with Eq. 2 when awaited_stages[s]
  /// is true (receivers already waiting — departure phases), with Eq. 1
  /// otherwise. Shorter than the schedule => remaining stages use Eq. 1.
  std::vector<bool> awaited_stages;

  /// Per-rank skew added to every rank's entry time, modelling staggered
  /// arrival; empty means simultaneous arrival.
  std::vector<double> entry_times;

  /// Charge receivers the serial per-message processing cost (see the
  /// header comment). Disable for the strict sender-only model.
  bool receiver_processing = true;

  /// Optional analytic egress-contention term — the predictor-side twin
  /// of SimOptions::egress_resource_of, and an instance of Section
  /// VI-A's "augment the cost model with terms for further phenomena":
  /// egress_resource_of[rank] assigns each rank an egress resource
  /// (typically its node's NIC). Per stage, all messages leaving a
  /// resource serialize: the last of them cannot arrive before the
  /// resource's ready time plus the largest startup plus the *sum* of
  /// their marginal latencies. Empty disables the term.
  std::vector<std::size_t> egress_resource_of;
};

struct Prediction {
  /// Critical-path cost: time from the last arrival until the last rank
  /// departs. This is the figure plotted in Figures 5-8.
  double critical_path = 0.0;
  /// Departure time of each rank (same origin as entry_times).
  std::vector<double> rank_completion;
  /// Per-stage increment of the critical path (diagnostics/ablation).
  std::vector<double> stage_increment;
};

/// Cost of one send batch per Eq. 1 (awaited == false) or Eq. 2
/// (awaited == true). An empty target set costs zero. Prices every
/// edge two-sided; transport-tagged schedules are priced by predict()
/// / predict_reference(), which read each signal's transport bit
/// (put edges swap O(i,j) for the local O(i,i), deliver R(i,j) after
/// the batch, and skip receiver processing).
double step_cost(const TopologyProfile& profile, std::size_t sender,
                 const std::vector<std::size_t>& targets, bool awaited);

/// Full-schedule prediction. A thin wrapper over the compiled evaluation
/// kernel (barrier/compiled_schedule.hpp): the schedule is compiled
/// against the profile into thread-local reused storage and evaluated
/// with a thread-local workspace, so repeated calls allocate only the
/// returned Prediction. Bit-identical to predict_reference().
Prediction predict(const Schedule& schedule, const TopologyProfile& profile,
                   const PredictOptions& options = {});

/// The direct (uncompiled) implementation of the Section VI recurrence,
/// kept as the independently-written oracle the compiled kernel is
/// parity-tested against. Prefer predict(); this path re-derives the
/// stage adjacency on every call.
Prediction predict_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const PredictOptions& options = {});

/// Shorthand for predict(...).critical_path; with the thread-local
/// workspace warm this performs no heap allocations at all.
double predicted_time(const Schedule& schedule, const TopologyProfile& profile,
                      const PredictOptions& options = {});

/// Convenience used by the composer: cost of an arrival phase where
/// stage 0 uses Eq. 1 and subsequent stages use Eq. 1 as well (receivers
/// of arrival signals are not guaranteed to be waiting).
double arrival_cost(const Schedule& arrival, const TopologyProfile& profile);

}  // namespace optibar
