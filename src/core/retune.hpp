// Dynamic re-tuning under changing conditions (Section VIII).
//
// "As the presented work captures its topological model statically,
//  predictions do not consider run-time effects of contention and
//  congestion which could be caused by background load. With a
//  topological model ready, the generation and evaluation of adapted
//  patterns requires on the order of 0.1 seconds, making it feasible to
//  periodically re-evaluate ... This would only make it worthwhile to
//  adapt the algorithm when the overhead could be amortized over a
//  sufficient number of subsequent synchronizations. Developing an
//  efficient scheme to estimate the profitability of dynamically
//  altering methods makes an interesting topic for further study."
//
// This module holds the two building blocks of that further study:
//   - DriftMonitor folds cheap incremental pairwise observations into an
//     EWMA copy of the profile and reports the drift vs the tuned
//     baseline;
//   - evaluate_retune() is the amortization rule: re-tune only when the
//     per-call gain times the expected remaining calls exceeds the
//     re-tuning overhead.
// BarrierLibrary (core/library.hpp) runs the re-tuning loop itself: one
// monitor per served plan, drift re-tunes in the background, promotion
// gated by evaluate_retune().
#pragma once

#include <cstddef>

#include "topology/profile.hpp"

namespace optibar {

/// Folds runtime observations of pairwise costs into an exponentially
/// weighted moving copy of a baseline profile.
class DriftMonitor {
 public:
  /// `alpha` is the EWMA weight of a new observation, in (0, 1].
  explicit DriftMonitor(TopologyProfile baseline, double alpha = 0.25);

  /// Fold one observed startup cost for the pair (i, j). Symmetric:
  /// updates both directions. All observe_* entry points reject
  /// non-finite (NaN/Inf) and negative observations with an Error —
  /// one poisoned sample would otherwise contaminate the EWMA window
  /// for good.
  void observe_overhead(std::size_t i, std::size_t j, double seconds);

  /// Fold one observed marginal latency for the pair (i, j).
  void observe_latency(std::size_t i, std::size_t j, double seconds);

  /// Fold one observed one-sided delivery latency for the pair (i, j).
  /// Requires the baseline profile to carry an R matrix.
  void observe_rma_latency(std::size_t i, std::size_t j, double seconds);

  /// The drifted profile (baseline entries where nothing was observed).
  const TopologyProfile& current() const { return current_; }
  const TopologyProfile& baseline() const { return baseline_; }

  /// Largest relative deviation of any observed entry from the baseline;
  /// 0 when nothing has drifted.
  double max_drift() const;

  std::size_t observation_count() const { return observations_; }

  /// Re-anchor the baseline to the current view.
  void rebaseline();

  /// Re-anchor the baseline to `view`, an earlier snapshot of current()
  /// (the view a re-tune was evaluated against): observations folded
  /// since the snapshot stay visible as drift.
  void rebaseline(TopologyProfile view);

 private:
  TopologyProfile baseline_;
  TopologyProfile current_;
  double alpha_;
  std::size_t observations_ = 0;
};

/// Amortization verdict for one potential re-tune.
struct RetuneDecision {
  bool retune = false;
  double gain_per_call = 0.0;     ///< seconds saved per barrier call
  double break_even_calls = 0.0;  ///< calls needed to pay the overhead
};

/// The profitability rule: re-tune iff
///   (current_cost - candidate_cost) * expected_calls > retune_overhead.
RetuneDecision evaluate_retune(double current_cost_seconds,
                               double candidate_cost_seconds,
                               double retune_overhead_seconds,
                               double expected_remaining_calls);

}  // namespace optibar
