#include "core/retune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace optibar {

namespace {

/// Rebuild a profile from replacement O/L matrices, carrying the G and
/// R matrices of `like` along — observations must never silently strip
/// the bandwidth or one-sided data from a v2/v3 profile.
TopologyProfile with_core_matrices(const TopologyProfile& like,
                                   Matrix<double> overhead,
                                   Matrix<double> latency) {
  TopologyProfile out =
      like.has_bandwidth()
          ? TopologyProfile(std::move(overhead), std::move(latency),
                            like.bandwidth())
          : TopologyProfile(std::move(overhead), std::move(latency));
  if (like.has_rma_latency()) {
    out.set_rma_latency(like.rma_latency());
  }
  return out;
}

/// Boundary guard shared by every observe_* entry point: a NaN or Inf
/// observation would poison the whole EWMA window (every later fold
/// keeps a (1-alpha) share of it), so it is rejected up front.
void require_observable(double seconds) {
  OPTIBAR_REQUIRE(std::isfinite(seconds),
                  "non-finite observation " << seconds);
  OPTIBAR_REQUIRE(seconds >= 0.0, "negative observation");
}

}  // namespace

DriftMonitor::DriftMonitor(TopologyProfile baseline, double alpha)
    : baseline_(baseline), current_(std::move(baseline)), alpha_(alpha) {
  OPTIBAR_REQUIRE(alpha_ > 0.0 && alpha_ <= 1.0,
                  "EWMA alpha must be in (0,1], got " << alpha_);
}

void DriftMonitor::observe_overhead(std::size_t i, std::size_t j,
                                    double seconds) {
  OPTIBAR_REQUIRE(i < current_.ranks() && j < current_.ranks(),
                  "rank out of range");
  require_observable(seconds);
  Matrix<double> o = current_.overhead();
  o(i, j) = (1.0 - alpha_) * o(i, j) + alpha_ * seconds;
  if (i != j) {
    o(j, i) = (1.0 - alpha_) * o(j, i) + alpha_ * seconds;
  }
  current_ = with_core_matrices(current_, std::move(o), current_.latency());
  ++observations_;
}

void DriftMonitor::observe_latency(std::size_t i, std::size_t j,
                                   double seconds) {
  OPTIBAR_REQUIRE(i < current_.ranks() && j < current_.ranks(),
                  "rank out of range");
  OPTIBAR_REQUIRE(i != j, "latency observation needs distinct ranks");
  require_observable(seconds);
  Matrix<double> l = current_.latency();
  l(i, j) = (1.0 - alpha_) * l(i, j) + alpha_ * seconds;
  l(j, i) = (1.0 - alpha_) * l(j, i) + alpha_ * seconds;
  current_ = with_core_matrices(current_, current_.overhead(), std::move(l));
  ++observations_;
}

void DriftMonitor::observe_rma_latency(std::size_t i, std::size_t j,
                                       double seconds) {
  OPTIBAR_REQUIRE(i < current_.ranks() && j < current_.ranks(),
                  "rank out of range");
  OPTIBAR_REQUIRE(i != j, "one-sided observation needs distinct ranks");
  OPTIBAR_REQUIRE(current_.has_rma_latency(),
                  "profile carries no one-sided latency matrix");
  require_observable(seconds);
  Matrix<double> r = current_.rma_latency();
  r(i, j) = (1.0 - alpha_) * r(i, j) + alpha_ * seconds;
  r(j, i) = (1.0 - alpha_) * r(j, i) + alpha_ * seconds;
  current_.set_rma_latency(std::move(r));
  ++observations_;
}

double DriftMonitor::max_drift() const {
  double worst = 0.0;
  auto scan = [&worst](const Matrix<double>& now, const Matrix<double>& base) {
    for (std::size_t i = 0; i < now.rows(); ++i) {
      for (std::size_t j = 0; j < now.cols(); ++j) {
        const double reference = std::abs(base(i, j));
        if (reference == 0.0) {
          continue;
        }
        worst = std::max(worst, std::abs(now(i, j) - base(i, j)) / reference);
      }
    }
  };
  scan(current_.overhead(), baseline_.overhead());
  scan(current_.latency(), baseline_.latency());
  if (current_.has_rma_latency() && baseline_.has_rma_latency()) {
    scan(current_.rma_latency(), baseline_.rma_latency());
  }
  return worst;
}

void DriftMonitor::rebaseline() { baseline_ = current_; }

void DriftMonitor::rebaseline(TopologyProfile view) {
  OPTIBAR_REQUIRE(view.ranks() == current_.ranks(),
                  "re-anchor view has " << view.ranks() << " ranks, monitor "
                                        << current_.ranks());
  baseline_ = std::move(view);
}

RetuneDecision evaluate_retune(double current_cost_seconds,
                               double candidate_cost_seconds,
                               double retune_overhead_seconds,
                               double expected_remaining_calls) {
  OPTIBAR_REQUIRE(retune_overhead_seconds >= 0.0, "negative overhead");
  OPTIBAR_REQUIRE(expected_remaining_calls >= 0.0, "negative call estimate");
  RetuneDecision decision;
  decision.gain_per_call = current_cost_seconds - candidate_cost_seconds;
  if (decision.gain_per_call <= 0.0) {
    decision.break_even_calls = std::numeric_limits<double>::infinity();
    return decision;  // candidate is not better: never re-tune
  }
  decision.break_even_calls =
      retune_overhead_seconds / decision.gain_per_call;
  decision.retune = expected_remaining_calls > decision.break_even_calls;
  return decision;
}

}  // namespace optibar
