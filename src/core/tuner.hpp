// AdaptiveTuner: the end-to-end pipeline of Figure 1's right half.
//
// profile (from disk or an estimator) -> symmetrize -> SSS cluster tree
// -> greedy hybrid composition -> predicted cost + generated code.
// This is the single entry point a library user needs; the individual
// stages remain available for ablation and inspection.
#pragma once

#include <string>

#include "core/cluster_tree.hpp"
#include "core/codegen.hpp"
#include "core/composer.hpp"
#include "core/engine_options.hpp"
#include "topology/profile.hpp"

namespace optibar {

class ThreadPool;

/// Deprecated alias: the tuning knobs were consolidated into the
/// top-level EngineOptions (core/engine_options.hpp), which also
/// carries the search caps and the engine's thread count. Existing
/// code using `.clustering` / `.composition` / `.function_name`
/// continues to work unchanged.
using TuneOptions = EngineOptions;

class TuneResult {
 public:
  TuneResult(TopologyProfile profile, ClusterNode tree, ComposedBarrier barrier,
             double predicted_cost, std::string function_name);

  /// The symmetrized profile the decisions were made against.
  const TopologyProfile& profile() const { return profile_; }
  const ClusterNode& cluster_tree() const { return tree_; }
  const ComposedBarrier& barrier() const { return barrier_; }
  const Schedule& schedule() const { return barrier_.schedule; }

  /// Predicted critical-path cost of the hybrid barrier (Eq. 2 applied
  /// to departure stages).
  double predicted_cost() const { return predicted_cost_; }

  /// Specialised C++ source for the hybrid barrier (Section VII-C).
  GeneratedCode generated_code() const;

 private:
  TopologyProfile profile_;
  ClusterNode tree_;
  ComposedBarrier barrier_;
  double predicted_cost_;
  std::string function_name_;
};

/// Run the full tuning pipeline on a profile. With options.threads > 1
/// the clustering recursion, the composer's candidate evaluation and
/// subtree builds run on an internal work-stealing pool; the tuned
/// schedule is bit-identical to the serial result at any width.
TuneResult tune_barrier(const TopologyProfile& profile,
                        const EngineOptions& options = {});

/// As above, but on an existing pool (nullptr = serial) instead of
/// spawning one per call — the form BarrierLibrary uses so concurrent
/// tunes share one set of threads. `options.threads` is ignored here.
TuneResult tune_barrier(const TopologyProfile& profile,
                        const EngineOptions& options, ThreadPool* pool);

}  // namespace optibar
