// Hierarchical tuning: the sub-quadratic tune path for large clustered
// machines.
//
// The dense pipeline (core/tuner.hpp) touches every O/L entry several
// times — O(P²) clustering distance work on a P x P profile — so it
// tops out around a few thousand ranks. On a machine whose profile
// is block-structured (§IV-B: "similar submatrices corresponding to
// similar subsystems"), almost all of that work is redundant: every
// cluster of a class would receive the *same* local sub-barrier. The
// hierarchical tuner exploits that directly:
//
//   1. detect logical clusters from the O/L block structure
//      (profile/logical_clusters.hpp) and lift the profile into its
//      tiled form (profile/tiled_profile.hpp);
//   2. tune ONE representative sub-barrier per cluster class — the
//      usual SSS tree + greedy composition, but on a t x t tile;
//   3. tune the inter-cluster stage over the C cluster leaders (the
//      class trees' representatives), a C x C problem;
//   4. assemble the result as a BlockedSchedule — per-class local
//      arrivals replicated positionally across same-class clusters,
//      the leader arrival merged early, the departure transposed —
//      without ever materializing a dense P x P stage.
//
// Work is O(K·tune(t) + tune(C) + signals) instead of O(tune(P));
// memory is the tiled profile plus the blocked plan, both
// sub-quadratic. When the machine is NOT block-structured (a single
// logical cluster, or tiles that fail tolerance verification) the
// tuner falls back to the dense pipeline and returns its result
// bit-identically — flat machines lose nothing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "core/composer.hpp"
#include "core/engine_options.hpp"
#include "core/tuner.hpp"
#include "profile/logical_clusters.hpp"
#include "profile/tiled_profile.hpp"

namespace optibar {

class ThreadPool;

struct HierarchicalTuneResult {
  /// True when the machine was not block-structured and the dense
  /// pipeline ran instead; `dense` then holds the full dense result
  /// (bit-identical to tune_barrier on the same profile) and the
  /// blocked members below are empty.
  bool used_dense_fallback = false;
  std::string fallback_reason;
  std::optional<TuneResult> dense;

  ClusterDecomposition decomposition;
  TiledProfile tiled;
  BlockedSchedule blocked;

  /// Greedy decisions, for reporting: per-class choices are in the
  /// tile's LOCAL rank space (identical for every cluster of the
  /// class); leader choices are over global leader ranks.
  std::vector<std::vector<LevelChoice>> class_choices;
  std::vector<std::string> class_algorithms;  ///< top level of each tile
  std::vector<LevelChoice> leader_choices;
  std::string leader_algorithm;
  bool leader_self_completing = false;

  /// The blocked plan compiled against `tiled` (compile_blocked), the
  /// very form predicted_cost was priced on: predict or simulate it
  /// instead of compiling the plan again. Empty on the dense path.
  CompiledSchedule compiled;

  /// Eq. 1/2 predicted critical-path cost of the assembled barrier,
  /// computed on `compiled` (dense path: the dense tuner's own
  /// prediction).
  double predicted_cost = 0.0;

  /// Human-readable summary: decomposition shape plus one line per
  /// tuning decision.
  std::string describe() const;
};

/// Tune a dense profile hierarchically: detect clusters, lift to the
/// tiled form, tune per class + leaders. Falls back to the dense
/// pipeline (bit-identical to tune_barrier) when the machine has a
/// single logical cluster or its blocks fail tolerance verification.
HierarchicalTuneResult tune_hierarchical(const TopologyProfile& profile,
                                         const EngineOptions& options = {},
                                         const DetectOptions& detection = {});
HierarchicalTuneResult tune_hierarchical(const TopologyProfile& profile,
                                         const EngineOptions& options,
                                         const DetectOptions& detection,
                                         ThreadPool* pool);

/// Tune an already-tiled profile — the 10k-rank entry point, where no
/// dense P x P matrix exists at any stage. The profile should be
/// symmetric (generated profiles with zero asymmetry are). A tiled
/// profile with fewer than two clusters densifies and falls back
/// (guarded by the dense cap).
HierarchicalTuneResult tune_hierarchical(const TiledProfile& tiled,
                                         const EngineOptions& options = {});
HierarchicalTuneResult tune_hierarchical(const TiledProfile& tiled,
                                         const EngineOptions& options,
                                         ThreadPool* pool);

}  // namespace optibar
