#include "core/hierarchical.hpp"

#include <sstream>
#include <utility>

#include "barrier/validate.hpp"
#include "core/cluster_tree.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace optibar {
namespace {

/// Cap for the static deadlock-freedom proof of blocked plans. The
/// proof runs on the flat schedule (to_dense(), O(signals)); its Eq. 3
/// check costs O(P/64 * signals) and P^2/8 bytes of knowledge bits, ~5 ms
/// and 13 MB at 10240 ranks, which would dominate the tenk tune. So it
/// runs at debug scale, where the parity and preset tests live. The
/// blocked plan is a barrier by construction (validated class arrivals +
/// leader barrier composed per §VII-B); above the cap the correctness
/// evidence is those tests plus netsim completion at 10k (bench_scale,
/// the perf smoke test).
constexpr std::size_t kValidateDenseCap = 512;

/// The leaders' profile, symmetrized, with O and L only: the blocked
/// barrier path prices every edge two-sided and carries no payload, so
/// it never reads G or R, and leaving them out halves the bytes built.
TopologyProfile leader_profile(const TiledProfile& tiled,
                               const std::vector<std::size_t>& leaders) {
  const std::size_t n = leaders.size();
  Matrix<double> o(n, n);
  Matrix<double> l(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      o(a, b) = tiled.o(leaders[a], leaders[b]);
      l(a, b) = tiled.l(leaders[a], leaders[b]);
    }
  }
  return TopologyProfile(std::move(o), std::move(l)).symmetrized();
}

HierarchicalTuneResult dense_fallback(const TopologyProfile& profile,
                                      const EngineOptions& options,
                                      ClusterDecomposition decomposition,
                                      std::string reason, ThreadPool* pool) {
  HierarchicalTuneResult result;
  result.used_dense_fallback = true;
  result.fallback_reason = std::move(reason);
  result.decomposition = std::move(decomposition);
  result.dense.emplace(tune_barrier(profile, options, pool));
  result.predicted_cost = result.dense->predicted_cost();
  return result;
}

/// The core assembly: one composed arrival per cluster class, one over
/// the leaders, glued into a BlockedSchedule and priced on the tiled
/// profile. `tiled` must have >= 2 clusters.
HierarchicalTuneResult tune_blocked(const TiledProfile& tiled,
                                    ClusterDecomposition decomposition,
                                    const EngineOptions& options,
                                    ThreadPool* pool) {
  HierarchicalTuneResult result;
  result.decomposition = std::move(decomposition);
  result.tiled = tiled;

  const std::size_t k = tiled.class_count();
  std::vector<Schedule> class_arrivals;
  std::vector<std::size_t> rep_local(k);
  class_arrivals.reserve(k);
  result.class_choices.reserve(k);
  result.class_algorithms.reserve(k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    // Tiles of a measured machine carry sampling asymmetry like any
    // profile; the clustering metric needs symmetry, so normalise the
    // t x t tile (a no-op for generated/symmetrized inputs).
    const TopologyProfile tile = tiled.class_tile(kk).symmetrized();
    const ClusterNode tree = build_cluster_tree(tile, options.clustering, pool);
    // Local rank that speaks for every cluster of this class at the
    // inter-cluster stage: the tile tree's representative.
    rep_local[kk] = tree.representative();
    ArrivalComposition arrival = compose_arrival(
        tile, tree, options.composition, /*treat_root_as_global=*/false, pool);
    result.class_algorithms.push_back(arrival.root_algorithm);
    result.class_choices.push_back(std::move(arrival.choices));
    class_arrivals.push_back(std::move(arrival.arrival));
  }

  const std::size_t c = tiled.cluster_count();
  std::vector<std::size_t> leader_ranks(c);
  for (std::size_t ci = 0; ci < c; ++ci) {
    leader_ranks[ci] = tiled.clusters()[ci][rep_local[tiled.class_of()[ci]]];
  }
  const TopologyProfile leaders = leader_profile(tiled, leader_ranks);
  const ClusterNode leader_tree =
      build_cluster_tree(leaders, options.clustering, pool);
  ArrivalComposition leader_arrival =
      compose_arrival(leaders, leader_tree, options.composition,
                      /*treat_root_as_global=*/true, pool);
  result.leader_algorithm = leader_arrival.root_algorithm;
  result.leader_self_completing = leader_arrival.root_self_completing;
  result.leader_choices = std::move(leader_arrival.choices);

  result.blocked = BlockedSchedule(
      tiled.clusters(), tiled.class_of(), std::move(class_arrivals),
      std::move(leader_arrival.arrival), std::move(leader_ranks),
      result.leader_self_completing);

  // Small plans still get the static deadlock-freedom proof the dense
  // tuner applies (see kValidateDenseCap).
  if (result.blocked.ranks() <= kValidateDenseCap) {
    const ValidationResult validation = validate_schedule(StoredSchedule{
        result.blocked.to_dense(),
        result.blocked.awaited_stages()});
    OPTIBAR_ASSERT(validation.ok(), "hierarchically tuned schedule failed "
                                    "validation: "
                                        << validation.describe());
  }

  compile_blocked(result.blocked, tiled, result.compiled);
  PredictOptions predict_options;
  predict_options.awaited_stages = result.blocked.awaited_stages();
  PredictWorkspace workspace;
  result.predicted_cost =
      predicted_time(result.compiled, predict_options, workspace);
  return result;
}

/// Decomposition view of a profile that is already tiled (no detection
/// ran; the threshold is unknown).
ClusterDecomposition decomposition_of(const TiledProfile& tiled) {
  ClusterDecomposition decomp;
  decomp.assignment = tiled.assignment();
  decomp.clusters = tiled.clusters();
  decomp.class_of = tiled.class_of();
  decomp.num_classes = tiled.class_count();
  decomp.tolerance = tiled.tolerance();
  return decomp;
}

}  // namespace

std::string HierarchicalTuneResult::describe() const {
  std::ostringstream os;
  if (used_dense_fallback) {
    os << "dense fallback: " << fallback_reason << "\n";
    if (dense) {
      os << dense->barrier().describe();
    }
    return os.str();
  }
  os << decomposition.cluster_count() << " clusters in "
     << decomposition.num_classes << " classes";
  if (decomposition.threshold > 0.0) {
    os << " (cut at " << decomposition.threshold << " s)";
  }
  os << "\n";
  for (std::size_t kk = 0; kk < class_algorithms.size(); ++kk) {
    std::size_t instances = 0;
    for (std::size_t cls : decomposition.class_of) {
      instances += cls == kk ? 1 : 0;
    }
    os << "  class " << kk << ": " << instances << " x "
       << tiled.class_tile(kk).ranks() << " ranks, "
       << class_algorithms[kk] << "\n";
  }
  os << "  leaders: " << blocked.cluster_count() << " ranks, "
     << leader_algorithm << (leader_self_completing ? " (self-completing)" : "")
     << "\n";
  os << "  " << blocked.stage_count() << " stages, "
     << blocked.total_signals() << " signals, predicted " << predicted_cost
     << " s\n";
  return os.str();
}

HierarchicalTuneResult tune_hierarchical(const TopologyProfile& profile,
                                         const EngineOptions& options,
                                         const DetectOptions& detection) {
  std::optional<ThreadPool> local_pool;
  if (options.resolved_threads() > 1) {
    local_pool.emplace(options.resolved_threads());
  }
  return tune_hierarchical(profile, options, detection,
                           local_pool ? &*local_pool : nullptr);
}

HierarchicalTuneResult tune_hierarchical(const TopologyProfile& profile,
                                         const EngineOptions& options,
                                         const DetectOptions& detection,
                                         ThreadPool* pool) {
  options.validate();
  OPTIBAR_REQUIRE(profile.ranks() > 0, "empty profile");
  const TopologyProfile symmetric = profile.symmetrized();
  ClusterDecomposition decomp = detect_logical_clusters(symmetric, detection);
  if (decomp.single_cluster()) {
    return dense_fallback(profile, options, std::move(decomp),
                          "machine has a single logical cluster", pool);
  }
  TiledProfile tiled;
  try {
    tiled = TiledProfile::from_dense(symmetric, decomp);
  } catch (const Error& error) {
    return dense_fallback(profile, options, std::move(decomp),
                          std::string("profile is not block-structured: ") +
                              error.what(),
                          pool);
  }
  return tune_blocked(tiled, std::move(decomp), options, pool);
}

HierarchicalTuneResult tune_hierarchical(const TiledProfile& tiled,
                                         const EngineOptions& options) {
  std::optional<ThreadPool> local_pool;
  if (options.resolved_threads() > 1) {
    local_pool.emplace(options.resolved_threads());
  }
  return tune_hierarchical(tiled, options, local_pool ? &*local_pool : nullptr);
}

HierarchicalTuneResult tune_hierarchical(const TiledProfile& tiled,
                                         const EngineOptions& options,
                                         ThreadPool* pool) {
  options.validate();
  OPTIBAR_REQUIRE(tiled.ranks() > 0, "empty profile");
  if (tiled.cluster_count() < 2) {
    // A one-cluster tiled profile IS its tile; densify (guarded by the
    // dense cap inside to_dense) and run the flat pipeline.
    return dense_fallback(tiled.to_dense(), options, decomposition_of(tiled),
                          "tiled profile has a single cluster", pool);
  }
  return tune_blocked(tiled, decomposition_of(tiled), options, pool);
}

}  // namespace optibar
