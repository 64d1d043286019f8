// Tiled topology profile: the sub-quadratic O/L/G/R representation.
//
// A dense TopologyProfile stores up to four P x P matrices — 3.4 GB of
// doubles at P = 10240. On a clustered machine almost all of that is
// redundant: the matrix is a block grid in which every intra-cluster
// tile repeats per cluster class and every inter-cluster block is a
// single constant (§IV-B's "similar submatrices corresponding to
// similar subsystems", and the homogeneous blocks of Estefanel &
// Mounié). The tiled form stores exactly the non-redundant part:
//
//   - one dense t x t tile (a small TopologyProfile) per cluster CLASS,
//   - one scalar per ordered class pair and matrix for the
//     inter-cluster blocks,
//   - the rank -> cluster assignment and cluster -> class map.
//
// Memory is O(P + K·t² + C²) instead of O(P²). Element accessors
// o/l/g/r(i, j) mirror TopologyProfile exactly — same fallbacks (g -> 0,
// r -> l when absent) — and are bit-identical to the dense accessors on
// any machine whose block structure is exact (every preset with zero
// jitter), so small-P code can consume either form interchangeably.
//
// Disk format v4 (see docs/FORMATS.md) serializes the tiled structure;
// dense profiles are untouched and keep writing byte-identical v1/v2/v3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "profile/logical_clusters.hpp"
#include "topology/profile.hpp"
#include "util/matrix.hpp"

namespace optibar {

class TiledProfile {
 public:
  TiledProfile() = default;

  /// Assemble a tiled profile directly from its parts — the generator
  /// path, where no dense P x P matrix ever exists. `clusters` must
  /// partition 0..P-1 canonically (numbered by smallest member),
  /// `class_of` must be in first-appearance order, every cluster's size
  /// must match its class tile, and the inter matrices must be
  /// classes x classes (G/R present exactly when the tiles carry them).
  TiledProfile(std::vector<std::vector<std::size_t>> clusters,
               std::vector<std::size_t> class_of,
               std::vector<TopologyProfile> tiles, Matrix<double> inter_o,
               Matrix<double> inter_l, Matrix<double> inter_g,
               Matrix<double> inter_r, double tolerance);

  /// Build the tiled form of a dense profile under a given
  /// decomposition. Tiles are taken from each class's first cluster and
  /// inter-cluster scalars from each class pair's first block; every
  /// other entry of `dense` is then verified to sit within
  /// `decomp.tolerance` (relative) of its representative — a violation
  /// throws Error, because silently lumping a non-block machine would
  /// misprice every schedule tuned on it.
  static TiledProfile from_dense(const TopologyProfile& dense,
                                 const ClusterDecomposition& decomp);

  std::size_t ranks() const { return assignment_.size(); }
  std::size_t cluster_count() const { return clusters_.size(); }
  std::size_t class_count() const { return tiles_.size(); }

  const std::vector<std::size_t>& assignment() const { return assignment_; }
  const std::vector<std::vector<std::size_t>>& clusters() const {
    return clusters_;
  }
  const std::vector<std::size_t>& class_of() const { return class_of_; }

  /// The representative t x t intra-cluster profile of class k.
  const TopologyProfile& class_tile(std::size_t k) const { return tiles_[k]; }

  /// Cluster id and position-within-cluster of a global rank.
  std::size_t cluster_of(std::size_t rank) const { return assignment_[rank]; }
  std::size_t local_index(std::size_t rank) const {
    return local_index_[rank];
  }

  bool has_bandwidth() const { return has_g_; }
  bool has_rma_latency() const { return has_r_; }

  /// Relative tolerance the block structure was verified at.
  double tolerance() const { return tolerance_; }

  /// Inter-cluster scalars per ordered class pair. Entries for class
  /// pairs with no realized cluster pair (a class with a single cluster
  /// on its own diagonal) are 0 and never consulted by the accessors.
  double inter_o(std::size_t ka, std::size_t kb) const {
    return inter_o_(ka, kb);
  }
  double inter_l(std::size_t ka, std::size_t kb) const {
    return inter_l_(ka, kb);
  }
  double inter_g(std::size_t ka, std::size_t kb) const {
    return has_g_ ? inter_g_(ka, kb) : 0.0;
  }
  double inter_r(std::size_t ka, std::size_t kb) const {
    return has_r_ ? inter_r_(ka, kb) : inter_l_(ka, kb);
  }

  /// Element accessors, bit-compatible with TopologyProfile on exact
  /// block machines (same g -> 0 and r -> l fallbacks).
  double o(std::size_t i, std::size_t j) const {
    const std::size_t ci = assignment_[i];
    const std::size_t cj = assignment_[j];
    if (ci == cj) {
      return tiles_[class_of_[ci]].o(local_index_[i], local_index_[j]);
    }
    return inter_o_(class_of_[ci], class_of_[cj]);
  }
  double l(std::size_t i, std::size_t j) const {
    const std::size_t ci = assignment_[i];
    const std::size_t cj = assignment_[j];
    if (ci == cj) {
      return tiles_[class_of_[ci]].l(local_index_[i], local_index_[j]);
    }
    return inter_l_(class_of_[ci], class_of_[cj]);
  }
  double g(std::size_t i, std::size_t j) const {
    if (!has_g_) {
      return 0.0;
    }
    const std::size_t ci = assignment_[i];
    const std::size_t cj = assignment_[j];
    if (ci == cj) {
      return tiles_[class_of_[ci]].g(local_index_[i], local_index_[j]);
    }
    return inter_g_(class_of_[ci], class_of_[cj]);
  }
  double r(std::size_t i, std::size_t j) const {
    if (!has_r_) {
      return l(i, j);
    }
    const std::size_t ci = assignment_[i];
    const std::size_t cj = assignment_[j];
    if (ci == cj) {
      return tiles_[class_of_[ci]].r(local_index_[i], local_index_[j]);
    }
    return inter_r_(class_of_[ci], class_of_[cj]);
  }

  /// Materialize the dense profile (guarded by the dense format cap —
  /// the whole point of the tiled form is never doing this at 10k).
  TopologyProfile to_dense() const;

  /// Dense submatrix over an arbitrary ordered rank subset, all planes,
  /// built from the accessors (to_dense() and small-P interop; the
  /// hierarchical tuner builds its O/L-only leader profile itself).
  TopologyProfile restrict_to(const std::vector<std::size_t>& ranks) const;

  /// Exact bytes held by the representation (tiles + scalars + maps).
  std::size_t memory_bytes() const;

  void save(std::ostream& os) const;
  static TiledProfile load(std::istream& is);
  void save_file(const std::string& path) const;
  static TiledProfile load_file(const std::string& path);

  bool operator==(const TiledProfile& other) const = default;

 private:
  std::vector<std::size_t> assignment_;     ///< rank -> cluster id
  std::vector<std::uint32_t> local_index_;  ///< rank -> position in cluster
  std::vector<std::vector<std::size_t>> clusters_;
  std::vector<std::size_t> class_of_;  ///< cluster -> class
  std::vector<TopologyProfile> tiles_;  ///< class -> representative tile
  Matrix<double> inter_o_;  ///< class x class inter-cluster scalars
  Matrix<double> inter_l_;
  Matrix<double> inter_g_;  ///< empty when has_g_ is false
  Matrix<double> inter_r_;  ///< empty when has_r_ is false
  bool has_g_ = false;
  bool has_r_ = false;
  double tolerance_ = 0.0;

  void rebuild_local_index();
  void validate() const;
};

}  // namespace optibar
