#include "profile/tiled_profile.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {
namespace {

constexpr const char* kMagic = "optibar-profile";
// The tiled format exists precisely to go beyond the dense 8192-rank
// cap; its own cap only bounds hostile headers before allocation.
constexpr std::size_t kMaxTiledRanks = std::size_t{1} << 20;
constexpr std::size_t kMaxClusters = 65536;

bool rel_close(double a, double b, double tol) {
  const double denom = std::max(std::abs(a), std::abs(b));
  if (denom == 0.0) {
    return true;
  }
  return std::abs(a - b) <= tol * denom;
}

}  // namespace

void TiledProfile::rebuild_local_index() {
  local_index_.assign(assignment_.size(), 0);
  for (const auto& members : clusters_) {
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      local_index_[members[pos]] = static_cast<std::uint32_t>(pos);
    }
  }
}

void TiledProfile::validate() const {
  const std::size_t p = assignment_.size();
  const std::size_t c = clusters_.size();
  const std::size_t k = tiles_.size();
  OPTIBAR_REQUIRE(p > 0 && c > 0 && k > 0, "empty tiled profile");
  OPTIBAR_REQUIRE(class_of_.size() == c, "class map size mismatch");
  // Canonical cluster numbering: assignment ids appear in first-use
  // order, so cluster 0 contains rank 0 and renumbering is impossible.
  std::size_t seen = 0;
  for (std::size_t i = 0; i < p; ++i) {
    OPTIBAR_REQUIRE(assignment_[i] <= seen && assignment_[i] < c,
                    "non-canonical cluster assignment at rank " << i);
    if (assignment_[i] == seen) {
      ++seen;
    }
  }
  OPTIBAR_REQUIRE(seen == c, "assignment realizes " << seen << " of " << c
                                                    << " clusters");
  // Same first-appearance contract for classes, and every cluster's
  // size must match its class tile.
  seen = 0;
  for (std::size_t ci = 0; ci < c; ++ci) {
    OPTIBAR_REQUIRE(class_of_[ci] <= seen && class_of_[ci] < k,
                    "non-canonical class id for cluster " << ci);
    if (class_of_[ci] == seen) {
      ++seen;
    }
    OPTIBAR_REQUIRE(!clusters_[ci].empty(), "empty cluster " << ci);
    OPTIBAR_REQUIRE(clusters_[ci].size() == tiles_[class_of_[ci]].ranks(),
                    "cluster " << ci << " has " << clusters_[ci].size()
                               << " ranks but its class tile has "
                               << tiles_[class_of_[ci]].ranks());
  }
  OPTIBAR_REQUIRE(seen == k, "class map realizes " << seen << " of " << k
                                                   << " classes");
  for (std::size_t kk = 0; kk < k; ++kk) {
    OPTIBAR_REQUIRE(tiles_[kk].has_bandwidth() == has_g_,
                    "tile " << kk << " bandwidth presence disagrees with "
                               "the profile-wide G flag");
    OPTIBAR_REQUIRE(tiles_[kk].has_rma_latency() == has_r_,
                    "tile " << kk << " RMA presence disagrees with the "
                               "profile-wide R flag");
  }
  OPTIBAR_REQUIRE(inter_o_.rows() == k && inter_o_.cols() == k &&
                      inter_l_.rows() == k && inter_l_.cols() == k,
                  "inter-class scalar matrices must be classes x classes");
  OPTIBAR_REQUIRE(has_g_ == !inter_g_.empty() && has_r_ == !inter_r_.empty(),
                  "inter-class G/R presence disagrees with flags");
  OPTIBAR_REQUIRE(std::isfinite(tolerance_) && tolerance_ >= 0.0 &&
                      tolerance_ < 1.0,
                  "tolerance must be in [0, 1)");
}

TiledProfile::TiledProfile(std::vector<std::vector<std::size_t>> clusters,
                           std::vector<std::size_t> class_of,
                           std::vector<TopologyProfile> tiles,
                           Matrix<double> inter_o, Matrix<double> inter_l,
                           Matrix<double> inter_g, Matrix<double> inter_r,
                           double tolerance)
    : clusters_(std::move(clusters)),
      class_of_(std::move(class_of)),
      tiles_(std::move(tiles)),
      inter_o_(std::move(inter_o)),
      inter_l_(std::move(inter_l)),
      inter_g_(std::move(inter_g)),
      inter_r_(std::move(inter_r)),
      tolerance_(tolerance) {
  OPTIBAR_REQUIRE(!tiles_.empty(), "tiled profile needs at least one tile");
  has_g_ = tiles_.front().has_bandwidth();
  has_r_ = tiles_.front().has_rma_latency();
  std::size_t p = 0;
  for (const auto& members : clusters_) {
    p += members.size();
  }
  OPTIBAR_REQUIRE(p <= kMaxTiledRanks && clusters_.size() <= kMaxClusters,
                  "tiled profile exceeds the format caps");
  assignment_.assign(p, clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (std::size_t rank : clusters_[c]) {
      OPTIBAR_REQUIRE(rank < p && assignment_[rank] == clusters_.size(),
                      "clusters do not partition the rank space");
      assignment_[rank] = c;
    }
  }
  rebuild_local_index();
  validate();
}

TiledProfile TiledProfile::from_dense(const TopologyProfile& dense,
                                      const ClusterDecomposition& decomp) {
  const std::size_t p = dense.ranks();
  OPTIBAR_REQUIRE(decomp.assignment.size() == p,
                  "decomposition covers " << decomp.assignment.size()
                                          << " ranks, profile has " << p);
  TiledProfile out;
  out.assignment_ = decomp.assignment;
  out.clusters_ = decomp.clusters;
  out.class_of_ = decomp.class_of;
  out.has_g_ = dense.has_bandwidth();
  out.has_r_ = dense.has_rma_latency();
  out.tolerance_ = decomp.tolerance;
  const std::size_t num_classes = decomp.num_classes;
  const std::size_t num_clusters = decomp.clusters.size();
  OPTIBAR_REQUIRE(num_classes > 0 && num_classes <= num_clusters,
                  "decomposition has no classes");

  // Representative tiles: each class's first cluster, extracted exactly.
  std::vector<std::size_t> class_rep(num_classes, num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    if (class_rep[decomp.class_of[c]] == num_clusters) {
      class_rep[decomp.class_of[c]] = c;
    }
  }
  out.tiles_.reserve(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    out.tiles_.push_back(dense.restrict_to(decomp.clusters[class_rep[k]]));
  }

  // Inter-cluster scalars: the first realized block of each ordered
  // class pair donates its (0, 0) entry.
  out.inter_o_ = Matrix<double>(num_classes, num_classes);
  out.inter_l_ = Matrix<double>(num_classes, num_classes);
  if (out.has_g_) {
    out.inter_g_ = Matrix<double>(num_classes, num_classes);
  }
  if (out.has_r_) {
    out.inter_r_ = Matrix<double>(num_classes, num_classes);
  }
  Matrix<std::uint8_t> pair_seen(num_classes, num_classes);
  for (std::size_t ca = 0; ca < num_clusters; ++ca) {
    for (std::size_t cb = 0; cb < num_clusters; ++cb) {
      if (ca == cb) {
        continue;
      }
      const std::size_t ka = decomp.class_of[ca];
      const std::size_t kb = decomp.class_of[cb];
      if (pair_seen(ka, kb)) {
        continue;
      }
      pair_seen(ka, kb) = 1;
      const std::size_t i = decomp.clusters[ca].front();
      const std::size_t j = decomp.clusters[cb].front();
      out.inter_o_(ka, kb) = dense.o(i, j);
      out.inter_l_(ka, kb) = dense.l(i, j);
      if (out.has_g_) {
        out.inter_g_(ka, kb) = dense.g(i, j);
      }
      if (out.has_r_) {
        out.inter_r_(ka, kb) = dense.r(i, j);
      }
    }
  }

  out.rebuild_local_index();
  out.validate();

  // Verify the whole dense matrix sits within tolerance of its tiled
  // reconstruction — tiles for intra blocks, scalars for inter blocks.
  // Lumping a machine that is not actually block-structured would
  // misprice every schedule tuned on it, so this is a hard error.
  const double tol = decomp.tolerance;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      const bool ok =
          rel_close(dense.o(i, j), out.o(i, j), tol) &&
          rel_close(dense.l(i, j), out.l(i, j), tol) &&
          (!out.has_g_ || rel_close(dense.g(i, j), out.g(i, j), tol)) &&
          (!out.has_r_ || rel_close(dense.r(i, j), out.r(i, j), tol));
      OPTIBAR_REQUIRE(
          ok, "profile is not block-structured within tolerance "
                  << tol << ": entry (" << i << ", " << j
                  << ") deviates from its cluster representative");
    }
  }
  return out;
}

TopologyProfile TiledProfile::to_dense() const {
  // Keep the materialized form inside the dense format's own cap; a
  // 10k-rank tiled profile must never be expanded.
  OPTIBAR_REQUIRE(ranks() <= 8192,
                  "refusing to densify a " << ranks() << "-rank tiled profile");
  std::vector<std::size_t> all(ranks());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return restrict_to(all);
}

TopologyProfile TiledProfile::restrict_to(
    const std::vector<std::size_t>& subset) const {
  OPTIBAR_REQUIRE(!subset.empty(), "restrict_to empty rank set");
  const std::size_t n = subset.size();
  for (std::size_t rank : subset) {
    OPTIBAR_REQUIRE(rank < ranks(), "rank " << rank << " out of range");
  }
  Matrix<double> o(n, n);
  Matrix<double> l(n, n);
  Matrix<double> g;
  Matrix<double> r;
  if (has_g_) {
    g = Matrix<double>(n, n);
  }
  if (has_r_) {
    r = Matrix<double>(n, n);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      o(a, b) = this->o(subset[a], subset[b]);
      l(a, b) = this->l(subset[a], subset[b]);
      if (has_g_) {
        g(a, b) = this->g(subset[a], subset[b]);
      }
      if (has_r_) {
        r(a, b) = this->r(subset[a], subset[b]);
      }
    }
  }
  TopologyProfile result =
      g.empty() ? TopologyProfile(std::move(o), std::move(l))
                : TopologyProfile(std::move(o), std::move(l), std::move(g));
  if (!r.empty()) {
    result.set_rma_latency(std::move(r));
  }
  return result;
}

std::size_t TiledProfile::memory_bytes() const {
  std::size_t bytes = assignment_.size() * sizeof(std::size_t) +
                      local_index_.size() * sizeof(std::uint32_t) +
                      class_of_.size() * sizeof(std::size_t);
  for (const auto& members : clusters_) {
    bytes += members.size() * sizeof(std::size_t);
  }
  for (const auto& tile : tiles_) {
    const std::size_t t = tile.ranks();
    std::size_t mats = 2;
    mats += tile.has_bandwidth() ? 1 : 0;
    mats += tile.has_rma_latency() ? 1 : 0;
    bytes += mats * t * t * sizeof(double);
  }
  const std::size_t k = tiles_.size();
  std::size_t inter_mats = 2;
  inter_mats += has_g_ ? 1 : 0;
  inter_mats += has_r_ ? 1 : 0;
  bytes += inter_mats * k * k * sizeof(double);
  return bytes;
}

void TiledProfile::save(std::ostream& os) const {
  validate();
  os << kMagic << " v4\n";
  os << "P " << ranks() << '\n';
  os << "clusters " << cluster_count() << '\n';
  os << "classes " << class_count() << '\n';
  std::string mats = "OL";
  if (has_g_) {
    mats += 'G';
  }
  if (has_r_) {
    mats += 'R';
  }
  os << "matrices " << mats << '\n';
  os << std::setprecision(17) << std::scientific;
  os << "tolerance " << tolerance_ << '\n';
  os << "assignment\n";
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    os << assignment_[i] << (i + 1 == assignment_.size() ? '\n' : ' ');
  }
  os << "class-of\n";
  for (std::size_t c = 0; c < class_of_.size(); ++c) {
    os << class_of_[c] << (c + 1 == class_of_.size() ? '\n' : ' ');
  }
  for (std::size_t k = 0; k < tiles_.size(); ++k) {
    os << "tile " << k << '\n';
    // Tiles embed the dense format verbatim, reusing its hardened
    // loader (caps, finiteness, truncation checks) on the way back in.
    tiles_[k].save(os);
    os << std::setprecision(17) << std::scientific;
  }
  auto dump = [&](const char* tag, const Matrix<double>& m) {
    os << tag << '\n';
    for (std::size_t a = 0; a < m.rows(); ++a) {
      for (std::size_t b = 0; b < m.cols(); ++b) {
        os << m(a, b) << (b + 1 == m.cols() ? '\n' : ' ');
      }
    }
  };
  os << "inter\n";
  dump("O", inter_o_);
  dump("L", inter_l_);
  if (has_g_) {
    dump("G", inter_g_);
  }
  if (has_r_) {
    dump("R", inter_r_);
  }
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing tiled profile");
}

TiledProfile TiledProfile::load(std::istream& is) {
  // Untrusted input: every count is capped, every float must be finite,
  // id lists and matrices grow with the data read rather than with the
  // header, and the canonical-ordering / size invariants are
  // re-validated at the end. Tiles share this scanner (it reads ahead).
  Scanner in(is);
  const std::string_view magic = in.token("profile magic");
  OPTIBAR_IO_REQUIRE(magic == kMagic,
                     "not an optibar profile (magic '" << magic << "')");
  const std::string_view version = in.token("profile version");
  OPTIBAR_IO_REQUIRE(version == "v4",
                     "not a tiled profile (version " << version
                                                     << ", expected v4)");
  auto read_count = [&](const char* name, std::size_t cap) {
    in.expect(name);
    const std::size_t value = in.count(name, cap);
    OPTIBAR_IO_REQUIRE(value > 0,
                       "malformed tiled profile header (" << name << ")");
    return value;
  };
  const std::size_t p = read_count("P", kMaxTiledRanks);
  const std::size_t num_clusters = read_count("clusters", kMaxClusters);
  const std::size_t num_classes = read_count("classes", num_clusters);
  OPTIBAR_IO_REQUIRE(num_clusters <= p,
                     "more clusters than ranks in tiled profile header");
  in.expect("matrices");
  const std::string_view mats = in.token("matrices declaration");
  OPTIBAR_IO_REQUIRE(
      mats == "OL" || mats == "OLG" || mats == "OLR" || mats == "OLGR",
      "malformed tiled profile matrices declaration");
  TiledProfile out;
  out.has_g_ = mats.find('G') != std::string_view::npos;
  out.has_r_ = mats.find('R') != std::string_view::npos;
  in.expect("tolerance");
  out.tolerance_ = in.finite("tolerance");
  OPTIBAR_IO_REQUIRE(out.tolerance_ >= 0.0 && out.tolerance_ < 1.0,
                     "malformed tiled profile tolerance");
  auto read_ids = [&](const char* name, std::size_t count, std::size_t bound) {
    in.expect(name);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(in.count(name, bound - 1));
    }
    return ids;
  };
  out.assignment_ = read_ids("assignment", p, num_clusters);
  out.class_of_ = read_ids("class-of", num_clusters, num_classes);
  out.clusters_.resize(num_clusters);
  for (std::size_t i = 0; i < p; ++i) {
    out.clusters_[out.assignment_[i]].push_back(i);
  }
  for (std::size_t k = 0; k < num_classes; ++k) {
    in.expect("tile");
    OPTIBAR_IO_REQUIRE(in.count("tile index", k) == k, "expected tile " << k);
    out.tiles_.push_back(TopologyProfile::load(in));
  }
  in.expect("inter");
  auto read_inter = [&](const char* tag, const char* name) {
    in.expect(tag);
    return in.finite_matrix(num_classes, name);
  };
  out.inter_o_ = read_inter("O", "inter O matrix");
  out.inter_l_ = read_inter("L", "inter L matrix");
  if (out.has_g_) {
    out.inter_g_ = read_inter("G", "inter G matrix");
  }
  if (out.has_r_) {
    out.inter_r_ = read_inter("R", "inter R matrix");
  }
  out.rebuild_local_index();
  try {
    out.validate();
  } catch (const Error& e) {
    throw IoError(e.what());
  }
  return out;
}

void TiledProfile::save_file(const std::string& path) const {
  std::ofstream os(path);
  OPTIBAR_REQUIRE(os.is_open(), "cannot open " << path << " for writing");
  save(os);
}

TiledProfile TiledProfile::load_file(const std::string& path) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  return load(is);
}

}  // namespace optibar
