#include "topology/profile.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {

namespace {
constexpr const char* kMagic = "optibar-profile";
}  // namespace

TopologyProfile::TopologyProfile(Matrix<double> overhead, Matrix<double> latency)
    : overhead_(std::move(overhead)), latency_(std::move(latency)) {
  OPTIBAR_REQUIRE(overhead_.square(), "O matrix must be square");
  OPTIBAR_REQUIRE(latency_.square(), "L matrix must be square");
  OPTIBAR_REQUIRE(overhead_.rows() == latency_.rows(),
                  "O and L must have the same rank count ("
                      << overhead_.rows() << " vs " << latency_.rows() << ")");
}

TopologyProfile::TopologyProfile(Matrix<double> overhead, Matrix<double> latency,
                                 Matrix<double> bandwidth)
    : TopologyProfile(std::move(overhead), std::move(latency)) {
  bandwidth_ = std::move(bandwidth);
  OPTIBAR_REQUIRE(bandwidth_.square(), "G matrix must be square");
  OPTIBAR_REQUIRE(bandwidth_.rows() == overhead_.rows(),
                  "G must have the same rank count as O ("
                      << bandwidth_.rows() << " vs " << overhead_.rows()
                      << ")");
}

void TopologyProfile::set_rma_latency(Matrix<double> rma_latency) {
  rma_latency_ = std::move(rma_latency);
  OPTIBAR_REQUIRE(rma_latency_.square(), "R matrix must be square");
  OPTIBAR_REQUIRE(rma_latency_.rows() == overhead_.rows(),
                  "R must have the same rank count as O ("
                      << rma_latency_.rows() << " vs " << overhead_.rows()
                      << ")");
}

bool TopologyProfile::is_symmetric(double relative_tolerance) const {
  const double scale =
      overhead_.empty() ? 0.0 : std::max(overhead_.max_element(), 0.0);
  const double tol = relative_tolerance * (scale > 0.0 ? scale : 1.0);
  for (std::size_t i = 0; i < ranks(); ++i) {
    for (std::size_t j = i + 1; j < ranks(); ++j) {
      if (std::abs(overhead_(i, j) - overhead_(j, i)) > tol ||
          std::abs(latency_(i, j) - latency_(j, i)) > tol) {
        return false;
      }
    }
  }
  return true;
}

namespace {

/// Replace each off-diagonal pair of `m` by its mean, in place; a no-op
/// on an absent (empty) plane. Pairs are visited tile by tile, so the
/// column side of a tile stays in cache; each pair's mean depends on
/// that pair alone, so the visiting order cannot change a bit.
void symmetrize(Matrix<double>& m) {
  constexpr std::size_t kTile = 16;
  const std::size_t n = m.rows();
  for (std::size_t bi = 0; bi < n; bi += kTile) {
    for (std::size_t bj = bi; bj < n; bj += kTile) {
      for (std::size_t i = bi; i < std::min(bi + kTile, n); ++i) {
        for (std::size_t j = std::max(bj, i + 1); j < std::min(bj + kTile, n);
             ++j) {
          double& upper = m.at_unchecked(i, j);
          double& lower = m.at_unchecked(j, i);
          upper = lower = 0.5 * (upper + lower);
        }
      }
    }
  }
}

}  // namespace

TopologyProfile TopologyProfile::symmetrized() const& {
  return TopologyProfile(*this).symmetrized();
}

TopologyProfile TopologyProfile::symmetrized() && {
  symmetrize(overhead_);
  symmetrize(latency_);
  symmetrize(bandwidth_);
  symmetrize(rma_latency_);
  return std::move(*this);
}

double TopologyProfile::distance(std::size_t i, std::size_t j) const {
  if (i == j) {
    return 0.0;
  }
  return 0.5 * (overhead_(i, j) + overhead_(j, i));
}

double TopologyProfile::diameter() const {
  double d = 0.0;
  for (std::size_t i = 0; i < ranks(); ++i) {
    for (std::size_t j = i + 1; j < ranks(); ++j) {
      d = std::max(d, distance(i, j));
    }
  }
  return d;
}

TopologyProfile TopologyProfile::restrict_to(
    const std::vector<std::size_t>& subset) const {
  OPTIBAR_REQUIRE(!subset.empty(), "restrict_to empty rank set");
  TopologyProfile result =
      bandwidth_.empty()
          ? TopologyProfile(overhead_.submatrix(subset),
                            latency_.submatrix(subset))
          : TopologyProfile(overhead_.submatrix(subset),
                            latency_.submatrix(subset),
                            bandwidth_.submatrix(subset));
  if (!rma_latency_.empty()) {
    result.set_rma_latency(rma_latency_.submatrix(subset));
  }
  return result;
}

void TopologyProfile::save(std::ostream& os) const {
  // Lowest version that can carry the data: v1 for a pure O/L profile,
  // v2 when the bandwidth matrix is present, v3 when the one-sided R
  // matrix is present (G stays optional in v3), so files written by
  // older builds and read by older readers stay valid wherever the
  // data allows.
  const int version = !rma_latency_.empty() ? 3 : (!bandwidth_.empty() ? 2 : 1);
  os << kMagic << " v" << version << '\n';
  os << "P " << ranks() << '\n';
  os << std::setprecision(17) << std::scientific;
  auto dump = [&](const char* tag, const Matrix<double>& m) {
    os << tag << '\n';
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        os << m(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
      }
    }
  };
  dump("O", overhead_);
  dump("L", latency_);
  if (!bandwidth_.empty()) {
    dump("G", bandwidth_);
  }
  if (!rma_latency_.empty()) {
    dump("R", rma_latency_);
  }
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing profile");
}

TopologyProfile TopologyProfile::load(std::istream& is) {
  Scanner in(is);
  return load(in);
}

TopologyProfile TopologyProfile::load(Scanner& in) {
  // On-disk data is untrusted: the scanner refuses truncated and
  // malformed tokens and non-finite numbers (NaN/inf would silently
  // poison every downstream cost), the rank count is capped, and each
  // matrix grows with the entries read rather than with the header.
  constexpr std::size_t kMaxRanks = 8192;
  const std::string_view magic = in.token("profile magic");
  OPTIBAR_IO_REQUIRE(magic == kMagic,
                     "not an optibar profile (magic '" << magic << "')");
  const std::string version(in.token("profile version"));
  OPTIBAR_IO_REQUIRE(version != "v4",
                     "profile is a v4 tiled profile; load it with "
                     "TiledProfile::load");
  OPTIBAR_IO_REQUIRE(version == "v1" || version == "v2" || version == "v3",
                     "unsupported profile version " << version);
  in.expect("P");
  const std::size_t p = in.count("profile rank count", kMaxRanks);
  OPTIBAR_IO_REQUIRE(p > 0, "malformed profile header");
  auto read_matrix = [&](const char* tag, const char* name) {
    in.expect(tag);
    return in.finite_matrix(p, name);
  };
  Matrix<double> o = read_matrix("O", "O matrix");
  Matrix<double> l = read_matrix("L", "L matrix");
  if (version == "v1") {
    return TopologyProfile(std::move(o), std::move(l));
  }
  if (version == "v2") {
    Matrix<double> g = read_matrix("G", "G matrix");
    return TopologyProfile(std::move(o), std::move(l), std::move(g));
  }
  // v3: an optional G, then the mandatory R (a v3 without R would have
  // been written as v1/v2 — see save()).
  const std::string_view tag = in.token("matrix tag");
  OPTIBAR_IO_REQUIRE(tag == "G" || tag == "R",
                     "expected matrix tag G or R, got " << tag);
  Matrix<double> g;
  if (tag == "G") {
    g = in.finite_matrix(p, "G matrix");
    in.expect("R");
  }
  Matrix<double> r = in.finite_matrix(p, "R matrix");
  TopologyProfile profile =
      g.empty() ? TopologyProfile(std::move(o), std::move(l))
                : TopologyProfile(std::move(o), std::move(l), std::move(g));
  profile.set_rma_latency(std::move(r));
  return profile;
}

void TopologyProfile::save_file(const std::string& path) const {
  std::ofstream os(path);
  OPTIBAR_REQUIRE(os.is_open(), "cannot open " << path << " for writing");
  save(os);
}

TopologyProfile TopologyProfile::load_file(const std::string& path) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  return load(is);
}

}  // namespace optibar
