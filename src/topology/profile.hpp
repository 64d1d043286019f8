// The topological profile: the paper's O and L matrices.
//
// For a P-process setup the model of Section IV is two P x P matrices:
//   O(i,j), i != j : startup cost of sending one message from i to j
//   O(i,i)         : cost of initiating a transmission with zero messages
//   L(i,j)         : marginal latency of adding one message from i to j
//                    to a non-empty batch
// The collective layer extends the model with an optional third matrix
//   G(i,j)         : marginal latency per payload byte from i to j
// so a message carrying b bytes costs L(i,j) + b * G(i,j) at the
// margin. A profile without G (the paper's pure signalling model, and
// every v1 profile file) prices payload at zero: g() returns 0 and all
// collective predictions degrade gracefully to the Eq. 1/2 terms.
// The one-sided transport backend adds a fourth optional matrix
//   R(i,j)         : remote-write delivery latency of a put from i to j
// (the NIC-flag path of Yu et al., PAPERS.md): a one-sided signal
// becomes visible at the receiver R(i,j) after injection and charges no
// receiver CPU overhead. A profile without R falls back to L — r()
// returns l(i,j) — so every pre-RMA profile prices one-sided edges
// conservatively instead of failing.
// Profiles are stored on disk to decouple the (expensive, machine-
// occupying) profiling step from the (cheap, offline) tuning step —
// Figure 1's central arrow. The text format is versioned (v1: O and L;
// v2 adds G; v3 adds R, with G still optional) and round-trippable to
// full double precision.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace optibar {

class Scanner;

class TopologyProfile {
 public:
  TopologyProfile() = default;

  /// Takes ownership of square, equally-sized O and L matrices.
  TopologyProfile(Matrix<double> overhead, Matrix<double> latency);

  /// As above with a per-byte bandwidth matrix G (same shape).
  TopologyProfile(Matrix<double> overhead, Matrix<double> latency,
                  Matrix<double> bandwidth);

  std::size_t ranks() const { return overhead_.rows(); }

  const Matrix<double>& overhead() const { return overhead_; }
  const Matrix<double>& latency() const { return latency_; }

  /// Per-byte matrix; empty when the profile carries no bandwidth data.
  const Matrix<double>& bandwidth() const { return bandwidth_; }
  bool has_bandwidth() const { return !bandwidth_.empty(); }

  /// One-sided delivery matrix; empty when the profile has no R data.
  const Matrix<double>& rma_latency() const { return rma_latency_; }
  bool has_rma_latency() const { return !rma_latency_.empty(); }

  /// Attach a one-sided delivery matrix (same shape as O/L).
  void set_rma_latency(Matrix<double> rma_latency);

  double o(std::size_t i, std::size_t j) const { return overhead_(i, j); }
  double l(std::size_t i, std::size_t j) const { return latency_(i, j); }

  /// Seconds per payload byte i -> j; 0 for a profile without G.
  double g(std::size_t i, std::size_t j) const {
    return bandwidth_.empty() ? 0.0 : bandwidth_(i, j);
  }

  /// One-sided delivery latency i -> j; a profile without R prices a
  /// put like a two-sided message (the conservative L fallback).
  double r(std::size_t i, std::size_t j) const {
    return rma_latency_.empty() ? latency_(i, j) : rma_latency_(i, j);
  }

  /// Symmetric-link check (Section IV-A assumes O_ij == O_ji); tolerance
  /// is relative to the matrix magnitude.
  bool is_symmetric(double relative_tolerance = 1e-9) const;

  /// Replace O and L (and G, R when present) by their symmetric parts
  /// (arithmetic mean of the two directions). Used before clustering,
  /// which needs a metric. The rvalue overload averages in place, so
  /// `restrict_to(ranks).symmetrized()` builds its matrices only once.
  TopologyProfile symmetrized() const&;
  TopologyProfile symmetrized() &&;

  /// Metric used for rank clustering (Section VII-A): the symmetrized
  /// one-message cost O(i,j); zero iff i == j for a valid profile.
  double distance(std::size_t i, std::size_t j) const;

  /// Largest pairwise distance — the "diameter" whose fraction
  /// parameterises SSS clustering.
  double diameter() const;

  /// Restrict the profile to a subset of ranks (submatrix extraction),
  /// preserving order of `ranks`.
  TopologyProfile restrict_to(const std::vector<std::size_t>& ranks) const;

  void save(std::ostream& os) const;
  static TopologyProfile load(std::istream& is);

  /// The same body for a profile nested in a larger file (a v4 tile):
  /// reads from the enclosing file's scanner, magic line first.
  static TopologyProfile load(Scanner& in);

  void save_file(const std::string& path) const;
  static TopologyProfile load_file(const std::string& path);

  bool operator==(const TopologyProfile& other) const = default;

 private:
  Matrix<double> overhead_;
  Matrix<double> latency_;
  Matrix<double> bandwidth_;    ///< empty when the profile has no G data
  Matrix<double> rma_latency_;  ///< empty when the profile has no R data
};

}  // namespace optibar
