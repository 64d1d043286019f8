// Tests for TopologyProfile: invariants, symmetry handling, restriction,
// and the on-disk format (Figure 1 decouples profiling from tuning via
// profiles stored on disk).
#include "topology/profile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

TopologyProfile small_profile() {
  Matrix<double> o{{1e-6, 2e-6, 3e-6},
                   {2e-6, 1e-6, 4e-6},
                   {3e-6, 4e-6, 1e-6}};
  Matrix<double> l{{0.0, 2e-7, 3e-7},
                   {2e-7, 0.0, 4e-7},
                   {3e-7, 4e-7, 0.0}};
  return TopologyProfile(std::move(o), std::move(l));
}

TEST(Profile, ConstructionValidatesShape) {
  EXPECT_THROW(TopologyProfile(Matrix<double>(2, 3), Matrix<double>(2, 2)),
               Error);
  EXPECT_THROW(TopologyProfile(Matrix<double>(2, 2), Matrix<double>(3, 3)),
               Error);
}

TEST(Profile, AccessorsReadMatrices) {
  const TopologyProfile p = small_profile();
  EXPECT_EQ(p.ranks(), 3u);
  EXPECT_DOUBLE_EQ(p.o(0, 1), 2e-6);
  EXPECT_DOUBLE_EQ(p.l(1, 2), 4e-7);
  EXPECT_DOUBLE_EQ(p.o(2, 2), 1e-6);
}

TEST(Profile, SymmetryDetection) {
  EXPECT_TRUE(small_profile().is_symmetric());
  Matrix<double> o(2, 2, 1e-6);
  o(0, 1) = 5e-6;
  o(1, 0) = 1e-6;
  TopologyProfile asym(std::move(o), Matrix<double>(2, 2, 0.0));
  EXPECT_FALSE(asym.is_symmetric());
  // Symmetrizing averages the two directions.
  const TopologyProfile sym = asym.symmetrized();
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_DOUBLE_EQ(sym.o(0, 1), 3e-6);
  EXPECT_DOUBLE_EQ(sym.o(1, 0), 3e-6);
}

TEST(Profile, DistanceIsSymmetrizedOverheadWithZeroDiagonal) {
  const TopologyProfile p = small_profile();
  EXPECT_DOUBLE_EQ(p.distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.distance(0, 2), 3e-6);
  EXPECT_DOUBLE_EQ(p.distance(2, 0), 3e-6);
}

TEST(Profile, DiameterIsMaxPairwiseDistance) {
  EXPECT_DOUBLE_EQ(small_profile().diameter(), 4e-6);
}

TEST(Profile, RestrictToExtractsSubmatrices) {
  const TopologyProfile p = small_profile();
  const TopologyProfile sub = p.restrict_to({0, 2});
  EXPECT_EQ(sub.ranks(), 2u);
  EXPECT_DOUBLE_EQ(sub.o(0, 1), 3e-6);
  EXPECT_DOUBLE_EQ(sub.l(1, 0), 3e-7);
  EXPECT_THROW(p.restrict_to({}), Error);
}

TEST(Profile, StreamRoundTripIsExact) {
  const TopologyProfile p = small_profile();
  std::stringstream ss;
  p.save(ss);
  const TopologyProfile q = TopologyProfile::load(ss);
  EXPECT_EQ(p, q);
}

TEST(Profile, RoundTripPreservesFullDoublePrecision) {
  Matrix<double> o(1, 1, 1.0 / 3.0);
  Matrix<double> l(1, 1, 2.0e-301);
  const TopologyProfile p(std::move(o), std::move(l));
  std::stringstream ss;
  p.save(ss);
  const TopologyProfile q = TopologyProfile::load(ss);
  EXPECT_EQ(p, q);
}

TEST(Profile, RmaLatencyRoundTripsAsV3) {
  TopologyProfile p = small_profile();
  Matrix<double> r{{0.0, 5e-7, 6e-7},
                   {5e-7, 0.0, 7e-7},
                   {6e-7, 7e-7, 0.0}};
  p.set_rma_latency(std::move(r));
  std::stringstream ss;
  p.save(ss);
  EXPECT_NE(ss.str().find("optibar-profile v3\n"), std::string::npos);
  const TopologyProfile q = TopologyProfile::load(ss);
  EXPECT_EQ(p, q);
  ASSERT_TRUE(q.has_rma_latency());
  EXPECT_DOUBLE_EQ(q.r(0, 1), 5e-7);
}

TEST(Profile, RmaFreeProfileStaysV1) {
  // The empty-RMA bit-identity contract: no R data means the v1 bytes
  // a pre-RMA build would have written.
  std::stringstream ss;
  small_profile().save(ss);
  EXPECT_NE(ss.str().find("optibar-profile v1\n"), std::string::npos);
  EXPECT_EQ(ss.str().find("R"), std::string::npos);
}

TEST(Profile, PreRmaFilesFallBackToLatencyForR) {
  // v1 (and v2) files carry no R matrix; r(i, j) then prices one-sided
  // delivery at the conservative two-sided L.
  std::stringstream ss("optibar-profile v1\nP 2\nO\n1e-6 2e-6\n2e-6 1e-6\n"
                       "L\n0 3e-7\n3e-7 0\n");
  const TopologyProfile p = TopologyProfile::load(ss);
  EXPECT_FALSE(p.has_rma_latency());
  EXPECT_DOUBLE_EQ(p.r(0, 1), p.l(0, 1));
  EXPECT_DOUBLE_EQ(p.r(0, 1), 3e-7);
}

TEST(Profile, V3RequiresTheRMatrix) {
  // A v3 header without R is a truncated or hand-damaged file (save()
  // would have emitted v1/v2).
  std::stringstream ss("optibar-profile v3\nP 1\nO\n0\nL\n0\n");
  EXPECT_THROW(TopologyProfile::load(ss), Error);
}

TEST(Profile, RestrictAndSymmetrizePreserveR) {
  TopologyProfile p = small_profile();
  Matrix<double> r{{0.0, 5e-7, 6e-7},
                   {1e-7, 0.0, 7e-7},
                   {6e-7, 7e-7, 0.0}};
  p.set_rma_latency(std::move(r));
  const TopologyProfile sub = p.restrict_to({0, 2});
  ASSERT_TRUE(sub.has_rma_latency());
  EXPECT_DOUBLE_EQ(sub.r(0, 1), 6e-7);
  const TopologyProfile sym = p.symmetrized();
  ASSERT_TRUE(sym.has_rma_latency());
  EXPECT_DOUBLE_EQ(sym.r(0, 1), 3e-7);  // mean of 5e-7 and 1e-7
  EXPECT_DOUBLE_EQ(sym.r(1, 0), 3e-7);
}

TEST(Profile, RestrictRoundTripPinsAllFourMatrices) {
  // Regression for the G/R-preserving contract: a restrict followed by a
  // restrict back to the full rank order must reproduce every matrix the
  // profile carries, bit for bit — O, L, G and R alike.
  const TopologyProfile p = generate_profile(quad_cluster(), 16);
  ASSERT_TRUE(p.has_bandwidth());
  ASSERT_TRUE(p.has_rma_latency());
  std::vector<std::size_t> shuffled{3, 0, 7, 12, 5, 15, 1, 9,
                                    14, 2, 11, 6, 13, 4, 10, 8};
  std::vector<std::size_t> inverse(shuffled.size());
  for (std::size_t pos = 0; pos < shuffled.size(); ++pos) {
    inverse[shuffled[pos]] = pos;
  }
  const TopologyProfile round =
      p.restrict_to(shuffled).restrict_to(inverse);
  ASSERT_TRUE(round.has_bandwidth());
  ASSERT_TRUE(round.has_rma_latency());
  EXPECT_EQ(p, round);
  const TopologyProfile sym = p.symmetrized();
  ASSERT_TRUE(sym.has_bandwidth());
  ASSERT_TRUE(sym.has_rma_latency());
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_DOUBLE_EQ(sym.g(i, j), 0.5 * (p.g(i, j) + p.g(j, i)));
      EXPECT_DOUBLE_EQ(sym.r(i, j), 0.5 * (p.r(i, j) + p.r(j, i)));
    }
  }
}

TEST(Profile, RvalueSymmetrizeMatchesConstBitForBit) {
  // The in-place (rvalue) symmetrize must equal the copying one bit for
  // bit, on all four planes, at sizes on and off its tile boundaries;
  // both must be the plain pairwise mean with the diagonal untouched.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(86);
  for (const std::size_t p : {1UL, 2UL, 15UL, 16UL, 17UL, 37UL, 64UL}) {
    Matrix<double> o(p, p);
    Matrix<double> l(p, p);
    Matrix<double> g(p, p);
    Matrix<double> r(p, p);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        o(i, j) = rng.uniform(-1e-5, 1e-4);
        l(i, j) = rng.uniform(0.0, 1e-5);
        g(i, j) = rng.uniform(0.0, 1e-9);
        r(i, j) = rng.uniform(0.0, 2e-5);
      }
    }
    TopologyProfile profile(std::move(o), std::move(l), std::move(g));
    profile.set_rma_latency(std::move(r));
    const TopologyProfile by_copy = profile.symmetrized();
    const TopologyProfile in_place = TopologyProfile(profile).symmetrized();
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        const auto mean = [&](double a, double b) {
          return bits(i == j ? a : 0.5 * (a + b));
        };
        EXPECT_EQ(bits(in_place.o(i, j)), bits(by_copy.o(i, j)));
        EXPECT_EQ(bits(in_place.l(i, j)), bits(by_copy.l(i, j)));
        EXPECT_EQ(bits(in_place.g(i, j)), bits(by_copy.g(i, j)));
        EXPECT_EQ(bits(in_place.r(i, j)), bits(by_copy.r(i, j)));
        EXPECT_EQ(bits(in_place.o(i, j)),
                  mean(profile.o(i, j), profile.o(j, i)));
        EXPECT_EQ(bits(in_place.l(i, j)),
                  mean(profile.l(i, j), profile.l(j, i)));
        EXPECT_EQ(bits(in_place.g(i, j)),
                  mean(profile.g(i, j), profile.g(j, i)));
        EXPECT_EQ(bits(in_place.r(i, j)),
                  mean(profile.r(i, j), profile.r(j, i)));
      }
    }
  }
}

TEST(Profile, LoadRejectsWrongMagic) {
  std::stringstream ss("not-a-profile v1\nP 1\n");
  EXPECT_THROW(TopologyProfile::load(ss), Error);
}

TEST(Profile, LoadRejectsWrongVersion) {
  std::stringstream ss("optibar-profile v9\nP 1\nO\n0\nL\n0\n");
  EXPECT_THROW(TopologyProfile::load(ss), Error);
}

TEST(Profile, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "optibar_test_profile.txt";
  const TopologyProfile p =
      generate_profile(quad_cluster(), 16, GenerateOptions{});
  p.save_file(path.string());
  const TopologyProfile q = TopologyProfile::load_file(path.string());
  EXPECT_EQ(p, q);
  std::remove(path.string().c_str());
}

TEST(Profile, LoadMissingFileThrows) {
  EXPECT_THROW(TopologyProfile::load_file("/nonexistent/dir/profile.txt"),
               Error);
}

TEST(Profile, GeneratedClusterProfileRoundTripsThroughDisk) {
  // End-to-end: a full 64-rank machine profile survives serialisation
  // bit-for-bit, which is what makes Figure 1's decoupling valid.
  const TopologyProfile p =
      generate_profile(quad_cluster(), 64, GenerateOptions{0.2, 11});
  std::stringstream ss;
  p.save(ss);
  EXPECT_EQ(TopologyProfile::load(ss), p);
}

}  // namespace
}  // namespace optibar
