// Tests for the component barrier algorithms, including exact matches
// against the paper's Figures 2-4 matrices and parameterized validity
// sweeps over rank counts.
#include "barrier/algorithms.hpp"

#include <gtest/gtest.h>
#include "dense_schedule_oracle.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using oracle::stage_matrix;
using oracle::StageMatrix;

StageMatrix stage_of(std::initializer_list<std::initializer_list<int>> rows) {
  StageMatrix m(rows.size(), rows.begin()->size(), 0);
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (int v : row) {
      m(r, c) = static_cast<std::uint8_t>(v);
      ++c;
    }
    ++r;
  }
  return m;
}

// ---- Figure 2: the linear barrier in matrix form (P=4) ----
TEST(PaperFigures, Figure2LinearBarrierMatrices) {
  const Schedule s = linear_barrier(4);
  ASSERT_EQ(s.stage_count(), 2u);
  const StageMatrix s0 = stage_of({{0, 0, 0, 0},
                                   {1, 0, 0, 0},
                                   {1, 0, 0, 0},
                                   {1, 0, 0, 0}});
  EXPECT_EQ(stage_matrix(s, 0), s0);
  EXPECT_EQ(stage_matrix(s, 1), s0.transposed());
}

// ---- Figure 3: the dissemination barrier in matrix form (P=4) ----
TEST(PaperFigures, Figure3DisseminationBarrierMatrices) {
  const Schedule s = dissemination_barrier(4);
  ASSERT_EQ(s.stage_count(), 2u);
  EXPECT_EQ(stage_matrix(s, 0), stage_of({{0, 1, 0, 0},
                                  {0, 0, 1, 0},
                                  {0, 0, 0, 1},
                                  {1, 0, 0, 0}}));
  EXPECT_EQ(stage_matrix(s, 1), stage_of({{0, 0, 1, 0},
                                  {0, 0, 0, 1},
                                  {1, 0, 0, 0},
                                  {0, 1, 0, 0}}));
}

// ---- Figure 4: the tree barrier in matrix form (P=4) ----
TEST(PaperFigures, Figure4TreeBarrierMatrices) {
  const Schedule s = tree_barrier(4);
  ASSERT_EQ(s.stage_count(), 4u);
  const StageMatrix s0 = stage_of({{0, 0, 0, 0},
                                   {1, 0, 0, 0},
                                   {0, 0, 0, 0},
                                   {0, 0, 1, 0}});
  const StageMatrix s1 = stage_of({{0, 0, 0, 0},
                                   {0, 0, 0, 0},
                                   {1, 0, 0, 0},
                                   {0, 0, 0, 0}});
  EXPECT_EQ(stage_matrix(s, 0), s0);
  EXPECT_EQ(stage_matrix(s, 1), s1);
  EXPECT_EQ(stage_matrix(s, 2), s1.transposed());
  EXPECT_EQ(stage_matrix(s, 3), s0.transposed());
}

// ---- Validity of every algorithm across rank counts (Eq. 3) ----
class AlgorithmValidity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlgorithmValidity, LinearIsABarrier) {
  EXPECT_TRUE(linear_barrier(GetParam()).is_barrier());
}

TEST_P(AlgorithmValidity, DisseminationIsABarrier) {
  EXPECT_TRUE(dissemination_barrier(GetParam()).is_barrier());
}

TEST_P(AlgorithmValidity, TreeIsABarrier) {
  EXPECT_TRUE(tree_barrier(GetParam()).is_barrier());
}

TEST_P(AlgorithmValidity, KAryTreesAreBarriers) {
  for (std::size_t k : {2u, 3u, 4u, 8u}) {
    EXPECT_TRUE(kary_tree_barrier(GetParam(), k).is_barrier())
        << "P=" << GetParam() << " k=" << k;
  }
}

TEST_P(AlgorithmValidity, HeapTreeIsABarrier) {
  EXPECT_TRUE(heap_tree_barrier(GetParam()).is_barrier());
}

TEST_P(AlgorithmValidity, PairwiseExchangeIsABarrier) {
  EXPECT_TRUE(pairwise_exchange_barrier(GetParam()).is_barrier());
}

TEST_P(AlgorithmValidity, ArrivalPhasesFunnelToRankZero) {
  const std::size_t p = GetParam();
  for (const Schedule& arrival :
       {linear_arrival(p), tree_arrival(p), kary_tree_arrival(p, 4),
        heap_tree_arrival(p)}) {
    const Knowledge k = arrival.final_knowledge();
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_TRUE(k(i, 0)) << "rank 0 missing arrival of " << i
                            << " at P=" << p;
    }
  }
}

TEST_P(AlgorithmValidity, SelfCompletingArrivalsAreFullBarriers) {
  const std::size_t p = GetParam();
  EXPECT_TRUE(dissemination_arrival(p).is_barrier());
  EXPECT_TRUE(pairwise_exchange_arrival(p).is_barrier());
}

INSTANTIATE_TEST_SUITE_P(RankSweep, AlgorithmValidity,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13,
                                           16, 17, 22, 24, 31, 32, 33, 48, 57,
                                           60, 64, 96, 120));

// ---- Structural properties ----

TEST(Algorithms, LinearHasTwoStagesAlways) {
  for (std::size_t p : {2u, 5u, 64u}) {
    EXPECT_EQ(linear_barrier(p).stage_count(), 2u);
  }
}

TEST(Algorithms, DisseminationHasCeilLog2Stages) {
  EXPECT_EQ(dissemination_barrier(2).stage_count(), 1u);
  EXPECT_EQ(dissemination_barrier(4).stage_count(), 2u);
  EXPECT_EQ(dissemination_barrier(5).stage_count(), 3u);
  EXPECT_EQ(dissemination_barrier(8).stage_count(), 3u);
  EXPECT_EQ(dissemination_barrier(9).stage_count(), 4u);
  EXPECT_EQ(dissemination_barrier(64).stage_count(), 6u);
}

TEST(Algorithms, TreeHasTwiceCeilLog2Stages) {
  EXPECT_EQ(tree_barrier(2).stage_count(), 2u);
  EXPECT_EQ(tree_barrier(8).stage_count(), 6u);
  EXPECT_EQ(tree_barrier(9).stage_count(), 8u);
  EXPECT_EQ(tree_barrier(64).stage_count(), 12u);
}

TEST(Algorithms, DisseminationEveryRankSignalsEveryStage) {
  const Schedule s = dissemination_barrier(7);
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    for (std::size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(s.targets_of(i, st).size(), 1u);
      EXPECT_EQ(s.sources_of(i, st).size(), 1u);
    }
  }
}

TEST(Algorithms, DisseminationOffsetsArePowersOfTwoModP) {
  const std::size_t p = 11;
  const Schedule s = dissemination_barrier(p);
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    const std::size_t offset = std::size_t{1} << st;
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(s.targets_of(i, st),
                (std::vector<std::size_t>{(i + offset) % p}));
    }
  }
}

TEST(Algorithms, TreeSignalCountIsMinimal) {
  // A gather into one root needs exactly P-1 signals; the full barrier
  // twice that.
  for (std::size_t p : {2u, 7u, 16u, 33u}) {
    EXPECT_EQ(tree_arrival(p).total_signals(), p - 1);
    EXPECT_EQ(tree_barrier(p).total_signals(), 2 * (p - 1));
    EXPECT_EQ(kary_tree_arrival(p, 4).total_signals(), p - 1);
  }
}

TEST(Algorithms, SingleRankSchedulesAreEmpty) {
  EXPECT_EQ(linear_barrier(1).stage_count(), 0u);
  EXPECT_EQ(dissemination_barrier(1).stage_count(), 0u);
  EXPECT_EQ(tree_barrier(1).stage_count(), 0u);
  EXPECT_EQ(pairwise_exchange_barrier(1).stage_count(), 0u);
}

TEST(Algorithms, ZeroRanksThrow) {
  EXPECT_THROW(linear_barrier(0), Error);
  EXPECT_THROW(dissemination_barrier(0), Error);
  EXPECT_THROW(tree_barrier(0), Error);
  EXPECT_THROW(kary_tree_barrier(0, 2), Error);
  EXPECT_THROW(pairwise_exchange_barrier(0), Error);
}

TEST(Algorithms, KAryRejectsArityBelowTwo) {
  EXPECT_THROW(kary_tree_barrier(4, 1), Error);
  EXPECT_THROW(kary_tree_barrier(4, 0), Error);
}

TEST(Algorithms, PairwiseExchangeIsSymmetricOnPowersOfTwo) {
  const Schedule s = pairwise_exchange_barrier(8);
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    EXPECT_EQ(stage_matrix(s, st), stage_matrix(s, st).transposed())
        << "stage " << st;
  }
}

TEST(Algorithms, PairwiseExchangeFoldsNonPowerOfTwo) {
  // P=6: fold stage + 2 exchange stages + unfold stage.
  const Schedule s = pairwise_exchange_barrier(6);
  EXPECT_EQ(s.stage_count(), 4u);
  EXPECT_TRUE(s.has_signal(0, 4, 0));  // rank 4 folds into rank 0
  EXPECT_TRUE(s.has_signal(0, 5, 1));
  EXPECT_TRUE(s.has_signal(3, 0, 4));  // and is released at the end
}

TEST(Algorithms, RegistryContents) {
  const auto paper = paper_algorithms();
  ASSERT_EQ(paper.size(), 3u);
  EXPECT_EQ(paper[0].name, "linear");
  EXPECT_EQ(paper[1].name, "dissemination");
  EXPECT_EQ(paper[2].name, "tree");
  EXPECT_FALSE(paper[0].self_completing);
  EXPECT_TRUE(paper[1].self_completing);
  EXPECT_FALSE(paper[2].self_completing);

  const auto extended = extended_algorithms();
  EXPECT_EQ(extended.size(), 7u);
  EXPECT_TRUE(extended.back().self_completing);  // radix-4 dissemination
}

TEST(Algorithms, RegistryGeneratorsAreValid) {
  for (const ComponentAlgorithm& algo : extended_algorithms()) {
    for (std::size_t p : {1u, 2u, 5u, 8u, 13u}) {
      const Schedule arrival = algo.arrival(p);
      if (algo.self_completing) {
        EXPECT_TRUE(arrival.is_barrier()) << algo.name << " P=" << p;
      } else {
        const Knowledge k = arrival.final_knowledge();
        for (std::size_t i = 0; i < p; ++i) {
          EXPECT_TRUE(k(i, 0)) << algo.name << " P=" << p;
        }
      }
    }
  }
}

class RadixDissemination
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RadixDissemination, IsAValidBarrier) {
  const auto [p, k] = GetParam();
  EXPECT_TRUE(radix_dissemination_barrier(p, k).is_barrier())
      << "P=" << p << " k=" << k;
}

TEST_P(RadixDissemination, StageCountIsCeilLogRadix) {
  const auto [p, k] = GetParam();
  const Schedule s = radix_dissemination_barrier(p, k);
  std::size_t expected = 0;
  std::size_t power = 1;
  while (power < p) {
    power *= k;
    ++expected;
  }
  EXPECT_EQ(s.stage_count(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixDissemination,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 17,
                                         27, 32, 60, 64, 81, 120),
                       ::testing::Values(2, 3, 4, 8)));

TEST(Algorithms, RadixTwoDisseminationMatchesClassic) {
  for (std::size_t p : {2u, 5u, 8u, 13u, 32u}) {
    EXPECT_EQ(radix_dissemination_barrier(p, 2), dissemination_barrier(p))
        << "P=" << p;
  }
}

TEST(Algorithms, RadixDisseminationFanOutIsRadixMinusOne) {
  // P = 16, k = 4: 2 stages, each rank signalling 3 peers.
  const Schedule s = radix_dissemination_barrier(16, 4);
  ASSERT_EQ(s.stage_count(), 2u);
  for (std::size_t st = 0; st < 2; ++st) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(s.targets_of(i, st).size(), 3u);
    }
  }
}

TEST(Algorithms, RadixDisseminationDropsWholeRingOffsets) {
  // P = 6, k = 3: stage 1 offsets are 3 and 6; 6 mod 6 == 0 is dropped.
  const Schedule s = radix_dissemination_barrier(6, 3);
  ASSERT_EQ(s.stage_count(), 2u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s.targets_of(i, 1), (std::vector<std::size_t>{(i + 3) % 6}));
  }
  EXPECT_TRUE(s.is_barrier());
}

TEST(Algorithms, RadixDisseminationRejectsBadRadix) {
  EXPECT_THROW(radix_dissemination_barrier(4, 1), Error);
  EXPECT_THROW(radix_dissemination_barrier(4, 0), Error);
  EXPECT_THROW(radix_dissemination_barrier(0, 2), Error);
}

TEST(Algorithms, RingBarrierIsValidAcrossSizes) {
  for (std::size_t p : {1u, 2u, 3u, 5u, 9u, 16u}) {
    EXPECT_TRUE(ring_barrier(p).is_barrier()) << "P=" << p;
  }
}

TEST(Algorithms, RingHasTwoPMinusTwoStages) {
  EXPECT_EQ(ring_barrier(2).stage_count(), 2u);
  EXPECT_EQ(ring_barrier(5).stage_count(), 8u);
  EXPECT_EQ(ring_barrier(1).stage_count(), 0u);
}

TEST(Algorithms, RingArrivalFunnelsDownToRankZero) {
  const Schedule arrival = ring_arrival(5);
  ASSERT_EQ(arrival.stage_count(), 4u);
  // Token descends: stage 0 is 4 -> 3, stage 3 is 1 -> 0.
  EXPECT_TRUE(arrival.has_signal(0, 4, 3));
  EXPECT_TRUE(arrival.has_signal(3, 1, 0));
  const Knowledge k = arrival.final_knowledge();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(k(i, 0));
  }
}

TEST(Algorithms, RingUsesExactlyOneSignalPerStage) {
  const Schedule s = ring_barrier(7);
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    EXPECT_EQ(s.stage(st).size(), 1u);
  }
  EXPECT_EQ(s.total_signals(), 12u);  // 2 * (P - 1)
}

TEST(Algorithms, KindNames) {
  EXPECT_STREQ(to_string(AlgorithmKind::kLinear), "linear");
  EXPECT_STREQ(to_string(AlgorithmKind::kPairwiseExchange),
               "pairwise-exchange");
}

}  // namespace
}  // namespace optibar
