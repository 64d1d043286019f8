// Tests for asymmetric-link support — the "trivial extension" of
// Section IV-A, carried through generation, prediction, simulation,
// clustering and tuning.
#include <gtest/gtest.h>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

/// Two ranks with a grossly duplex-imbalanced link: 0 -> 1 is fast,
/// 1 -> 0 is slow.
TopologyProfile imbalanced_pair(double fast, double slow) {
  Matrix<double> o(2, 2, 0.0);
  o(0, 0) = o(1, 1) = 1e-6;
  o(0, 1) = fast;
  o(1, 0) = slow;
  Matrix<double> l(2, 2, 0.0);
  l(0, 1) = fast / 10;
  l(1, 0) = slow / 10;
  return TopologyProfile(std::move(o), std::move(l));
}

TEST(Asymmetric, GenerateProducesDirectedEntries) {
  const MachineSpec m = quad_cluster(2);
  GenerateOptions options;
  options.asymmetry = 0.3;
  options.seed = 11;
  const TopologyProfile p = generate_profile(m, 16, options);
  EXPECT_FALSE(p.is_symmetric());
  // Directed deviation bounded by the amplitude band around the tier.
  const TopologyProfile base = generate_profile(m, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (i == j) {
        continue;
      }
      const double ratio = p.o(i, j) / base.o(i, j);
      EXPECT_GE(ratio, 0.7 - 1e-12);
      EXPECT_LE(ratio, 1.3 + 1e-12);
    }
  }
}

TEST(Asymmetric, GenerateRejectsOutOfRangeAmplitude) {
  GenerateOptions options;
  options.asymmetry = 1.0;
  EXPECT_THROW(generate_profile(quad_cluster(), 8, options), Error);
}

TEST(Asymmetric, PredictorUsesDirectedCosts) {
  const TopologyProfile p = imbalanced_pair(1e-6, 1e-4);
  // Signal along the fast direction.
  Schedule fast(2);
  oracle::StageMatrix mf(2, 2, 0);
  mf(0, 1) = 1;
  fast.append_stage(oracle::stage_from_matrix(mf));
  // Signal along the slow direction.
  Schedule slow(2);
  oracle::StageMatrix ms(2, 2, 0);
  ms(1, 0) = 1;
  slow.append_stage(oracle::stage_from_matrix(ms));
  EXPECT_LT(predicted_time(fast, p), predicted_time(slow, p) / 50.0);
}

TEST(Asymmetric, NetsimUsesDirectedCosts) {
  const TopologyProfile p = imbalanced_pair(1e-6, 1e-4);
  Schedule fast(2);
  oracle::StageMatrix mf(2, 2, 0);
  mf(0, 1) = 1;
  fast.append_stage(oracle::stage_from_matrix(mf));
  Schedule slow(2);
  oracle::StageMatrix ms(2, 2, 0);
  ms(1, 0) = 1;
  slow.append_stage(oracle::stage_from_matrix(ms));
  EXPECT_LT(simulate(fast, p).completion_time(),
            simulate(slow, p).completion_time() / 50.0);
}

TEST(Asymmetric, LinearBarrierCostDependsOnRootDirection) {
  // With 1 -> 0 slow, a linear barrier rooted at 0 pays the slow
  // direction on arrival; the symmetric model could not see this.
  const TopologyProfile p = imbalanced_pair(1e-6, 1e-4);
  const Schedule barrier = linear_barrier(2);
  const Prediction pred = predict(barrier, p);
  // Arrival (1 -> 0) dominates: stage 0 increment >> stage 1 increment.
  ASSERT_EQ(pred.stage_increment.size(), 2u);
  EXPECT_GT(pred.stage_increment[0], 10 * pred.stage_increment[1]);
}

TEST(Asymmetric, TunerAcceptsAsymmetricProfiles) {
  const MachineSpec m = quad_cluster();
  GenerateOptions options;
  options.asymmetry = 0.2;
  options.heterogeneity = 0.1;
  const TopologyProfile p =
      generate_profile(m, round_robin_mapping(m, 40), options);
  ASSERT_FALSE(p.is_symmetric());
  const TuneResult tuned = tune_barrier(p);
  EXPECT_TRUE(tuned.schedule().is_barrier());
  // Decisions were made on the symmetrized metric; pricing the result
  // on the *directed* profile still beats the baseline.
  EXPECT_LT(predicted_time(tuned.schedule(), p),
            predicted_time(tree_barrier(40), p));
}

TEST(Asymmetric, ClusteringStillFindsNodesUnderMildAsymmetry) {
  const MachineSpec m = quad_cluster();
  GenerateOptions options;
  options.asymmetry = 0.15;
  const TopologyProfile p =
      generate_profile(m, block_mapping(m, 32), options);
  const TuneResult tuned = tune_barrier(p);
  EXPECT_EQ(tuned.cluster_tree().children.size(), 4u);
}

TEST(Asymmetric, DeterministicInSeed) {
  const MachineSpec m = hex_cluster(2);
  GenerateOptions options;
  options.asymmetry = 0.25;
  options.seed = 99;
  EXPECT_EQ(generate_profile(m, 20, options), generate_profile(m, 20, options));
}

}  // namespace
}  // namespace optibar
