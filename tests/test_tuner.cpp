// Tests for the AdaptiveTuner facade: end-to-end pipeline behaviour,
// asymmetry handling, and the generated artefacts.
#include "core/tuner.hpp"

#include <gtest/gtest.h>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

TEST(Tuner, ProducesValidBarrierWithPrediction) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 40), GenerateOptions{});
  const TuneResult result = tune_barrier(profile);
  EXPECT_TRUE(result.schedule().is_barrier());
  EXPECT_GT(result.predicted_cost(), 0.0);
  EXPECT_EQ(result.schedule().ranks(), 40u);
}

TEST(Tuner, HandlesAsymmetricInputBySymmetrizing) {
  // Estimated profiles carry sampling asymmetry; the tuner must accept
  // them (the clustering requires the symmetrized form).
  const MachineSpec m = quad_cluster();
  TopologyProfile profile = generate_profile(m, 16);
  Matrix<double> o = profile.overhead();
  Rng rng(3);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (i != j) {
        o(i, j) *= 1.0 + 0.01 * rng.next_double();
      }
    }
  }
  const TopologyProfile asym(std::move(o), profile.latency());
  ASSERT_FALSE(asym.is_symmetric());
  const TuneResult result = tune_barrier(asym);
  EXPECT_TRUE(result.profile().is_symmetric());
  EXPECT_TRUE(result.schedule().is_barrier());
}

TEST(Tuner, PredictedCostUsesDepartureEquation) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 24);
  const TuneResult result = tune_barrier(profile);
  // The stored prediction applies Eq. 2 to departure stages, so it is
  // no larger than the all-Eq.1 prediction.
  const double eq1_only =
      predicted_time(result.schedule(), result.profile());
  EXPECT_LE(result.predicted_cost(), eq1_only + 1e-18);
}

TEST(Tuner, BeatsTreeBarrierPredictionAtScale) {
  for (const MachineSpec& m : {quad_cluster(), hex_cluster()}) {
    const std::size_t p = m.total_cores();
    const TopologyProfile profile =
        generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
    const TuneResult result = tune_barrier(profile);
    EXPECT_LT(result.predicted_cost(),
              predicted_time(tree_barrier(p), profile))
        << m.name();
  }
}

TEST(Tuner, GeneratedCodeUsesConfiguredName) {
  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 12);
  TuneOptions opts;
  opts.function_name = "my_cluster_barrier";
  const TuneResult result = tune_barrier(profile, opts);
  const GeneratedCode code = result.generated_code();
  EXPECT_EQ(code.function_name, "my_cluster_barrier");
  EXPECT_NE(code.source.find("void my_cluster_barrier("), std::string::npos);
}

TEST(Tuner, ClusterTreeIsExposedForInspection) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 32);
  const TuneResult result = tune_barrier(profile);
  EXPECT_EQ(result.cluster_tree().ranks.size(), 32u);
  EXPECT_EQ(result.cluster_tree().children.size(), 4u);
}

TEST(Tuner, ExtendedAlgorithmsStayCompetitive) {
  // A superset of candidates improves the greedy score at each level;
  // greed is not globally optimal, so we assert validity plus a
  // competitive bound rather than strict dominance.
  const MachineSpec m = hex_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 72), GenerateOptions{});
  const TuneResult paper_set = tune_barrier(profile);
  TuneOptions extended;
  extended.composition.algorithms = extended_algorithms();
  const TuneResult extended_set = tune_barrier(profile, extended);
  EXPECT_TRUE(extended_set.schedule().is_barrier());
  EXPECT_LE(extended_set.predicted_cost(), 1.5 * paper_set.predicted_cost());
}

TEST(Tuner, SingleRankProfile) {
  const MachineSpec m = quad_cluster(1);
  const TopologyProfile profile = generate_profile(m, 1);
  const TuneResult result = tune_barrier(profile);
  EXPECT_TRUE(result.schedule().is_barrier());
  EXPECT_DOUBLE_EQ(result.predicted_cost(), 0.0);
}

TEST(Tuner, DeterministicForSameProfile) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 48), GenerateOptions{0.1, 8});
  const TuneResult a = tune_barrier(profile);
  const TuneResult b = tune_barrier(profile);
  EXPECT_EQ(a.schedule(), b.schedule());
  EXPECT_DOUBLE_EQ(a.predicted_cost(), b.predicted_cost());
}

TEST(Tuner, ParallelTuningIsBitIdenticalToSerial) {
  // The engine's contract: any thread width produces the identical
  // tuned schedule (parallel stages reduce in serial candidate order).
  const MachineSpec m = hex_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, 72), GenerateOptions{0.1, 8});
  const TuneResult serial = tune_barrier(profile);
  for (std::size_t threads : {2u, 4u, 8u}) {
    EngineOptions options;
    options.threads = threads;
    const TuneResult parallel = tune_barrier(profile, options);
    EXPECT_EQ(parallel.schedule(), serial.schedule())
        << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.predicted_cost(), serial.predicted_cost());
  }
}

TEST(Tuner, ValidatesEngineOptions) {
  const MachineSpec m = quad_cluster(1);
  const TopologyProfile profile = generate_profile(m, 4);
  EngineOptions bad;
  bad.clustering.sss.sparseness = -1.0;
  EXPECT_THROW(tune_barrier(profile, bad), Error);
}

}  // namespace
}  // namespace optibar
