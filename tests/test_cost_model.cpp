// Tests for the Eq. 1/2 step costs and the layered critical-path
// prediction of Section VI.
#include "barrier/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "barrier/algorithms.hpp"
#include "dense_schedule_oracle.hpp"
#include "netsim/engine.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

/// Uniform profile: O = o everywhere off-diagonal, O_ii = self,
/// L = l everywhere off-diagonal.
TopologyProfile uniform_profile(std::size_t p, double o, double l,
                                double self) {
  Matrix<double> om(p, p, o);
  Matrix<double> lm(p, p, l);
  for (std::size_t i = 0; i < p; ++i) {
    om(i, i) = self;
    lm(i, i) = 0.0;
  }
  return TopologyProfile(std::move(om), std::move(lm));
}

TEST(StepCost, EmptyTargetSetIsFree) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 1e-6, 1e-6);
  EXPECT_DOUBLE_EQ(step_cost(p, 0, {}, false), 0.0);
  EXPECT_DOUBLE_EQ(step_cost(p, 0, {}, true), 0.0);
}

TEST(StepCost, Equation1IsMaxOverheadPlusLatencySum) {
  // Heterogeneous O: targets with different startup costs.
  Matrix<double> o(3, 3, 0.0);
  o(0, 1) = 2e-5;
  o(0, 2) = 5e-5;
  Matrix<double> l(3, 3, 0.0);
  l(0, 1) = 1e-6;
  l(0, 2) = 3e-6;
  const TopologyProfile p(std::move(o), std::move(l));
  // t(0, {1,2}) = max(2e-5, 5e-5) + (1e-6 + 3e-6)
  EXPECT_DOUBLE_EQ(step_cost(p, 0, {1, 2}, false), 5e-5 + 4e-6);
}

TEST(StepCost, Equation2UsesSelfOverhead) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 1e-6, 2e-6);
  // t(0, {1,2,3}) = O_00 + 3 * L = 2e-6 + 3e-6
  EXPECT_DOUBLE_EQ(step_cost(p, 0, {1, 2, 3}, true), 2e-6 + 3e-6);
}

TEST(StepCost, Equation2IsCheaperWhenReceiversWait) {
  // The whole point of Eq. 2: the per-destination startup is replaced by
  // the (smaller) software-only overhead.
  const TopologyProfile p = uniform_profile(4, 5e-5, 1e-6, 2e-6);
  EXPECT_LT(step_cost(p, 0, {1, 2}, true), step_cost(p, 0, {1, 2}, false));
}

TEST(Predict, SingleSignalCost) {
  const TopologyProfile p = uniform_profile(2, 1e-5, 1e-6, 1e-6);
  Schedule s(2);
  oracle::StageMatrix m(2, 2, 0);
  m(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  // Sender batch O + L, plus receiver processing L: 1.2e-5.
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 1.2e-5);
}

TEST(Predict, StagesAccumulateAlongDependencies) {
  const TopologyProfile p = uniform_profile(3, 1e-5, 1e-6, 1e-6);
  // 0 -> 1, then 1 -> 2: two sequential hops.
  Schedule s(3);
  oracle::StageMatrix s0(3, 3, 0);
  s0(0, 1) = 1;
  oracle::StageMatrix s1(3, 3, 0);
  s1(1, 2) = 1;
  s.append_stage(oracle::stage_from_matrix(s0));
  s.append_stage(oracle::stage_from_matrix(s1));
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 2 * 1.2e-5);
}

TEST(Predict, ParallelSignalsDoNotAccumulate) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 1e-6, 1e-6);
  // 0->1 and 2->3 concurrently cost the same as one signal.
  Schedule s(4);
  oracle::StageMatrix m(4, 4, 0);
  m(0, 1) = 1;
  m(2, 3) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 1.2e-5);
}

TEST(Predict, FanOutPaysLatencyPerMessage) {
  const TopologyProfile p = uniform_profile(5, 1e-5, 1e-6, 1e-6);
  Schedule s(5);
  oracle::StageMatrix m(5, 5, 0);
  for (std::size_t j = 1; j < 5; ++j) {
    m(0, j) = 1;
  }
  s.append_stage(oracle::stage_from_matrix(m));
  // Eq. 1 sender batch (max O + 4L) plus one receive processing L.
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 1e-5 + 4e-6 + 1e-6);
}

TEST(Predict, AwaitedStagesUseEquation2) {
  const TopologyProfile p = uniform_profile(3, 5e-5, 1e-6, 2e-6);
  Schedule s(3);
  oracle::StageMatrix m(3, 3, 0);
  m(0, 1) = 1;
  m(0, 2) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  PredictOptions opts;
  opts.awaited_stages = {true};
  // Eq. 2 send batch (O_ii + 2L) plus one receive processing L.
  EXPECT_DOUBLE_EQ(predicted_time(s, p, opts), 2e-6 + 2e-6 + 1e-6);
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 5e-5 + 2e-6 + 1e-6);
}

TEST(Predict, EntrySkewDelaysCriticalPathOrigin) {
  const TopologyProfile p = uniform_profile(2, 1e-5, 1e-6, 1e-6);
  Schedule s(2);
  oracle::StageMatrix a(2, 2, 0);
  a(1, 0) = 1;
  oracle::StageMatrix b(2, 2, 0);
  b(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(a));
  s.append_stage(oracle::stage_from_matrix(b));
  // Rank 1 arrives late; the barrier cost from last arrival stays 2 hops.
  PredictOptions opts;
  opts.entry_times = {0.0, 1.0};
  const Prediction pred = predict(s, p, opts);
  // NEAR, not EQ: subtracting the 1.0 s skew cancels low-order bits.
  EXPECT_NEAR(pred.critical_path, 2 * 1.2e-5, 1e-12);
  EXPECT_NEAR(pred.rank_completion[1], 1.0 + 2 * 1.2e-5, 1e-12);
}

TEST(Predict, RankCompletionAndStageIncrementsAreConsistent) {
  const TopologyProfile p =
      generate_profile(quad_cluster(), 16, GenerateOptions{});
  const Schedule s = tree_barrier(16);
  const Prediction pred = predict(s, p);
  ASSERT_EQ(pred.stage_increment.size(), s.stage_count());
  double total = 0.0;
  for (double inc : pred.stage_increment) {
    EXPECT_GE(inc, 0.0);
    total += inc;
  }
  EXPECT_NEAR(total, pred.critical_path, 1e-12);
  for (double c : pred.rank_completion) {
    EXPECT_LE(c, pred.critical_path + 1e-15);
  }
}

TEST(Predict, ReceiverProcessingCanBeDisabled) {
  // Sender-only reading of the model: the fan-in costs nothing at the
  // receiver, so the linear gather collapses to a single batch cost.
  const TopologyProfile p = uniform_profile(5, 1e-5, 1e-6, 1e-6);
  Schedule s(5);
  oracle::StageMatrix m(5, 5, 0);
  for (std::size_t i = 1; i < 5; ++i) {
    m(i, 0) = 1;
  }
  s.append_stage(oracle::stage_from_matrix(m));
  PredictOptions sender_only;
  sender_only.receiver_processing = false;
  EXPECT_DOUBLE_EQ(predicted_time(s, p, sender_only), 1.1e-5);
  // With receiver processing the root serializes 4 completions.
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 1.1e-5 + 4e-6);
}

TEST(Predict, EgressContentionSerializesCoLocatedSenders) {
  // Two co-located ranks each send one remote message in one stage;
  // with the contention term the later one is bounded by the sum of
  // both marginal latencies.
  const TopologyProfile p = uniform_profile(4, 1e-5, 4e-6, 1e-6);
  Schedule s(4);
  oracle::StageMatrix m(4, 4, 0);
  m(0, 2) = 1;
  m(1, 3) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  PredictOptions contended;
  contended.egress_resource_of = {0, 0, 1, 1};
  // Free egress: (max O + L) send batch + L receive processing.
  EXPECT_DOUBLE_EQ(predicted_time(s, p), 1e-5 + 4e-6 + 4e-6);
  // Contended: max O + (L + L) egress serialization + receive L.
  EXPECT_DOUBLE_EQ(predicted_time(s, p, contended), 1e-5 + 8e-6 + 4e-6);
}

TEST(Predict, LocalMessagesIgnoreEgressTerm) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 4e-6, 1e-6);
  Schedule s(4);
  oracle::StageMatrix m(4, 4, 0);
  m(0, 1) = 1;
  m(2, 3) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  PredictOptions contended;
  contended.egress_resource_of = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(predicted_time(s, p, contended), predicted_time(s, p));
}

TEST(Predict, ContentionTermTracksContendedSimulation) {
  // The §VI-A augmentation pays off: with the contention term, the
  // predictor's ordering matches the contended simulator's for the
  // algorithm set (dissemination penalized, tree less, hybrid least).
  const MachineSpec m = quad_cluster();
  const std::size_t p = 32;
  const Mapping mapping = round_robin_mapping(m, p);
  const TopologyProfile profile =
      generate_profile(m, mapping, GenerateOptions{});
  PredictOptions contended_pred;
  contended_pred.egress_resource_of = node_egress_resources(m, mapping);
  SimOptions contended_sim;
  contended_sim.egress_resource_of = contended_pred.egress_resource_of;

  // The term must bite (substantial penalty on high-fan-out stages)...
  const double diss_plain = predicted_time(dissemination_barrier(p), profile);
  const double diss_cont =
      predicted_time(dissemination_barrier(p), profile, contended_pred);
  EXPECT_GT(diss_cont / diss_plain, 1.8);

  // ...and the contended predictor must order the algorithms exactly
  // as the contended simulator does.
  std::vector<double> predicted;
  std::vector<double> simulated;
  for (const Schedule& s :
       {dissemination_barrier(p), tree_barrier(p), linear_barrier(p),
        pairwise_exchange_barrier(p)}) {
    predicted.push_back(predicted_time(s, profile, contended_pred));
    simulated.push_back(
        simulate(s, profile, contended_sim).barrier_time());
  }
  for (std::size_t a = 0; a < predicted.size(); ++a) {
    for (std::size_t b = 0; b < predicted.size(); ++b) {
      if (predicted[a] < 0.8 * predicted[b]) {
        EXPECT_LT(simulated[a], simulated[b]) << a << " vs " << b;
      }
    }
  }
}

TEST(Predict, EgressMapSizeMismatchThrows) {
  const TopologyProfile p = uniform_profile(4, 1e-5, 4e-6, 1e-6);
  PredictOptions bad;
  bad.egress_resource_of = {0, 1};
  EXPECT_THROW(predicted_time(tree_barrier(4), p, bad), Error);
}

TEST(Predict, MismatchedProfileThrows) {
  const TopologyProfile p = uniform_profile(3, 1e-5, 1e-6, 1e-6);
  EXPECT_THROW(predicted_time(tree_barrier(4), p), Error);
}

// ---- Model-level shape properties on the paper's machines ----

class PredictShape : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PredictShape, TreeBeatsLinearAtScaleOnQuadCluster) {
  const std::size_t p = GetParam();
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  const double tree = predicted_time(tree_barrier(p), profile);
  const double linear = predicted_time(linear_barrier(p), profile);
  if (p >= 32) {
    EXPECT_LT(tree, linear) << "P=" << p;
  }
}

TEST_P(PredictShape, PredictionsArePositiveAndFinite) {
  const std::size_t p = GetParam();
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile =
      generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
  for (const Schedule& s :
       {linear_barrier(p), dissemination_barrier(p), tree_barrier(p)}) {
    const double t = predicted_time(s, profile);
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, PredictShape,
                         ::testing::Values(2, 4, 8, 9, 16, 24, 32, 40, 56,
                                           64));

TEST(PredictShape, DisseminationFavorsPowersOfTwoOnQuadCluster) {
  // "the dissemination algorithm favors problem sizes which are powers
  //  of 2, by construction" — visible as a dip at 32 vs 31/33.
  const MachineSpec m = quad_cluster();
  auto diss_cost = [&](std::size_t p) {
    const TopologyProfile profile =
        generate_profile(m, round_robin_mapping(m, p), GenerateOptions{});
    return predicted_time(dissemination_barrier(p), profile);
  };
  EXPECT_LT(diss_cost(32), diss_cost(33));
  EXPECT_LE(diss_cost(32), diss_cost(31));
}

}  // namespace
}  // namespace optibar
