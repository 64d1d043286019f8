// Payload-aware prediction parity: with zero payload the collective
// predictor must reproduce the barrier reference predictor bit for bit
// (same critical_path, rank_completion, stage_increment), and payload
// costs must enter exactly as bytes * G per edge.
#include "collective/predict.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "collective/generators.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

TopologyProfile hex_profile(std::size_t p) {
  const MachineSpec machine = hex_cluster();
  return generate_profile(machine, round_robin_mapping(machine, p));
}

/// Random non-barrier stage soup — the predictors accept any pattern.
Schedule random_schedule(std::size_t p, Rng& rng) {
  Schedule s(p);
  const std::size_t stages = 1 + rng.next_below(5);
  for (std::size_t st = 0; st < stages; ++st) {
    oracle::StageMatrix m(p, p, 0);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t fan_out = rng.next_below(4);
      for (std::size_t k = 0; k < fan_out; ++k) {
        const std::size_t j = rng.next_below(p);
        if (j != i) {
          m(i, j) = 1;
        }
      }
    }
    s.append_stage(oracle::stage_from_matrix(m));
  }
  return s;
}

void expect_bit_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.critical_path, b.critical_path);
  ASSERT_EQ(a.rank_completion.size(), b.rank_completion.size());
  for (std::size_t i = 0; i < a.rank_completion.size(); ++i) {
    EXPECT_EQ(a.rank_completion[i], b.rank_completion[i]) << "rank " << i;
  }
  ASSERT_EQ(a.stage_increment.size(), b.stage_increment.size());
  for (std::size_t s = 0; s < a.stage_increment.size(); ++s) {
    EXPECT_EQ(a.stage_increment[s], b.stage_increment[s]) << "stage " << s;
  }
}

TEST(PredictCollective, ZeroPayloadMatchesBarrierReferenceBitForBit) {
  Rng rng(42);
  for (std::size_t p : {4u, 9u, 16u, 24u}) {
    const TopologyProfile profile = hex_profile(p);
    std::vector<Schedule> schedules = {dissemination_barrier(p),
                                       tree_barrier(p), linear_barrier(p)};
    for (int k = 0; k < 5; ++k) {
      schedules.push_back(random_schedule(p, rng));
    }
    for (const Schedule& s : schedules) {
      expect_bit_identical(predict_collective(from_barrier(s), profile),
                           predict_reference(s, profile, {}));
    }
  }
}

TEST(PredictCollective, ZeroCountGeneratorMatchesSignalSchedule) {
  const TopologyProfile profile = hex_profile(12);
  const CollectiveSchedule s = recursive_doubling_allreduce(12, 0, 8);
  expect_bit_identical(predict_collective(s, profile),
                       predict_reference(s.signal_schedule(), profile, {}));
}

TEST(PredictCollective, PayloadCostIsMonotoneInBytes) {
  const TopologyProfile profile = hex_profile(24);
  ASSERT_TRUE(profile.has_bandwidth());
  double prev = -1.0;
  for (std::size_t elems : {0u, 64u, 1024u, 16384u}) {
    const double cost = predicted_collective_time(
        recursive_doubling_allreduce(24, elems, 8), profile);
    EXPECT_GT(cost, prev) << elems << " elements";
    prev = cost;
  }
}

TEST(PredictCollective, ProfileWithoutBandwidthIgnoresPayload) {
  const std::size_t p = 8;
  Matrix<double> o(p, p, 1e-6);
  Matrix<double> l(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i != j) {
        l(i, j) = 1e-7;
      }
    }
  }
  const TopologyProfile profile(o, l);
  ASSERT_FALSE(profile.has_bandwidth());
  const double small =
      predicted_collective_time(ring_allreduce(p, 8, 8), profile);
  const double large =
      predicted_collective_time(ring_allreduce(p, 8192, 8), profile);
  EXPECT_EQ(small, large);
}

TEST(PredictCollective, CompileReusesStorage) {
  const TopologyProfile profile = hex_profile(12);
  const CollectiveSchedule big = ring_allreduce(12, 4096, 8);
  const CollectiveSchedule small = binomial_broadcast(12, 0, 16, 8);
  CompiledSchedule compiled;
  PredictWorkspace workspace;
  Prediction out;
  compile_collective(big, profile, compiled);
  predict_into(compiled, {}, workspace, out);
  const double big_cost = out.critical_path;
  compile_collective(small, profile, compiled);
  predict_into(compiled, {}, workspace, out);
  compile_collective(big, profile, compiled);
  predict_into(compiled, {}, workspace, out);
  EXPECT_EQ(out.critical_path, big_cost);
}

}  // namespace
}  // namespace optibar
