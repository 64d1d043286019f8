// Parity suite for the compiled cost-model kernel: the compiled
// evaluator, the predict() wrapper and the incremental prefix evaluator
// must match the reference implementation bit for bit — same
// critical_path, rank_completion and stage_increment — across random
// schedules, profiles and every PredictOptions combination. This is the
// guarantee that lets the tuning engine switch kernels without changing
// a single tuned plan. Edge patches (set_one_sided) are held to the same
// standard: a patched kernel must equal a fresh compile of the
// equivalently tagged schedule, field for field.
#include "barrier/compiled_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/cost_model.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "netsim/engine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

/// Random stage sequence (not necessarily a barrier — the predictor does
/// not require one) with random per-rank fan-out, including empty stages
/// and empty schedules.
Schedule random_schedule(std::size_t p, Rng& rng) {
  Schedule s(p);
  const std::size_t stages = rng.next_below(6);
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

/// Random asymmetric profile with realistic magnitudes.
TopologyProfile random_profile(std::size_t p, Rng& rng) {
  Matrix<double> o(p, p, 0.0);
  Matrix<double> l(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i == j) {
        o(i, j) = rng.uniform(1e-7, 2e-6);
      } else {
        o(i, j) = rng.uniform(1e-6, 1e-4);
        l(i, j) = rng.uniform(1e-7, 1e-5);
      }
    }
  }
  return TopologyProfile(std::move(o), std::move(l));
}

/// Random option set exercising every combination knob: awaited flags
/// (shorter, equal or longer than the schedule), entry skew, receiver
/// processing, and a non-contiguous egress resource assignment.
PredictOptions random_options(std::size_t p, std::size_t stages, Rng& rng) {
  PredictOptions options;
  if (rng.next_below(2)) {
    const std::size_t n = rng.next_below(stages + 3);
    for (std::size_t s = 0; s < n; ++s) {
      options.awaited_stages.push_back(rng.next_below(2) != 0);
    }
  }
  if (rng.next_below(2)) {
    for (std::size_t i = 0; i < p; ++i) {
      options.entry_times.push_back(rng.uniform(0.0, 1e-4));
    }
  }
  options.receiver_processing = rng.next_below(2) != 0;
  if (rng.next_below(2)) {
    // Sparse ids (multiples of 3) exercise the dense-id remap.
    const std::size_t resources = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < p; ++i) {
      options.egress_resource_of.push_back(3 * rng.next_below(resources));
    }
  }
  return options;
}

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.rank_completion, b.rank_completion);
  EXPECT_EQ(a.stage_increment, b.stage_increment);
}

template <typename T>
std::vector<T> to_vector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

/// Every term compile() derives from a transport tag, compared exactly
/// (EXPECT_EQ on doubles: bit for bit, not approximately).
void expect_same_tagging(const CompiledSchedule& patched,
                         const CompiledSchedule& fresh) {
  ASSERT_EQ(patched.ranks(), fresh.ranks());
  ASSERT_EQ(patched.stage_count(), fresh.stage_count());
  for (std::size_t s = 0; s < fresh.stage_count(); ++s) {
    for (std::size_t i = 0; i < fresh.ranks(); ++i) {
      const std::size_t a = patched.row(i, s);
      const std::size_t b = fresh.row(i, s);
      EXPECT_EQ(to_vector(patched.target_overhead(a)),
                to_vector(fresh.target_overhead(b)));
      EXPECT_EQ(to_vector(patched.target_rma_latency(a)),
                to_vector(fresh.target_rma_latency(b)));
      EXPECT_EQ(to_vector(patched.target_one_sided(a)),
                to_vector(fresh.target_one_sided(b)));
      EXPECT_EQ(to_vector(patched.source_one_sided(a)),
                to_vector(fresh.source_one_sided(b)));
      EXPECT_EQ(patched.batch_cost(a, false), fresh.batch_cost(b, false));
      EXPECT_EQ(patched.batch_cost(a, true), fresh.batch_cost(b, true));
      EXPECT_EQ(patched.recv_processing(a), fresh.recv_processing(b));
    }
  }
}

/// How often the patch sequences below hit the row shapes that matter.
struct PatchCoverage {
  std::size_t single_target_rows = 0;  ///< patched sender has 1 target
  std::size_t multi_target_rows = 0;   ///< patched sender has >= 2
  std::size_t all_put_receivers = 0;   ///< >= 2 sources, every one a put
};

/// Apply a seeded random sequence of set_one_sided() patches to
/// `schedule` compiled untagged against `profile`, mirroring each patch
/// into a transport matrix; after every patch the kernel must equal a
/// fresh compile() of the equivalently tagged Schedule and predict like
/// predict_reference(). The sequence ends by tagging every source of one
/// receiver per stage, so all-put receive rows are covered too.
void check_patch_sequence(const Schedule& schedule,
                          const TopologyProfile& profile,
                          const PredictOptions& options, Rng& rng,
                          PatchCoverage& coverage) {
  const std::size_t p = schedule.ranks();
  if (schedule.stage_count() == 0) {
    return;
  }
  CompiledSchedule patched(schedule, profile);
  Schedule tagged = schedule;
  std::vector<oracle::StageMatrix> tags(schedule.stage_count(),
                                        oracle::StageMatrix(p, p, 0));
  CompiledSchedule fresh;
  PredictWorkspace workspace;
  Prediction out;
  const auto patch = [&](std::size_t s, std::size_t i, std::size_t k,
                         bool put) {
    const std::size_t degree = patched.targets(patched.row(i, s)).size();
    coverage.single_target_rows += degree == 1 ? 1 : 0;
    coverage.multi_target_rows += degree >= 2 ? 1 : 0;
    tags[s](i, patched.targets(patched.row(i, s))[k]) = put ? 1 : 0;
    patched.set_one_sided(s, i, k, put, profile);
    oracle::set_transport(tagged, s, tags[s]);
    fresh.compile(tagged, profile);
    expect_same_tagging(patched, fresh);
    predict_into(patched, options, workspace, out);
    expect_identical(out, predict_reference(tagged, profile, options));
  };
  for (std::size_t step = 0; step < 12; ++step) {
    const std::size_t s = rng.next_below(schedule.stage_count());
    const std::size_t i = rng.next_below(p);
    const std::size_t degree = patched.targets(patched.row(i, s)).size();
    if (degree > 0) {
      patch(s, i, rng.next_below(degree), rng.next_below(3) != 0);
    }
  }
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    const std::size_t j = rng.next_below(p);
    const auto sources = patched.sources(patched.row(j, s));
    for (const std::size_t i : sources) {
      const auto targets = patched.targets(patched.row(i, s));
      const auto k = static_cast<std::size_t>(
          std::lower_bound(targets.begin(), targets.end(), j) -
          targets.begin());
      patch(s, i, k, true);
    }
    coverage.all_put_receivers += sources.size() >= 2 ? 1 : 0;
  }
}

TEST(CompiledPredict, RandomizedParityWithReference) {
  PredictWorkspace workspace;  // deliberately shared across iterations
  CompiledSchedule compiled;
  Prediction via_kernel;
  PatchCoverage coverage;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const std::size_t p = 2 + rng.next_below(13);
    const Schedule schedule = random_schedule(p, rng);
    const TopologyProfile profile = random_profile(p, rng);
    const PredictOptions options =
        random_options(p, schedule.stage_count(), rng);

    const Prediction reference = predict_reference(schedule, profile, options);
    // Wrapper path (thread-local kernel state).
    expect_identical(predict(schedule, profile, options), reference);
    // Explicit compiled path with a reused workspace.
    compiled.compile(schedule, profile);
    predict_into(compiled, options, workspace, via_kernel);
    expect_identical(via_kernel, reference);
    EXPECT_EQ(predicted_time(compiled, options, workspace),
              reference.critical_path);

    // The same schedule re-tagged edge by edge, against a profile with
    // its own R matrix so puts are priced apart from L.
    TopologyProfile rma_profile = profile;
    Matrix<double> r(p, p, 0.0);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        r(i, j) = i == j ? 0.0 : rng.uniform(1e-7, 2e-5);
      }
    }
    rma_profile.set_rma_latency(std::move(r));
    check_patch_sequence(schedule, rma_profile, options, rng, coverage);
  }
  EXPECT_GT(coverage.single_target_rows, 0u);
  EXPECT_GT(coverage.multi_target_rows, 0u);
  EXPECT_GT(coverage.all_put_receivers, 0u);
}

TEST(CompiledPredict, ParityOnTunedStructures) {
  // The shapes the engine actually prices: classic algorithms on the
  // paper's machines, all stages awaited/not, contended and not.
  for (const std::size_t p : {8UL, 24UL, 64UL}) {
    const MachineSpec machine = quad_cluster();
    const Mapping mapping = round_robin_mapping(machine, p);
    const TopologyProfile profile = generate_profile(machine, mapping);
    for (const Schedule& s :
         {linear_barrier(p), dissemination_barrier(p), tree_barrier(p)}) {
      PredictOptions contended;
      contended.egress_resource_of = node_egress_resources(machine, mapping);
      for (const PredictOptions& options : {PredictOptions{}, contended}) {
        expect_identical(predict(s, profile, options),
                         predict_reference(s, profile, options));
      }
    }
  }
}

TEST(CompiledPredict, SpanAccessorsMatchScheduleAdjacency) {
  Rng rng(7);
  const std::size_t p = 9;
  const Schedule schedule = random_schedule(p, rng);
  const TopologyProfile profile = random_profile(p, rng);
  const CompiledSchedule compiled(schedule, profile);
  ASSERT_EQ(compiled.ranks(), p);
  ASSERT_EQ(compiled.stage_count(), schedule.stage_count());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t row = compiled.row(i, s);
      const std::vector<std::size_t> targets = schedule.targets_of(i, s);
      const auto span = compiled.targets(row);
      ASSERT_EQ(std::vector<std::size_t>(span.begin(), span.end()), targets);
      const std::span<const double> l = compiled.target_latency(row);
      const std::span<const double> o = compiled.target_overhead(row);
      ASSERT_EQ(l.size(), targets.size());
      for (std::size_t k = 0; k < targets.size(); ++k) {
        EXPECT_EQ(l[k], profile.l(i, targets[k]));
        EXPECT_EQ(o[k], profile.o(i, targets[k]));
      }
      EXPECT_EQ(compiled.batch_cost(row, false),
                step_cost(profile, i, targets, false));
      EXPECT_EQ(compiled.batch_cost(row, true),
                step_cost(profile, i, targets, true));
      const std::vector<std::size_t> sources = schedule.sources_of(i, s);
      const auto src = compiled.sources(row);
      ASSERT_EQ(std::vector<std::size_t>(src.begin(), src.end()), sources);
    }
  }
}

TEST(CompiledPredict, CompileRebindReusesStorage) {
  // One kernel object across wildly different sizes must keep matching.
  CompiledSchedule compiled;
  PredictWorkspace workspace;
  Prediction out;
  for (const std::size_t p : {12UL, 3UL, 16UL, 2UL, 9UL}) {
    Rng rng(p);
    const Schedule schedule = random_schedule(p, rng);
    const TopologyProfile profile = random_profile(p, rng);
    compiled.compile(schedule, profile);
    predict_into(compiled, {}, workspace, out);
    expect_identical(out, predict_reference(schedule, profile, {}));
  }
}

TEST(CompiledPredict, EmptyAndTrivialSchedules) {
  Rng rng1(1);
  const TopologyProfile one = random_profile(1, rng1);
  // p = 1, zero stages.
  Prediction out;
  PredictWorkspace ws;
  predict_into(CompiledSchedule(Schedule(1), one), {}, ws, out);
  expect_identical(out, predict_reference(Schedule(1), one, {}));
  // Zero-stage schedule over several ranks with entry skew.
  Rng rng(2);
  const TopologyProfile profile = random_profile(5, rng);
  PredictOptions options;
  options.entry_times = {0.5, 0.1, 0.9, 0.0, 0.3};
  predict_into(CompiledSchedule(Schedule(5), profile), options, ws, out);
  expect_identical(out, predict_reference(Schedule(5), profile, options));
  EXPECT_EQ(out.critical_path, 0.0);
}

TEST(CompiledPredict, MismatchesThrow) {
  Rng rng(3);
  const TopologyProfile profile = random_profile(4, rng);
  EXPECT_THROW(CompiledSchedule(tree_barrier(5), profile), Error);
  PredictWorkspace ws;
  Prediction out;
  const CompiledSchedule compiled(tree_barrier(4), profile);
  PredictOptions bad_entry;
  bad_entry.entry_times = {0.0, 0.0};
  EXPECT_THROW(predict_into(compiled, bad_entry, ws, out), Error);
  PredictOptions bad_egress;
  bad_egress.egress_resource_of = {0, 1};
  EXPECT_THROW(predict_into(compiled, bad_egress, ws, out), Error);
}

TEST(IncrementalPredictor, MatchesFullPredictUnderPushPop) {
  // Random push/pop walks: after every operation the predictor's ready
  // vector must equal a from-scratch reference prediction of the
  // current prefix.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 1000);
    const std::size_t p = 2 + rng.next_below(7);
    const TopologyProfile profile = random_profile(p, rng);
    IncrementalPredictor predictor(profile);
    Schedule prefix(p);
    for (std::size_t step = 0; step < 40; ++step) {
      if (predictor.depth() > 0 && rng.next_below(3) == 0) {
        predictor.pop_stage();
        prefix.pop_stage();
      } else {
        oracle::StageMatrix m(p, p, 0);
        for (std::size_t i = 0; i < p; ++i) {
          const std::size_t fan_out = rng.next_below(3);
          for (std::size_t k = 0; k < fan_out; ++k) {
            const std::size_t j = rng.next_below(p);
            if (j != i) {
              m(i, j) = 1;
            }
          }
        }
        predictor.push_stage(oracle::stage_from_matrix(m));
        prefix.append_stage(oracle::stage_from_matrix(m));
      }
      ASSERT_EQ(predictor.depth(), prefix.stage_count());
      const Prediction full = predict_reference(prefix, profile, {});
      ASSERT_EQ(predictor.ready(), full.rank_completion);
      EXPECT_EQ(predictor.max_ready(),
                full.critical_path);  // zero entry: origin is 0
    }
  }
}

TEST(IncrementalPredictor, AwaitedStagesAndEntryTimes) {
  Rng rng(42);
  const std::size_t p = 6;
  const TopologyProfile profile = random_profile(p, rng);
  const Schedule schedule = tree_barrier(p);
  PredictOptions options;
  options.entry_times = {0.1, 0.0, 0.05, 0.2, 0.0, 0.15};
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    options.awaited_stages.push_back(s % 2 == 0);
  }
  IncrementalPredictor predictor(profile);
  predictor.reset(options.entry_times);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    predictor.push_stage(schedule.stage(s), options.awaited_stages[s]);
  }
  const Prediction full = predict_reference(schedule, profile, options);
  EXPECT_EQ(predictor.ready(), full.rank_completion);
}

TEST(IncrementalPredictor, ReceiverProcessingToggle) {
  Rng rng(5);
  const std::size_t p = 5;
  const TopologyProfile profile = random_profile(p, rng);
  const Schedule schedule = dissemination_barrier(p);
  PredictOptions sender_only;
  sender_only.receiver_processing = false;
  IncrementalPredictor predictor(profile, /*receiver_processing=*/false);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    predictor.push_stage(schedule.stage(s));
  }
  EXPECT_EQ(predictor.ready(),
            predict_reference(schedule, profile, sender_only).rank_completion);
}

TEST(CompiledPredict, EightThreadStressParity) {
  // Hammer the thread-local wrapper path from 8 threads at once; every
  // thread must reproduce the reference bit for bit on its own mix of
  // schedules.
  std::vector<Schedule> schedules;
  std::vector<TopologyProfile> profiles;
  std::vector<PredictOptions> options;
  std::vector<Prediction> expected;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed + 99);
    const std::size_t p = 2 + rng.next_below(11);
    schedules.push_back(random_schedule(p, rng));
    profiles.push_back(random_profile(p, rng));
    options.push_back(random_options(p, schedules.back().stage_count(), rng));
    expected.push_back(
        predict_reference(schedules.back(), profiles.back(), options.back()));
  }
  std::vector<std::thread> threads;
  std::vector<std::size_t> mismatches(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t iter = 0; iter < 200; ++iter) {
        const std::size_t k = (iter * 7 + t) % schedules.size();
        const Prediction got = predict(schedules[k], profiles[k], options[k]);
        if (got.critical_path != expected[k].critical_path ||
            got.rank_completion != expected[k].rank_completion ||
            got.stage_increment != expected[k].stage_increment) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace optibar
