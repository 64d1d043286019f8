// Tests for the C API: handle lifecycle, plan extraction, error paths,
// and — the crucial semantic check — replaying a plan's per-rank op
// sequences through the MPI-like runtime synchronizes correctly.
#include "capi/optibar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace {

using namespace optibar;

class CapiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "optibar_capi_profile.txt")
                .string();
    const MachineSpec m = quad_cluster(2);
    generate_profile(m, round_robin_mapping(m, 16)).save_file(path_);
    library_ = optibar_open_v2(path_.c_str(), 1);
    ASSERT_NE(library_, nullptr) << optibar_last_error();
  }
  void TearDown() override {
    optibar_close(library_);
    std::filesystem::remove(path_);
  }

  std::string path_;
  optibar_library* library_ = nullptr;
};

TEST(Capi, OpenRejectsMissingFile) {
  EXPECT_EQ(optibar_open_v2("/nonexistent/profile.txt", 1), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_IO);
  EXPECT_NE(std::string(optibar_last_error()).find("cannot open"),
            std::string::npos);
}

TEST(Capi, OpenRejectsNullPath) {
  EXPECT_EQ(optibar_open_v2(nullptr, 1), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST(Capi, NullHandleAccessorsAreSafe) {
  EXPECT_EQ(optibar_ranks(nullptr), 0u);
  EXPECT_EQ(optibar_plan_ranks(nullptr), 0u);
  EXPECT_EQ(optibar_plan_op_count(nullptr, 0), 0u);
  EXPECT_DOUBLE_EQ(optibar_plan_predicted_seconds(nullptr), 0.0);
  optibar_close(nullptr);  // must not crash
}

TEST_F(CapiTest, ReportsRankCount) {
  EXPECT_EQ(optibar_ranks(library_), 16u);
}

TEST_F(CapiTest, WorldPlanHasSaneShape) {
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr) << optibar_last_error();
  EXPECT_EQ(optibar_plan_ranks(plan), 16u);
  EXPECT_GT(optibar_plan_stage_count(plan), 0u);
  EXPECT_GT(optibar_plan_predicted_seconds(plan), 0.0);
  // Total ops across ranks = 2 * total signals > 0.
  std::size_t total = 0;
  for (std::size_t r = 0; r < 16; ++r) {
    total += optibar_plan_op_count(plan, r);
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total % 2, 0u);
}

TEST_F(CapiTest, RepeatedWorldPlansAreCached) {
  const optibar_plan* a = optibar_world_plan_v2(library_);
  const optibar_plan* b = optibar_world_plan_v2(library_);
  EXPECT_EQ(a, b);
}

TEST_F(CapiTest, OpsEndEachStageWithWaitAll) {
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr);
  for (std::size_t r = 0; r < 16; ++r) {
    const std::size_t n = optibar_plan_op_count(plan, r);
    if (n == 0) {
      continue;
    }
    std::vector<optibar_op> ops(n);
    ASSERT_EQ(optibar_plan_ops(plan, r, ops.data(), n), n);
    // Stage changes only after a stage_end; the last op closes a stage.
    for (std::size_t i = 1; i < n; ++i) {
      if (ops[i].stage != ops[i - 1].stage) {
        EXPECT_EQ(ops[i - 1].stage_end, 1);
      }
    }
    EXPECT_EQ(ops[n - 1].stage_end, 1);
  }
}

TEST_F(CapiTest, PlanOpsTruncateToCapacity) {
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  std::vector<optibar_op> one(1);
  EXPECT_EQ(optibar_plan_ops(plan, 0, one.data(), 1), 1u);
  EXPECT_EQ(optibar_plan_ops(plan, 0, nullptr, 8), 0u);
  EXPECT_EQ(optibar_plan_ops(plan, 99, one.data(), 1), 0u);
}

TEST_F(CapiTest, SubsetPlanUsesLocalNumbering) {
  const std::size_t subset[] = {0, 2, 4, 6};
  const optibar_plan* plan = optibar_subset_plan_v2(library_, subset, 4);
  ASSERT_NE(plan, nullptr) << optibar_last_error();
  EXPECT_EQ(optibar_plan_ranks(plan), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    const std::size_t n = optibar_plan_op_count(plan, r);
    std::vector<optibar_op> ops(n);
    optibar_plan_ops(plan, r, ops.data(), n);
    for (const optibar_op& op : ops) {
      EXPECT_GE(op.peer, 0);
      EXPECT_LT(op.peer, 4);
    }
  }
}

TEST_F(CapiTest, SubsetPlanRejectsBadSubsets) {
  const std::size_t dup[] = {1, 1};
  EXPECT_EQ(optibar_subset_plan_v2(library_, dup, 2), nullptr);
  EXPECT_NE(std::string(optibar_last_error()).find("duplicate"),
            std::string::npos);
  const std::size_t oob[] = {0, 99};
  EXPECT_EQ(optibar_subset_plan_v2(library_, oob, 2), nullptr);
  EXPECT_GT(std::strlen(optibar_last_error()), 0u);
  EXPECT_EQ(optibar_subset_plan_v2(library_, nullptr, 2), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST(CapiStatus, StatusStringsAreStable) {
  EXPECT_STREQ(optibar_status_string(OPTIBAR_OK), "OPTIBAR_OK");
  EXPECT_STREQ(optibar_status_string(OPTIBAR_ERR_INVALID_ARGUMENT),
               "OPTIBAR_ERR_INVALID_ARGUMENT");
  EXPECT_STREQ(optibar_status_string(OPTIBAR_ERR_IO), "OPTIBAR_ERR_IO");
  EXPECT_STREQ(optibar_status_string(OPTIBAR_ERR_TUNING),
               "OPTIBAR_ERR_TUNING");
  EXPECT_STREQ(optibar_status_string(OPTIBAR_ERR_INTERNAL),
               "OPTIBAR_ERR_INTERNAL");
}

TEST(CapiStatus, OpenV2ReportsIoFailure) {
  EXPECT_EQ(optibar_open_v2("/nonexistent/profile.txt", 1), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_IO);
  EXPECT_NE(std::string(optibar_last_error()).find("cannot open"),
            std::string::npos);
}

TEST(CapiStatus, OpenV2ReportsNullPath) {
  EXPECT_EQ(optibar_open_v2(nullptr, 1), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST(CapiStatus, NullHandleSetsInvalidArgument) {
  EXPECT_EQ(optibar_world_plan_v2(nullptr), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_ranks(nullptr), 0u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST_F(CapiTest, SuccessResetsStatusAndMessage) {
  optibar_world_plan_v2(nullptr);  // leave an error behind
  ASSERT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  ASSERT_NE(optibar_world_plan_v2(library_), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_STREQ(optibar_last_error(), "");
}

TEST_F(CapiTest, RepeatedSubsetPlansAreCached) {
  const std::size_t subset[] = {0, 2, 4};
  EXPECT_EQ(optibar_subset_plan_v2(library_, subset, 3),
            optibar_subset_plan_v2(library_, subset, 3));
}

TEST_F(CapiTest, SubsetV2ClassifiesCallerErrors) {
  const std::size_t dup[] = {1, 1};
  EXPECT_EQ(optibar_subset_plan_v2(library_, dup, 2), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("duplicate"),
            std::string::npos);
  const std::size_t oob[] = {0, 99};
  EXPECT_EQ(optibar_subset_plan_v2(library_, oob, 2), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_subset_plan_v2(library_, nullptr, 2), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST_F(CapiTest, OutOfRangeRankSetsStatus) {
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(optibar_plan_op_count(plan, 16), 0u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  optibar_op op;
  EXPECT_EQ(optibar_plan_ops(plan, 16, &op, 1), 0u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  (void)optibar_plan_op_count(plan, 15);  // valid rank resets the status
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
}

TEST_F(CapiTest, ThreadedOpenTunesLikeSerial) {
  optibar_library* threaded = optibar_open_v2(path_.c_str(), 4);
  ASSERT_NE(threaded, nullptr);
  const optibar_plan* a = optibar_world_plan_v2(library_);
  const optibar_plan* b = optibar_world_plan_v2(threaded);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Bit-identical tuning at any width: same shape, same cost.
  EXPECT_EQ(optibar_plan_stage_count(a), optibar_plan_stage_count(b));
  EXPECT_DOUBLE_EQ(optibar_plan_predicted_seconds(a),
                   optibar_plan_predicted_seconds(b));
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(optibar_plan_op_count(a, r), optibar_plan_op_count(b, r));
  }
  optibar_close(threaded);
}

TEST_F(CapiTest, TuneAllFillsEveryPlan) {
  // Three subsets concatenated: {0..7}, {8..15}, {0,2,4,6}.
  std::vector<std::size_t> ranks;
  for (std::size_t r = 0; r < 8; ++r) ranks.push_back(r);
  for (std::size_t r = 8; r < 16; ++r) ranks.push_back(r);
  for (std::size_t r = 0; r < 8; r += 2) ranks.push_back(r);
  const std::size_t counts[] = {8, 8, 4};
  const optibar_plan* plans[3] = {};
  ASSERT_EQ(optibar_tune_all(library_, ranks.data(), counts, 3, plans), 3u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_EQ(optibar_plan_ranks(plans[0]), 8u);
  EXPECT_EQ(optibar_plan_ranks(plans[1]), 8u);
  EXPECT_EQ(optibar_plan_ranks(plans[2]), 4u);
  // Batch results alias the per-subset cache.
  const std::size_t quad[] = {0, 2, 4, 6};
  EXPECT_EQ(optibar_subset_plan_v2(library_, quad, 4), plans[2]);
}

TEST_F(CapiTest, TuneAllRejectsBadBatches) {
  const std::size_t counts[] = {2};
  const optibar_plan* plans[1] = {};
  EXPECT_EQ(optibar_tune_all(nullptr, nullptr, counts, 1, plans), 0u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  const std::size_t bad_ranks[] = {0, 99};
  EXPECT_EQ(optibar_tune_all(library_, bad_ranks, counts, 1, plans), 0u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("subset 0"),
            std::string::npos);
  EXPECT_EQ(plans[0], nullptr);  // untouched on failure
}

TEST_F(CapiTest, ReplayingPlanOpsSynchronizes) {
  // The contract: a C MPI program replays ops with Issend/Irecv/Waitall.
  // Do exactly that against the in-process runtime and verify clean
  // completion across repeated episodes.
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr);
  const int stages = static_cast<int>(optibar_plan_stage_count(plan));

  simmpi::Communicator comm(16);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    const std::size_t n = optibar_plan_op_count(plan, ctx.rank());
    std::vector<optibar_op> ops(n);
    optibar_plan_ops(plan, ctx.rank(), ops.data(), n);
    for (int episode = 0; episode < 3; ++episode) {
      std::vector<simmpi::Request> requests;
      for (const optibar_op& op : ops) {
        const int tag = episode * stages + op.stage;
        requests.push_back(
            op.is_send
                ? ctx.issend(static_cast<std::size_t>(op.peer), tag)
                : ctx.irecv(static_cast<std::size_t>(op.peer), tag));
        if (op.stage_end) {
          simmpi::RankContext::wait_all(requests);
          requests.clear();
        }
      }
      EXPECT_TRUE(requests.empty());
    }
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST_F(CapiTest, EveryFailurePathLeavesAMessage) {
  // The error-channel contract: any non-OK status comes with a
  // non-empty optibar_last_error, including NULL-argument early
  // returns — callers log the message without checking for "".
  const auto expect_message = [](const char* where) {
    EXPECT_NE(optibar_last_status(), OPTIBAR_OK) << where;
    EXPECT_GT(std::strlen(optibar_last_error()), 0u) << where;
  };
  EXPECT_EQ(optibar_open_v2(nullptr, 1), nullptr);
  expect_message("open_v2(NULL path)");
  EXPECT_EQ(optibar_open_v2("/nonexistent/profile.txt", 1), nullptr);
  expect_message("open_v2(missing file)");
  EXPECT_EQ(optibar_world_plan_v2(nullptr), nullptr);
  expect_message("world_plan_v2(NULL library)");
  EXPECT_EQ(optibar_subset_plan_v2(library_, nullptr, 2), nullptr);
  expect_message("subset_plan_v2(NULL ranks)");
  const std::size_t dup[] = {1, 1};
  EXPECT_EQ(optibar_subset_plan_v2(library_, dup, 2), nullptr);
  expect_message("subset_plan_v2(duplicate)");
  const std::size_t oob[] = {0, 99};
  EXPECT_EQ(optibar_subset_plan_v2(library_, oob, 2), nullptr);
  expect_message("subset_plan_v2(out of range)");
  EXPECT_EQ(optibar_ranks(nullptr), 0u);
  expect_message("ranks(NULL library)");
  EXPECT_EQ(optibar_plan_is_degraded(nullptr), 0);
  expect_message("plan_is_degraded(NULL plan)");
  EXPECT_EQ(optibar_report_stall(nullptr, oob, 2, "stall"), -1);
  expect_message("report_stall(NULL library)");
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(optibar_plan_op_count(plan, 999), 0u);
  expect_message("plan_op_count(rank out of range)");
  optibar_op op;
  EXPECT_EQ(optibar_plan_ops(plan, 999, &op, 1), 0u);
  expect_message("plan_ops(rank out of range)");
  EXPECT_EQ(optibar_tune_collective_v2(library_,
                                       static_cast<optibar_collective_op>(99),
                                       0, 0, nullptr, nullptr),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  expect_message("tune_collective_v2(bad op)");
}

TEST_F(CapiTest, StallReportsQuarantineAndDegradePlans) {
  const std::size_t subset[] = {1, 3, 5, 7};
  const optibar_plan* tuned = optibar_subset_plan_v2(library_, subset, 4);
  ASSERT_NE(tuned, nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_EQ(optibar_plan_is_degraded(tuned), 0);

  // Below the default threshold (3) the tuned plan keeps being served.
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stage 0 stall"), 0);
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stage 0 stall"), 0);
  EXPECT_EQ(optibar_subset_plan_v2(library_, subset, 4), tuned);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);

  // Third strike quarantines the tuned plan; the next request returns
  // the conservative fallback, flagged OPTIBAR_DEGRADED with a reason.
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stage 0 stall"), 1);
  const optibar_plan* fallback = optibar_subset_plan_v2(library_, subset, 4);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_DEGRADED);
  EXPECT_NE(std::string(optibar_last_error()).find("quarantined"),
            std::string::npos);
  EXPECT_EQ(optibar_plan_is_degraded(fallback), 1);
  EXPECT_NE(fallback, tuned);
  // The old handle stays valid — plans are owned by the library.
  EXPECT_EQ(optibar_plan_ranks(tuned), 4u);
  EXPECT_EQ(optibar_plan_ranks(fallback), 4u);
  EXPECT_GT(optibar_plan_stage_count(fallback), 0u);

  // A stall on a subset that was never served a plan is a caller error.
  const std::size_t fresh[] = {8, 9};
  EXPECT_EQ(optibar_report_stall(library_, fresh, 2, "stall"), -1);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_GT(std::strlen(optibar_last_error()), 0u);
}

TEST(CapiStatus, DegradedStatusStringIsStable) {
  EXPECT_STREQ(optibar_status_string(OPTIBAR_DEGRADED), "OPTIBAR_DEGRADED");
}

TEST_F(CapiTest, TuneCollectiveV2ReturnsPlanMetrics) {
  double seconds = -1.0;
  size_t stages = 0;
  ASSERT_EQ(optibar_tune_collective_v2(library_, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                       64 * 1024, 0, &seconds, &stages),
            OPTIBAR_OK);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_STREQ(optibar_last_error(), "");
  EXPECT_GT(seconds, 0.0);
  EXPECT_GT(stages, 0u);

  // Zero payload works and is cheaper than 64 KiB, out params optional.
  double barrier_shaped = -1.0;
  ASSERT_EQ(optibar_tune_collective_v2(library_, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                       0, 0, &barrier_shaped, nullptr),
            OPTIBAR_OK);
  EXPECT_LT(barrier_shaped, seconds);
  EXPECT_EQ(optibar_tune_collective_v2(library_, OPTIBAR_COLLECTIVE_BCAST,
                                       4096, 3, nullptr, nullptr),
            OPTIBAR_OK);
}

TEST_F(CapiTest, TuneCollectiveV2ClassifiesCallerErrors) {
  double seconds = -1.0;
  size_t stages = 99;
  EXPECT_EQ(optibar_tune_collective_v2(nullptr, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                       0, 0, &seconds, &stages),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("NULL"),
            std::string::npos);

  EXPECT_EQ(optibar_tune_collective_v2(
                library_, static_cast<optibar_collective_op>(99), 0, 0,
                &seconds, &stages),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("op"), std::string::npos);

  // Root out of range (fixture profile has 16 ranks).
  EXPECT_EQ(optibar_tune_collective_v2(library_, OPTIBAR_COLLECTIVE_REDUCE, 0,
                                       16, &seconds, &stages),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("root"),
            std::string::npos);

  // Payload must be a multiple of the 8-byte element width.
  EXPECT_EQ(optibar_tune_collective_v2(library_, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                       12, 0, &seconds, &stages),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("multiple"),
            std::string::npos);

  // Every failure left the out parameters unwritten.
  EXPECT_DOUBLE_EQ(seconds, -1.0);
  EXPECT_EQ(stages, 99u);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST_F(CapiTest, TuneHybridV2ReportsTransportAndCost) {
  double seconds = -1.0;
  optibar_transport transport = static_cast<optibar_transport>(99);
  size_t signals = 12345;
  ASSERT_EQ(optibar_tune_hybrid_v2(library_, &seconds, &transport, &signals),
            OPTIBAR_OK);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_STREQ(optibar_last_error(), "");
  EXPECT_GT(seconds, 0.0);
  EXPECT_TRUE(transport == OPTIBAR_TRANSPORT_TWO_SIDED ||
              transport == OPTIBAR_TRANSPORT_ONE_SIDED ||
              transport == OPTIBAR_TRANSPORT_HYBRID);
  // A two-sided winner carries no tagged signals; anything else must.
  if (transport == OPTIBAR_TRANSPORT_TWO_SIDED) {
    EXPECT_EQ(signals, 0u);
  } else {
    EXPECT_GT(signals, 0u);
  }
  // The picked transport never loses to the classic world plan.
  const optibar_plan* plan = optibar_world_plan_v2(library_);
  ASSERT_NE(plan, nullptr);
  EXPECT_LE(seconds, optibar_plan_predicted_seconds(plan));
  // Out parameters are optional.
  EXPECT_EQ(optibar_tune_hybrid_v2(library_, nullptr, nullptr, nullptr),
            OPTIBAR_OK);
}

TEST_F(CapiTest, TuneHybridV2ClassifiesCallerErrors) {
  double seconds = -1.0;
  // A byte pattern no enumerator has, checked as bytes: loading it as
  // an optibar_transport would be undefined behaviour.
  constexpr int kPattern = 0xA5;
  optibar_transport transport{};
  std::memset(&transport, kPattern, sizeof transport);
  unsigned char untouched[sizeof transport] = {};
  std::memset(untouched, kPattern, sizeof untouched);
  size_t signals = 12345;
  EXPECT_EQ(optibar_tune_hybrid_v2(nullptr, &seconds, &transport, &signals),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(optibar_last_error()).find("NULL"),
            std::string::npos);
  // The failure left every out parameter unwritten.
  EXPECT_DOUBLE_EQ(seconds, -1.0);
  EXPECT_EQ(std::memcmp(&transport, untouched, sizeof transport), 0);
  EXPECT_EQ(signals, 12345u);
}

TEST_F(CapiTest, IbarrierEpisodeCompletesViaPollingThenWait) {
  optibar_episode* episode = optibar_ibarrier_post(library_);
  ASSERT_NE(episode, nullptr) << optibar_last_error();
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  // Poll until the in-process barrier run completes.
  int state = 0;
  while ((state = optibar_ibarrier_test(episode)) == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(state, 1);
  EXPECT_EQ(optibar_ibarrier_wait(episode), OPTIBAR_OK);
}

TEST_F(CapiTest, IbarrierWaitAloneDrivesTheEpisode) {
  optibar_episode* episode = optibar_ibarrier_post(library_);
  ASSERT_NE(episode, nullptr) << optibar_last_error();
  EXPECT_EQ(optibar_ibarrier_wait(episode), OPTIBAR_OK);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
}

TEST_F(CapiTest, ConcurrentEpisodesAreIndependent) {
  optibar_episode* a = optibar_ibarrier_post(library_);
  optibar_episode* b = optibar_ibarrier_post(library_);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(optibar_ibarrier_wait(b), OPTIBAR_OK);
  EXPECT_EQ(optibar_ibarrier_wait(a), OPTIBAR_OK);
}

TEST(CapiEpisode, NullEpisodeIsRejected) {
  EXPECT_EQ(optibar_ibarrier_test(nullptr), -1);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_ibarrier_wait(nullptr), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_icollective_test(nullptr), -1);
  EXPECT_EQ(optibar_icollective_wait(nullptr),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_ibarrier_post(nullptr), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

TEST_F(CapiTest, IcollectiveAllreduceSumsEveryRanksBuffer) {
  const size_t ranks = optibar_ranks(library_);
  const size_t elems = 4;
  std::vector<uint64_t> data(ranks * elems);
  for (size_t r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < elems; ++i) {
      data[r * elems + i] = r * 100 + i + 1;
    }
  }
  optibar_episode* episode = optibar_icollective_post(
      library_, OPTIBAR_COLLECTIVE_ALLREDUCE, data.data(), elems, 0);
  ASSERT_NE(episode, nullptr) << optibar_last_error();
  while (optibar_icollective_test(episode) == 0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(optibar_icollective_wait(episode), OPTIBAR_OK)
      << optibar_last_error();
  // Allreduce: every rank holds the elementwise sum over all inputs.
  for (size_t i = 0; i < elems; ++i) {
    uint64_t expected = 0;
    for (size_t r = 0; r < ranks; ++r) {
      expected += r * 100 + i + 1;
    }
    for (size_t r = 0; r < ranks; ++r) {
      EXPECT_EQ(data[r * elems + i], expected)
          << "rank " << r << " element " << i;
    }
  }
}

TEST_F(CapiTest, IcollectiveBroadcastCopiesTheRootBuffer) {
  const size_t ranks = optibar_ranks(library_);
  const size_t elems = 2;
  const size_t root = 3;
  std::vector<uint64_t> data(ranks * elems, 0);
  for (size_t i = 0; i < elems; ++i) {
    data[root * elems + i] = 4000 + i;
  }
  optibar_episode* episode = optibar_icollective_post(
      library_, OPTIBAR_COLLECTIVE_BCAST, data.data(), elems, root);
  ASSERT_NE(episode, nullptr) << optibar_last_error();
  ASSERT_EQ(optibar_icollective_wait(episode), OPTIBAR_OK)
      << optibar_last_error();
  for (size_t r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < elems; ++i) {
      EXPECT_EQ(data[r * elems + i], 4000 + i) << "rank " << r;
    }
  }
}

TEST_F(CapiTest, IcollectiveValidatesItsArguments) {
  std::vector<uint64_t> data(16, 0);
  EXPECT_EQ(optibar_icollective_post(library_, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                     nullptr, 1, 0),
            nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_icollective_post(library_, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                     data.data(), 0, 0),
            nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(optibar_icollective_post(library_, OPTIBAR_COLLECTIVE_REDUCE,
                                     data.data(), 1, 99),
            nullptr);
  EXPECT_NE(std::string(optibar_last_error()).find("out of range"),
            std::string::npos);
  EXPECT_EQ(
      optibar_icollective_post(library_, static_cast<optibar_collective_op>(7),
                               data.data(), 1, 0),
      nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_ERR_INVALID_ARGUMENT);
}

/* ---- plan service surface ---- */

class CapiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "optibar_capi_service_profile.txt")
                .string();
    store_ = (std::filesystem::temp_directory_path() /
              "optibar_capi_service_store.txt")
                 .string();
    const MachineSpec m = quad_cluster();
    generate_profile(m, round_robin_mapping(m, 8)).save_file(path_);
    library_ = optibar_open_service(path_.c_str(), 1, /*auto_repair=*/0);
    ASSERT_NE(library_, nullptr) << optibar_last_error();
  }
  void TearDown() override {
    optibar_close(library_);
    std::filesystem::remove(path_);
    std::filesystem::remove(store_);
  }

  std::string path_;
  std::string store_;
  optibar_library* library_ = nullptr;
};

TEST_F(CapiServiceTest, LifecycleAndStoreRoundTrip) {
  const size_t subset[] = {0, 1, 2, 3};
  ASSERT_NE(optibar_subset_plan_v2(library_, subset, 4), nullptr);
  optibar_plan_state_t state = OPTIBAR_PLAN_DEGRADED;
  ASSERT_EQ(optibar_plan_state(library_, subset, 4, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_HEALTHY);

  EXPECT_EQ(optibar_report_latency(library_, subset, 4, 0, 1, 1e-6),
            OPTIBAR_OK);
  EXPECT_EQ(optibar_report_success(library_, subset, 4), OPTIBAR_OK);
  EXPECT_EQ(optibar_service_wait(library_), OPTIBAR_OK);

  // Default threshold 3: two stalls suspect, the third quarantines.
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stall"), 0);
  ASSERT_EQ(optibar_plan_state(library_, subset, 4, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_SUSPECT);
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stall"), 0);
  EXPECT_EQ(optibar_report_stall(library_, subset, 4, "stall"), 1);
  ASSERT_EQ(optibar_plan_state(library_, subset, 4, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_QUARANTINED);
  // The served plan is now the fallback, flagged as a warning status.
  const optibar_plan* fallback = optibar_subset_plan_v2(library_, subset, 4);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_DEGRADED);
  EXPECT_EQ(optibar_plan_is_degraded(fallback), 1);

  // Save, reload into a fresh service: the quarantine survives.
  ASSERT_EQ(optibar_store_save(library_, store_.c_str()), OPTIBAR_OK);
  optibar_library* restarted =
      optibar_open_service(path_.c_str(), 1, /*auto_repair=*/0);
  ASSERT_NE(restarted, nullptr);
  ASSERT_EQ(optibar_store_load(restarted, store_.c_str()), OPTIBAR_OK);
  ASSERT_EQ(optibar_plan_state(restarted, subset, 4, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_QUARANTINED);
  optibar_close(restarted);
}

TEST_F(CapiServiceTest, EveryFailurePathSetsANonEmptyError) {
  // The contract the sweep enforces: any call that does not succeed
  // leaves a non-OK status AND a non-empty optibar_last_error() — no
  // caller should ever see a bare error code with an empty message.
  const auto expect_error = [](const char* what) {
    EXPECT_NE(optibar_last_status(), OPTIBAR_OK) << what;
    EXPECT_GT(std::strlen(optibar_last_error()), 0u) << what;
  };
  const size_t good[] = {0, 1, 2, 3};
  const size_t dup[] = {1, 1};
  const size_t oob[] = {0, 99};
  optibar_plan_state_t state;

  EXPECT_EQ(optibar_open_v2(nullptr, 1), nullptr);
  expect_error("open_v2 null path");
  EXPECT_EQ(optibar_open_v2("/nonexistent/profile.txt", 1), nullptr);
  expect_error("open_v2 missing file");
  EXPECT_EQ(optibar_open_service(nullptr, 1, 0), nullptr);
  expect_error("open_service null path");
  EXPECT_EQ(optibar_open_service("/nonexistent/profile.txt", 1, 1), nullptr);
  expect_error("open_service missing file");

  EXPECT_EQ(optibar_ranks(nullptr), 0u);
  expect_error("ranks null library");
  EXPECT_EQ(optibar_world_plan_v2(nullptr), nullptr);
  expect_error("world_plan_v2 null library");
  EXPECT_EQ(optibar_subset_plan_v2(nullptr, good, 4), nullptr);
  expect_error("subset_plan_v2 null library");
  EXPECT_EQ(optibar_subset_plan_v2(library_, nullptr, 4), nullptr);
  expect_error("subset_plan_v2 null ranks");
  EXPECT_EQ(optibar_subset_plan_v2(library_, dup, 2), nullptr);
  expect_error("subset_plan_v2 duplicate rank");
  EXPECT_EQ(optibar_subset_plan_v2(library_, oob, 2), nullptr);
  expect_error("subset_plan_v2 out-of-range rank");
  EXPECT_EQ(optibar_subset_plan_v2(library_, good, 0), nullptr);
  expect_error("subset_plan_v2 empty subset");
  EXPECT_EQ(optibar_tune_all(library_, nullptr, nullptr, 0, nullptr), 0u);
  expect_error("tune_all null arguments");

  EXPECT_EQ(optibar_plan_ranks(nullptr), 0u);
  expect_error("plan_ranks null plan");
  EXPECT_EQ(optibar_plan_predicted_seconds(nullptr), 0.0);
  expect_error("plan_predicted_seconds null plan");
  EXPECT_EQ(optibar_plan_stage_count(nullptr), 0u);
  expect_error("plan_stage_count null plan");
  EXPECT_EQ(optibar_plan_op_count(nullptr, 0), 0u);
  expect_error("plan_op_count null plan");
  EXPECT_EQ(optibar_plan_ops(nullptr, 0, nullptr, 0), 0u);
  expect_error("plan_ops null plan");
  EXPECT_EQ(optibar_plan_is_degraded(nullptr), 0);
  expect_error("plan_is_degraded null plan");
  const optibar_plan* plan = optibar_subset_plan_v2(library_, good, 4);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(optibar_plan_op_count(plan, 99), 0u);
  expect_error("plan_op_count out-of-range rank");

  EXPECT_EQ(optibar_report_stall(nullptr, good, 4, "x"), -1);
  expect_error("report_stall null library");
  EXPECT_EQ(optibar_report_stall(library_, oob, 2, "x"), -1);
  expect_error("report_stall out-of-range rank");
  const size_t unserved[] = {4, 5};
  EXPECT_EQ(optibar_report_stall(library_, unserved, 2, "x"), -1);
  expect_error("report_stall never-served subset");

  EXPECT_NE(optibar_plan_state(nullptr, good, 4, &state), OPTIBAR_OK);
  expect_error("plan_state null library");
  EXPECT_NE(optibar_plan_state(library_, good, 4, nullptr), OPTIBAR_OK);
  expect_error("plan_state null out_state");
  EXPECT_NE(optibar_plan_state(library_, dup, 2, &state), OPTIBAR_OK);
  expect_error("plan_state duplicate rank");
  EXPECT_NE(optibar_plan_state(library_, unserved, 2, &state), OPTIBAR_OK);
  expect_error("plan_state never-served subset");

  EXPECT_NE(optibar_report_latency(nullptr, good, 4, 0, 1, 1e-6), OPTIBAR_OK);
  expect_error("report_latency null library");
  EXPECT_NE(optibar_report_latency(library_, good, 4, 0, 1, -1.0),
            OPTIBAR_OK);
  expect_error("report_latency negative seconds");
  EXPECT_NE(optibar_report_latency(library_, good, 4, 0, 1,
                                   std::numeric_limits<double>::quiet_NaN()),
            OPTIBAR_OK);
  expect_error("report_latency NaN seconds");
  EXPECT_NE(optibar_report_latency(library_, good, 4, 1, 1, 1e-6),
            OPTIBAR_OK);
  expect_error("report_latency src == dst");
  EXPECT_NE(optibar_report_latency(library_, good, 4, 0, 9, 1e-6),
            OPTIBAR_OK);
  expect_error("report_latency out-of-range dst");

  EXPECT_NE(optibar_report_success(nullptr, good, 4), OPTIBAR_OK);
  expect_error("report_success null library");
  EXPECT_NE(optibar_report_success(library_, unserved, 2), OPTIBAR_OK);
  expect_error("report_success never-served subset");
  EXPECT_NE(optibar_service_wait(nullptr), OPTIBAR_OK);
  expect_error("service_wait null library");

  EXPECT_NE(optibar_store_save(nullptr, store_.c_str()), OPTIBAR_OK);
  expect_error("store_save null library");
  EXPECT_NE(optibar_store_save(library_, nullptr), OPTIBAR_OK);
  expect_error("store_save null path");
  EXPECT_EQ(optibar_store_save(library_, "/nonexistent/dir/store.txt"),
            OPTIBAR_ERR_IO);
  expect_error("store_save unwritable path");
  EXPECT_NE(optibar_store_load(library_, nullptr), OPTIBAR_OK);
  expect_error("store_load null path");
  // library_ has cached plans by now, so the emptiness precondition
  // fires before the file is even opened.
  EXPECT_EQ(optibar_store_load(library_, "/nonexistent/store.txt"),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  expect_error("store_load non-empty library");
  optibar_library* empty = optibar_open_service(path_.c_str(), 1, 0);
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(optibar_store_load(empty, "/nonexistent/store.txt"),
            OPTIBAR_ERR_IO);
  expect_error("store_load missing file");
  optibar_close(empty);

  EXPECT_NE(optibar_tune_collective_v2(nullptr, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                       8, 0, nullptr, nullptr),
            OPTIBAR_OK);
  expect_error("tune_collective_v2 null library");
  EXPECT_NE(optibar_tune_hybrid_v2(nullptr, nullptr, nullptr, nullptr),
            OPTIBAR_OK);
  expect_error("tune_hybrid_v2 null library");
  EXPECT_EQ(optibar_ibarrier_post(nullptr), nullptr);
  expect_error("ibarrier_post null library");
  EXPECT_EQ(optibar_ibarrier_test(nullptr), -1);
  expect_error("ibarrier_test null episode");
  EXPECT_NE(optibar_ibarrier_wait(nullptr), OPTIBAR_OK);
  expect_error("ibarrier_wait null episode");
  EXPECT_EQ(optibar_icollective_post(nullptr, OPTIBAR_COLLECTIVE_ALLREDUCE,
                                     nullptr, 1, 0),
            nullptr);
  expect_error("icollective_post null library");
  EXPECT_EQ(optibar_icollective_test(nullptr), -1);
  expect_error("icollective_test null episode");
  EXPECT_NE(optibar_icollective_wait(nullptr), OPTIBAR_OK);
  expect_error("icollective_wait null episode");
}

TEST_F(CapiServiceTest, StoreLoadRejectsCorruptAndNonEmptyTargets) {
  const size_t subset[] = {0, 1, 2};
  ASSERT_NE(optibar_subset_plan_v2(library_, subset, 3), nullptr);
  ASSERT_EQ(optibar_store_save(library_, store_.c_str()), OPTIBAR_OK);

  // Loading into a library that already cached plans is a caller bug.
  EXPECT_EQ(optibar_store_load(library_, store_.c_str()),
            OPTIBAR_ERR_INVALID_ARGUMENT);
  EXPECT_GT(std::strlen(optibar_last_error()), 0u);

  // A corrupted store is an IO error, never a crash.
  {
    std::ofstream out(store_, std::ios::trunc);
    out << "optibar-plan-store v1\nranks 8\nentries 1\ngarbage\n";
  }
  optibar_library* fresh = optibar_open_service(path_.c_str(), 1, 0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(optibar_store_load(fresh, store_.c_str()), OPTIBAR_ERR_IO);
  EXPECT_GT(std::strlen(optibar_last_error()), 0u);
  // The failed load leaves the service usable.
  EXPECT_NE(optibar_subset_plan_v2(fresh, subset, 3), nullptr);
  optibar_close(fresh);
}

TEST_F(CapiServiceTest, AutoRepairServiceHealsThroughTheCApi) {
  optibar_library* service =
      optibar_open_service(path_.c_str(), 1, /*auto_repair=*/1);
  ASSERT_NE(service, nullptr);
  const size_t subset[] = {0, 1, 2, 3, 4, 5};
  ASSERT_NE(optibar_subset_plan_v2(service, subset, 6), nullptr);
  for (int i = 0; i < 3; ++i) {
    optibar_report_stall(service, subset, 6, "injected stall");
  }
  ASSERT_EQ(optibar_service_wait(service), OPTIBAR_OK);
  optibar_plan_state_t state = OPTIBAR_PLAN_DEGRADED;
  ASSERT_EQ(optibar_plan_state(service, subset, 6, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_PROBATION);
  // The repaired plan is served again (no degraded warning status).
  ASSERT_NE(optibar_subset_plan_v2(service, subset, 6), nullptr);
  EXPECT_EQ(optibar_last_status(), OPTIBAR_OK);
  EXPECT_EQ(optibar_report_success(service, subset, 6), OPTIBAR_OK);
  EXPECT_EQ(optibar_report_success(service, subset, 6), OPTIBAR_OK);
  ASSERT_EQ(optibar_plan_state(service, subset, 6, &state), OPTIBAR_OK);
  EXPECT_EQ(state, OPTIBAR_PLAN_HEALTHY);
  optibar_close(service);
}

}  // namespace
