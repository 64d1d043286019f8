// Fuzz-style hardening tests for the disk parsers: every truncation of
// a valid artefact, oversized and overflowing header counts, and
// malformed payload values must raise IoError — never crash, hang, or
// return a half-parsed object.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "format_fixtures.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using fixtures::last_token_start;
using fixtures::saved_collective_text;
using fixtures::saved_plan_store_text;
using fixtures::saved_profile_text;
using fixtures::saved_schedule_text;
using fixtures::saved_tiled_profile_text;

TEST(FormatHardening, EveryScheduleTruncationThrows) {
  const std::string text = saved_schedule_text();
  {
    std::istringstream full(text);
    EXPECT_NO_THROW(load_schedule(full));
  }
  for (std::size_t len = 0; len <= last_token_start(text); ++len) {
    std::istringstream is(text.substr(0, len));
    EXPECT_THROW(load_schedule(is), IoError) << "prefix length " << len;
  }
}

TEST(FormatHardening, EveryCollectiveTruncationThrows) {
  const std::string text = saved_collective_text();
  {
    std::istringstream full(text);
    EXPECT_NO_THROW(load_collective(full));
  }
  for (std::size_t len = 0; len <= last_token_start(text); ++len) {
    std::istringstream is(text.substr(0, len));
    EXPECT_THROW(load_collective(is), IoError) << "prefix length " << len;
  }
}

TEST(FormatHardening, EveryProfileTruncationThrows) {
  const std::string text = saved_profile_text();
  {
    std::istringstream full(text);
    EXPECT_NO_THROW(TopologyProfile::load(full));
  }
  for (std::size_t len = 0; len <= last_token_start(text); ++len) {
    std::istringstream is(text.substr(0, len));
    EXPECT_THROW(TopologyProfile::load(is), IoError)
        << "prefix length " << len;
  }
}

TEST(FormatHardening, EveryTiledProfileTruncationThrows) {
  const std::string text = saved_tiled_profile_text();
  {
    std::istringstream full(text);
    EXPECT_NO_THROW(TiledProfile::load(full));
  }
  for (std::size_t len = 0; len <= last_token_start(text); ++len) {
    std::istringstream is(text.substr(0, len));
    EXPECT_THROW(TiledProfile::load(is), IoError) << "prefix length " << len;
  }
}

TEST(FormatHardening, EveryPlanStoreTruncationThrows) {
  const std::string text = saved_plan_store_text();
  {
    std::istringstream full(text);
    std::vector<PlanStoreRecord> records;
    EXPECT_NO_THROW(records = load_plan_store(full, 8));
    ASSERT_EQ(records.size(), 2u);
    // The escaped multi-line reason survives the round trip exactly.
    EXPECT_EQ(records[1].reason,
              "stalled after stage 0\npending edge 1 -> 2\\retry");
  }
  for (std::size_t len = 0; len <= last_token_start(text); ++len) {
    std::istringstream is(text.substr(0, len));
    EXPECT_THROW(load_plan_store(is, 8), IoError) << "prefix length " << len;
  }
}

TEST(FormatHardening, PlanStoreRejectsBadHeaderAndRecordValues) {
  const std::string text = saved_plan_store_text();
  const auto rejects = [&](const std::string& from, const std::string& to) {
    std::string tampered = text;
    const auto pos = tampered.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    tampered.replace(pos, from.size(), to);
    std::istringstream is(tampered);
    EXPECT_THROW(load_plan_store(is, 8), IoError) << from << " -> " << to;
  };
  rejects("optibar-plan-store v1", "optibar-plan-store v2");
  rejects("optibar-plan-store", "optibar-plan-shop");
  rejects("ranks 8", "ranks 12");          // profile mismatch
  rejects("ranks 8", "ranks 9999999999");  // over the cap
  rejects("entries 2", "entries 100001");  // over the cap
  rejects("entries 2", "entries -1");
  rejects("subset 4 0 1 2 3", "subset 4 0 1 2 99");  // out of range
  rejects("subset 4 0 1 2 3", "subset 4 0 1 2 2");   // duplicate rank
  rejects("state quarantined", "state wounded");
  rejects("state quarantined", "state retuning");  // never persisted
  rejects("failures 3", "failures many");
  rejects("predicted 1.5e-06", "predicted nan");
  rejects("predicted 1.5e-06", "predicted -1");
  // Subsets must be unique across records.
  rejects("subset 3 1 4 6", "subset 4 0 1 2 3");
}

TEST(FormatHardening, ScheduleRejectsBadMagicAndVersion) {
  std::istringstream wrong_magic("optibar-profile v1\nP 2\n");
  EXPECT_THROW(load_schedule(wrong_magic), IoError);
  std::istringstream wrong_version("optibar-schedule v9\nP 2\n");
  EXPECT_THROW(load_schedule(wrong_version), IoError);
}

TEST(FormatHardening, ScheduleRejectsOversizedCounts) {
  // A lying header must fail before it drives any allocation.
  std::istringstream huge_p("optibar-schedule v1\nP 100000\nstages 1\n");
  EXPECT_THROW(load_schedule(huge_p), IoError);
  std::istringstream huge_stages(
      "optibar-schedule v1\nP 2\nstages 99999999\nawaited");
  EXPECT_THROW(load_schedule(huge_stages), IoError);
  // Negative counts wrap to huge values in an unsigned read; the cap
  // must catch them too.
  std::istringstream negative_p("optibar-schedule v1\nP -3\nstages 0\n");
  EXPECT_THROW(load_schedule(negative_p), IoError);
}

TEST(FormatHardening, ScheduleRejectsNonBinaryPayload) {
  std::istringstream bad_flag(
      "optibar-schedule v1\nP 2\nstages 1\nawaited 2\nS0\n0 1\n1 0\n");
  EXPECT_THROW(load_schedule(bad_flag), IoError);
  std::istringstream bad_cell(
      "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n0 7\n1 0\n");
  EXPECT_THROW(load_schedule(bad_cell), IoError);
}

TEST(FormatHardening, CollectiveRejectsOversizedCounts) {
  std::istringstream huge_p(
      "optibar-collective v1\nop bcast\nP 100000\nroot 0\n");
  EXPECT_THROW(load_collective(huge_p), IoError);
  std::istringstream huge_bytes(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 70000\n");
  EXPECT_THROW(load_collective(huge_bytes), IoError);
  // 2^61 elements x 16 bytes overflows size_t.
  std::istringstream overflow(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\n"
      "elems 2305843009213693952 16\n");
  EXPECT_THROW(load_collective(overflow), IoError);
  std::istringstream huge_stage(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
      "stages 1\nS0 5\n");
  EXPECT_THROW(load_collective(huge_stage), IoError);
}

TEST(FormatHardening, CollectiveRejectsBadHeaderValues) {
  std::istringstream bad_op(
      "optibar-collective v1\nop gather\nP 2\nroot 0\n");
  EXPECT_THROW(load_collective(bad_op), IoError);
  std::istringstream bad_root(
      "optibar-collective v1\nop bcast\nP 2\nroot 5\n");
  EXPECT_THROW(load_collective(bad_root), IoError);
  std::istringstream zero_bytes(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 4 0\n");
  EXPECT_THROW(load_collective(zero_bytes), IoError);
}

TEST(FormatHardening, CollectiveRejectsInvalidStagePayload) {
  std::istringstream bad_combine(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
      "stages 1\nS0 1\n0 1 0 1 2\n");
  EXPECT_THROW(load_collective(bad_combine), IoError);
  // A self edge is semantically invalid — the stage validator's
  // rejection must surface as a parse error, not a caller bug.
  std::istringstream self_edge(
      "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
      "stages 1\nS0 1\n0 0 0 1 0\n");
  EXPECT_THROW(load_collective(self_edge), IoError);
}

TEST(FormatHardening, PreRmaScheduleFixtureStillLoads) {
  // Byte-for-byte what a pre-RMA build wrote for a 2-rank one-stage
  // fan-in (acyclic, so the awaited flag passes the deadlock gate).
  // The v2 transport bump must never orphan these files: they load
  // with every edge defaulting to two-sided.
  std::istringstream fixture(
      "optibar-schedule v1\n"
      "P 2\n"
      "stages 1\n"
      "awaited 1\n"
      "S0\n"
      "0 1\n"
      "0 0\n");
  const StoredSchedule loaded = load_schedule(fixture);
  EXPECT_EQ(loaded.schedule.ranks(), 2u);
  ASSERT_EQ(loaded.awaited_stages.size(), 1u);
  EXPECT_TRUE(loaded.awaited_stages[0]);
  EXPECT_FALSE(loaded.schedule.has_one_sided());
  EXPECT_EQ(loaded.schedule.one_sided_signal_count(), 0u);
}

TEST(FormatHardening, PreRmaProfileFixturesStillLoad) {
  // v1 (O/L) and v2 (O/L/G) profiles predate the R matrix; both load
  // with r(i, j) falling back to the conservative two-sided L(i, j).
  std::istringstream v1(
      "optibar-profile v1\n"
      "P 2\n"
      "O\n"
      "1e-06 2e-06\n"
      "2e-06 1e-06\n"
      "L\n"
      "0 3e-07\n"
      "3e-07 0\n");
  const TopologyProfile p1 = TopologyProfile::load(v1);
  EXPECT_FALSE(p1.has_rma_latency());
  EXPECT_DOUBLE_EQ(p1.r(0, 1), 3e-7);

  std::istringstream v2(
      "optibar-profile v2\n"
      "P 2\n"
      "O\n"
      "1e-06 2e-06\n"
      "2e-06 1e-06\n"
      "L\n"
      "0 3e-07\n"
      "3e-07 0\n"
      "G\n"
      "0 1e-10\n"
      "1e-10 0\n");
  const TopologyProfile p2 = TopologyProfile::load(v2);
  EXPECT_FALSE(p2.has_rma_latency());
  EXPECT_DOUBLE_EQ(p2.r(1, 0), p2.l(1, 0));
}

TEST(FormatHardening, PreTiledProfileFixtureStillLoadsAndSavesDense) {
  // Byte-for-byte what a pre-tiled (pre-v4) build wrote for a 2-rank
  // v3 profile. The v4 bump must never orphan these files, and a dense
  // TopologyProfile must keep emitting the pre-bump header so golden
  // dense artefacts stay byte-identical.
  std::istringstream v3(
      "optibar-profile v3\n"
      "P 2\n"
      "O\n"
      "1e-06 2e-06\n"
      "2e-06 1e-06\n"
      "L\n"
      "0 3e-07\n"
      "3e-07 0\n"
      "R\n"
      "0 1.5e-06\n"
      "1.5e-06 0\n");
  const TopologyProfile p3 = TopologyProfile::load(v3);
  EXPECT_TRUE(p3.has_rma_latency());
  EXPECT_FALSE(p3.has_bandwidth());
  EXPECT_DOUBLE_EQ(p3.r(0, 1), 1.5e-6);

  EXPECT_EQ(saved_profile_text().rfind("optibar-profile v4", 0),
            std::string::npos);
}

TEST(FormatHardening, TiledAndDenseProfileLoadersRejectEachOther) {
  // Version sniffing must fail loudly in both directions: the dense
  // loader names v4 so the CLI can point at `tune --hierarchical`, and
  // the tiled loader refuses dense headers instead of misparsing them.
  std::istringstream v4(saved_tiled_profile_text());
  try {
    TopologyProfile::load(v4);
    FAIL() << "dense loader accepted a v4 tiled profile";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("v4"), std::string::npos);
  }
  std::istringstream dense(saved_profile_text());
  EXPECT_THROW(TiledProfile::load(dense), IoError);
}

TEST(FormatHardening, ProfileRejectsOversizedAndNonFiniteValues) {
  std::istringstream huge_p("optibar-profile v1\nP 100000\nO\n");
  EXPECT_THROW(TopologyProfile::load(huge_p), IoError);
  // Values that overflow double (or spell inf/nan) must not pass the
  // finiteness gate and poison every downstream cost.
  std::istringstream overflow("optibar-profile v1\nP 1\nO\n1e999\nL\n0\n");
  EXPECT_THROW(TopologyProfile::load(overflow), IoError);
  std::istringstream inf_text("optibar-profile v1\nP 1\nO\ninf\nL\n0\n");
  EXPECT_THROW(TopologyProfile::load(inf_text), IoError);
  std::istringstream nan_text("optibar-profile v1\nP 1\nO\nnan\nL\n0\n");
  EXPECT_THROW(TopologyProfile::load(nan_text), IoError);
}

TEST(FormatHardening, MissingFilesRaiseIoError) {
  const std::string missing = "/nonexistent/optibar/artefact";
  EXPECT_THROW(load_schedule_file(missing), IoError);
  EXPECT_THROW(load_collective_file(missing), IoError);
  EXPECT_THROW(TopologyProfile::load_file(missing), IoError);
}

TEST(FormatHardening, IoErrorIsAnError) {
  // The CLI distinguishes parse failures (exit 3) from engine errors
  // (exit 1), but callers catching plain Error still see IoError.
  std::istringstream is("garbage");
  EXPECT_THROW(load_schedule(is), Error);
}

}  // namespace
}  // namespace optibar
