// Tests for schedule serialisation.
#include "barrier/schedule_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "barrier/algorithms.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TEST(ScheduleIo, RoundTripsClassicBarrier) {
  StoredSchedule original;
  original.schedule = tree_barrier(12);
  std::stringstream ss;
  save_schedule(ss, original);
  const StoredSchedule loaded = load_schedule(ss);
  EXPECT_EQ(loaded.schedule, original.schedule);
  ASSERT_EQ(loaded.awaited_stages.size(), original.schedule.stage_count());
  for (bool flag : loaded.awaited_stages) {
    EXPECT_FALSE(flag);
  }
}

TEST(ScheduleIo, RoundTripsAwaitedFlags) {
  const MachineSpec m = quad_cluster();
  const TopologyProfile profile = generate_profile(m, 24);
  const TuneResult tuned = tune_barrier(profile);
  StoredSchedule original;
  original.schedule = tuned.schedule();
  original.awaited_stages = tuned.barrier().awaited_stages;
  std::stringstream ss;
  save_schedule(ss, original);
  const StoredSchedule loaded = load_schedule(ss);
  EXPECT_EQ(loaded.schedule, original.schedule);
  EXPECT_EQ(loaded.awaited_stages, original.awaited_stages);
  EXPECT_TRUE(loaded.schedule.is_barrier());
}

TEST(ScheduleIo, RoundTripsEmptySchedule) {
  StoredSchedule original;
  original.schedule = Schedule(3);
  std::stringstream ss;
  save_schedule(ss, original);
  const StoredSchedule loaded = load_schedule(ss);
  EXPECT_EQ(loaded.schedule.ranks(), 3u);
  EXPECT_EQ(loaded.schedule.stage_count(), 0u);
}

TEST(ScheduleIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "optibar_schedule.txt";
  StoredSchedule original;
  original.schedule = dissemination_barrier(9);
  save_schedule_file(path.string(), original);
  const StoredSchedule loaded = load_schedule_file(path.string());
  EXPECT_EQ(loaded.schedule, original.schedule);
  std::remove(path.string().c_str());
}

TEST(ScheduleIo, UntaggedSchedulesEmitV1Verbatim) {
  // The empty-RMA bit-identity contract: a schedule with no one-sided
  // edges must serialise exactly as a pre-RMA build would — v1 header,
  // no T matrices — so old readers and golden files keep working.
  StoredSchedule stored;
  stored.schedule = dissemination_barrier(4);
  std::stringstream ss;
  save_schedule(ss, stored);
  const std::string text = ss.str();
  EXPECT_NE(text.find("optibar-schedule v1\n"), std::string::npos);
  EXPECT_EQ(text.find("T0"), std::string::npos);
}

TEST(ScheduleIo, RoundTripsTransportTags) {
  StoredSchedule original;
  original.schedule = dissemination_barrier(6);
  // Mixed: stage 0 fully one-sided, stage 1 one edge, stage 2 none.
  original.schedule.set_all_one_sided(0, true);
  oracle::StageMatrix partial(6, 6, 0);
  bool tagged = false;
  for (std::size_t i = 0; i < 6 && !tagged; ++i) {
    for (std::size_t j = 0; j < 6 && !tagged; ++j) {
      if (original.schedule.has_signal(1, i, j)) {
        partial(i, j) = 1;  // exactly one edge
        tagged = true;
      }
    }
  }
  oracle::set_transport(original.schedule, 1, partial);
  std::stringstream ss;
  save_schedule(ss, original);
  EXPECT_NE(ss.str().find("optibar-schedule v2\n"), std::string::npos);
  const StoredSchedule loaded = load_schedule(ss);
  EXPECT_EQ(loaded.schedule, original.schedule);
  EXPECT_TRUE(loaded.schedule.has_one_sided());
  EXPECT_EQ(loaded.schedule.one_sided_signal_count(),
            original.schedule.one_sided_signal_count());
}

TEST(ScheduleIo, RejectsTransportEdgeWithoutSignal) {
  // A v2 transport cell without a matching stage signal is a
  // corrupted file, not a silently-ignored tag.
  std::stringstream ss(
      "optibar-schedule v2\nP 2\nstages 1\nawaited 0\n"
      "S0\n0 1\n0 0\nT0\n0 0\n1 0\n");
  EXPECT_THROW(load_schedule(ss), Error);
}

TEST(ScheduleIo, RejectsMalformedInput) {
  {
    std::stringstream ss("wrong-magic v1\n");
    EXPECT_THROW(load_schedule(ss), Error);
  }
  {
    std::stringstream ss("optibar-schedule v2\nP 2\n");
    EXPECT_THROW(load_schedule(ss), Error);
  }
  {
    // Awaited flag out of 0/1.
    std::stringstream ss(
        "optibar-schedule v1\nP 2\nstages 1\nawaited 7\nS0\n0 1\n0 0\n");
    EXPECT_THROW(load_schedule(ss), Error);
  }
  {
    // Stage cell out of 0/1.
    std::stringstream ss(
        "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n0 2\n0 0\n");
    EXPECT_THROW(load_schedule(ss), Error);
  }
  {
    // Self-signal rejected by Schedule validation.
    std::stringstream ss(
        "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n1 0\n0 0\n");
    EXPECT_THROW(load_schedule(ss), Error);
  }
}

TEST(ScheduleIo, RejectsMismatchedAwaitedArity) {
  StoredSchedule bad;
  bad.schedule = tree_barrier(4);
  bad.awaited_stages = {true};  // 4 stages, 1 flag
  std::stringstream ss;
  EXPECT_THROW(save_schedule(ss, bad), Error);
}

TEST(ScheduleIo, MissingFileThrows) {
  EXPECT_THROW(load_schedule_file("/nonexistent/schedule.txt"), Error);
}

}  // namespace
}  // namespace optibar
