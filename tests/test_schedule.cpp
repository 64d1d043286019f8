// Tests for Schedule: Eq. 3 knowledge recurrence, barrier detection,
// transforms, the embedding primitive of the hierarchical composer, and
// the sorted-signal stage contract.
#include "barrier/schedule.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "barrier/algorithms.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

Stage stage_with(std::initializer_list<std::pair<std::size_t, std::size_t>>
                     edges) {
  Stage m;
  for (const auto& [i, j] : edges) {
    m.push_back(Signal{static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
  }
  normalize_stage(m);
  return m;
}

TEST(Schedule, EmptyScheduleIsBarrierOnlyForOneRank) {
  EXPECT_TRUE(Schedule(1).is_barrier());
  EXPECT_FALSE(Schedule(2).is_barrier());
}

TEST(Schedule, RejectsSelfSignals) {
  Schedule s(2);
  EXPECT_THROW(s.append_stage(Stage{Signal{0, 0}}), Error);
}

TEST(Schedule, RejectsOutOfRangeSignals) {
  Schedule s(3);
  EXPECT_THROW(s.append_stage(Stage{Signal{0, 3}}), Error);
  EXPECT_THROW(s.append_stage(Stage{Signal{3, 0}}), Error);
}

TEST(Schedule, RejectsUnsortedOrDuplicateSignals) {
  Schedule s(3);
  EXPECT_THROW(s.append_stage(Stage{Signal{1, 0}, Signal{0, 1}}), Error);
  EXPECT_THROW(s.append_stage(Stage{Signal{0, 2}, Signal{0, 1}}), Error);
  EXPECT_THROW(s.append_stage(Stage{Signal{0, 1}, Signal{0, 1}}), Error);
  EXPECT_EQ(s.stage_count(), 0u);
}

TEST(Schedule, NormalizeSortsAndMergesTags) {
  Stage m{Signal{2, 0}, Signal{0, 2, true}, Signal{0, 1}, Signal{0, 2}};
  normalize_stage(m);
  EXPECT_EQ(m, (Stage{Signal{0, 1}, Signal{0, 2, true}, Signal{2, 0}}));
}

TEST(Schedule, OneSidedTagsRideOnSignals) {
  Schedule s(3);
  s.append_stage(stage_with({{0, 1}, {0, 2}, {2, 1}}));
  EXPECT_FALSE(s.has_one_sided());
  s.set_one_sided(0, 1, true);
  EXPECT_TRUE(s.one_sided(0, 0, 2));
  EXPECT_FALSE(s.one_sided(0, 0, 1));
  EXPECT_FALSE(s.one_sided(0, 1, 0));  // no such signal
  EXPECT_EQ(s.one_sided_signal_count(), 1u);
  s.set_all_one_sided(0, true);
  EXPECT_EQ(s.one_sided_signal_count(), 3u);
  s.set_all_one_sided(0, false);
  EXPECT_EQ(s, Schedule(3, {stage_with({{0, 1}, {0, 2}, {2, 1}})}));
  EXPECT_THROW(s.set_one_sided(0, 3, true), Error);
  EXPECT_THROW(s.set_one_sided(1, 0, true), Error);
}

TEST(Schedule, TargetsAndSourcesReadRowsAndColumns) {
  Schedule s(3);
  s.append_stage(stage_with({{0, 1}, {0, 2}, {2, 1}}));
  EXPECT_EQ(s.targets_of(0, 0), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(s.targets_of(1, 0), (std::vector<std::size_t>{}));
  EXPECT_EQ(s.sources_of(1, 0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(s.sources_of(0, 0), (std::vector<std::size_t>{}));
  EXPECT_TRUE(s.has_signal(0, 2, 1));
  EXPECT_FALSE(s.has_signal(0, 1, 2));
}

TEST(Schedule, KnowledgeRecurrenceMatchesEquation3ByHand) {
  // P=2 linear: S0 = {1->0}, S1 = {0->1}.
  Schedule s(2);
  s.append_stage(stage_with({{1, 0}}));
  // K0 = I + S0: rank 0 knows both arrivals, rank 1 only its own.
  const Knowledge k0 = s.knowledge_after(0);
  EXPECT_TRUE(k0(0, 0));
  EXPECT_TRUE(k0(1, 0));
  EXPECT_FALSE(k0(0, 1));
  EXPECT_TRUE(k0(1, 1));
  EXPECT_FALSE(s.is_barrier());
  s.append_stage(stage_with({{0, 1}}));
  EXPECT_TRUE(s.final_knowledge().complete());
  EXPECT_TRUE(s.is_barrier());
}

TEST(Schedule, OneDirectionOnlyIsNotABarrier) {
  Schedule s(2);
  s.append_stage(stage_with({{0, 1}}));
  EXPECT_FALSE(s.is_barrier());  // rank 0 never learns of rank 1's arrival
}

TEST(Schedule, KnowledgePropagatesTransitively) {
  // 0 -> 1 in stage 0, 1 -> 2 in stage 1: rank 2 must know rank 0.
  Schedule s(3);
  s.append_stage(stage_with({{0, 1}}));
  s.append_stage(stage_with({{1, 2}}));
  const Knowledge k = s.final_knowledge();
  EXPECT_TRUE(k(0, 2));
  EXPECT_TRUE(k(1, 2));
}

TEST(Schedule, KnowledgeReadsArePreStage) {
  // 0 -> 1 and 1 -> 2 in one stage: rank 2 learns only what rank 1 knew
  // before the stage, so rank 0's arrival does not reach it yet.
  Schedule s(3);
  s.append_stage(stage_with({{0, 1}, {1, 2}}));
  const Knowledge k = s.final_knowledge();
  EXPECT_TRUE(k(0, 1));
  EXPECT_TRUE(k(1, 2));
  EXPECT_FALSE(k(0, 2));
}

TEST(Schedule, OrderOfStagesMatters) {
  // The same two stages in the opposite order break transitivity.
  Schedule s(3);
  s.append_stage(stage_with({{1, 2}}));
  s.append_stage(stage_with({{0, 1}}));
  const Knowledge k = s.final_knowledge();
  EXPECT_FALSE(k(0, 2));
}

TEST(Schedule, TransposedReversedOfGatherIsBroadcast) {
  const Schedule arrival = tree_arrival(8);
  const Schedule departure = arrival.transposed_reversed();
  EXPECT_EQ(departure.stage_count(), arrival.stage_count());
  // First departure stage is the transpose of the last arrival stage.
  Stage transposed;
  for (const Signal& signal : arrival.stage(arrival.stage_count() - 1)) {
    transposed.push_back(Signal{signal.dst, signal.src});
  }
  normalize_stage(transposed);
  EXPECT_EQ(departure.stage(0), transposed);
  // Gather + broadcast = full barrier.
  EXPECT_TRUE(arrival.concatenated(departure).is_barrier());
}

TEST(Schedule, ConcatenateRequiresSameRankCount) {
  EXPECT_THROW(Schedule(2).concatenated(Schedule(3)), Error);
}

TEST(Schedule, CompactedDropsEmptyStagesOnly) {
  Schedule s(2);
  s.append_stage(stage_with({{1, 0}}));
  s.append_stage(Stage{});
  s.append_stage(stage_with({{0, 1}}));
  const Schedule c = s.compacted();
  EXPECT_EQ(c.stage_count(), 2u);
  EXPECT_TRUE(c.is_barrier());
  EXPECT_EQ(s.nonempty_stage_count(), 2u);
}

TEST(Schedule, TotalSignalsCounts) {
  const Schedule s = linear_barrier(5);
  // 4 arrival + 4 departure signals.
  EXPECT_EQ(s.total_signals(), 8u);
}

TEST(Schedule, PopStageUndoesAppend) {
  Schedule s(2);
  s.append_stage(stage_with({{1, 0}}));
  s.append_stage(stage_with({{0, 1}}));
  EXPECT_TRUE(s.is_barrier());
  s.pop_stage();
  EXPECT_EQ(s.stage_count(), 1u);
  EXPECT_FALSE(s.is_barrier());
  EXPECT_THROW(Schedule(2).pop_stage(), Error);
}

TEST(Schedule, EmbedMapsLocalRanksIntoGlobalSpace) {
  // A 2-rank exchange embedded over global ranks {3, 1} of a 5-rank
  // schedule, starting at stage 1.
  Schedule local(2);
  local.append_stage(stage_with({{0, 1}}));
  Schedule global(5);
  embed_schedule(global, local, {3, 1}, 1);
  EXPECT_EQ(global.stage_count(), 2u);
  EXPECT_TRUE(global.stage(0).empty());
  EXPECT_TRUE(global.has_signal(1, 3, 1));
  EXPECT_EQ(global.stage(1).size(), 1u);
}

TEST(Schedule, EmbedMergesWithExistingSignals) {
  Schedule global(4);
  global.append_stage(stage_with({{2, 3}, {3, 0}}));
  Schedule local(2);
  local.append_stage(stage_with({{0, 1}, {1, 0}}));
  local.set_one_sided(0, 0, true);
  embed_schedule(global, local, {2, 0}, 0);
  // Originals preserved, embedded signals merged into (src, dst) order,
  // and the put tag kept.
  EXPECT_EQ(global.stage(0),
            (Stage{Signal{0, 2}, Signal{2, 0, true}, Signal{2, 3},
                   Signal{3, 0}}));
}

TEST(Schedule, EmbedValidatesRankMap) {
  Schedule global(3);
  Schedule local(2);
  local.append_stage(stage_with({{0, 1}}));
  EXPECT_THROW(embed_schedule(global, local, {0}, 0), Error);      // arity
  EXPECT_THROW(embed_schedule(global, local, {0, 5}, 0), Error);   // range
  EXPECT_THROW(embed_schedule(global, local, {1, 1}, 0), Error);   // self
  EXPECT_EQ(global, Schedule(3));  // a refused embedding changes nothing
}

TEST(Schedule, StreamOutputMentionsShape) {
  std::ostringstream os;
  os << linear_barrier(3);
  EXPECT_NE(os.str().find("3 ranks"), std::string::npos);
  EXPECT_NE(os.str().find("2 stages"), std::string::npos);
  // One 3 x 3 cell block per stage: S0 gathers 1, 2 -> 0.
  EXPECT_NE(os.str().find("S0:\n0 0 0\n1 0 0\n1 0 0\n"), std::string::npos);
}

TEST(Schedule, CellWritersRefuseHugeSchedules) {
  std::ostringstream os;
  const Schedule big(kMaxDenseTextRanks + 1, {Stage{Signal{1, 0}}});
  EXPECT_THROW(write_stage_cells(os, big, 0, false), Error);
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace optibar
