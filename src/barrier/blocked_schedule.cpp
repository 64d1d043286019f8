#include "barrier/blocked_schedule.hpp"

#include "barrier/validate.hpp"

namespace optibar {

BlockedSchedule::BlockedSchedule(
    std::vector<std::vector<std::size_t>> clusters,
    std::vector<std::size_t> class_of, std::vector<Schedule> class_arrivals,
    Schedule leader_arrival, std::vector<std::size_t> leader_ranks,
    bool leader_self_completing)
    : clusters_(std::move(clusters)),
      class_of_(std::move(class_of)),
      class_arrivals_(std::move(class_arrivals)),
      leader_arrival_(std::move(leader_arrival)),
      leader_ranks_(std::move(leader_ranks)),
      leader_self_completing_(leader_self_completing) {
  const std::size_t c = clusters_.size();
  const std::size_t k = class_arrivals_.size();
  OPTIBAR_REQUIRE(c >= 2, "blocked schedule needs at least two clusters");
  OPTIBAR_REQUIRE(class_of_.size() == c && leader_ranks_.size() == c,
                  "cluster map sizes disagree");
  OPTIBAR_REQUIRE(leader_arrival_.ranks() == c,
                  "leader schedule is over " << leader_arrival_.ranks()
                                             << " ranks, expected " << c);
  std::size_t total = 0;
  for (std::size_t ci = 0; ci < c; ++ci) {
    OPTIBAR_REQUIRE(class_of_[ci] < k, "class id out of range");
    OPTIBAR_REQUIRE(!clusters_[ci].empty(), "empty cluster");
    OPTIBAR_REQUIRE(
        clusters_[ci].size() == class_arrivals_[class_of_[ci]].ranks(),
        "cluster " << ci << " size disagrees with its class schedule");
    bool leader_is_member = false;
    for (std::size_t rank : clusters_[ci]) {
      leader_is_member = leader_is_member || rank == leader_ranks_[ci];
      ++total;
    }
    OPTIBAR_REQUIRE(leader_is_member,
                    "leader of cluster " << ci << " is not one of its ranks");
  }
  ranks_ = total;
  // Partition check: every rank in exactly one cluster.
  std::vector<std::uint8_t> seen(ranks_, 0);
  for (const auto& members : clusters_) {
    for (std::size_t rank : members) {
      OPTIBAR_REQUIRE(rank < ranks_ && !seen[rank],
                      "clusters do not partition the rank space");
      seen[rank] = 1;
    }
  }

  // Global stage plan, mirroring compose_barrier(): all cluster blocks
  // start at stage 0, the leader block after the longest class
  // (merge-early), then the reversed transposed arrival with the leader
  // block omitted when self-completing, then compaction.
  leader_start_ = 0;
  for (const Schedule& arrival : class_arrivals_) {
    leader_start_ = std::max(leader_start_, arrival.stage_count());
  }
  const std::size_t arrival_total =
      leader_start_ + leader_arrival_.stage_count();
  const std::size_t departure_base =
      leader_self_completing_ ? leader_start_ : arrival_total;

  auto ref_at = [&](std::size_t a, bool transposed) {
    BlockedStageRef ref;
    ref.transposed = transposed;
    if (a < leader_start_) {
      ref.local_stage = a;
    } else {
      ref.leader_stage = a - leader_start_;
    }
    return ref;
  };
  std::vector<BlockedStageRef> uncompacted;
  uncompacted.reserve(arrival_total + departure_base);
  for (std::size_t a = 0; a < arrival_total; ++a) {
    uncompacted.push_back(ref_at(a, /*transposed=*/false));
  }
  for (std::size_t d = 0; d < departure_base; ++d) {
    uncompacted.push_back(ref_at(departure_base - 1 - d, /*transposed=*/true));
  }
  for (const BlockedStageRef& ref : uncompacted) {
    if (stage_is_empty(ref)) {
      continue;
    }
    stage_refs_.push_back(ref);
    // A departure stage carries the Eq. 2 awaited contract only when
    // acyclic (transposition preserves cycles, so the untransposed
    // block matrices are checked) — same demotion rule as the dense
    // composer.
    awaited_.push_back(ref.transposed && !stage_has_cycle_blocked(ref));
  }
  arrival_stages_ = 0;
  for (std::size_t s = 0; s < awaited_.size(); ++s) {
    if (!awaited_[s]) {
      arrival_stages_ = s + 1;
    }
  }
}

bool BlockedSchedule::stage_is_empty(const BlockedStageRef& ref) const {
  if (ref.local_stage != kNoBlockStage) {
    for (const Schedule& arrival : class_arrivals_) {
      if (ref.local_stage < arrival.stage_count() &&
          !arrival.stage(ref.local_stage).empty()) {
        return false;
      }
    }
  }
  return ref.leader_stage == kNoBlockStage ||
         leader_arrival_.stage(ref.leader_stage).empty();
}

bool BlockedSchedule::stage_has_cycle_blocked(
    const BlockedStageRef& ref) const {
  // Blocks of one global stage live on disjoint rank sets (the leader
  // block never shares a stage with local blocks — it starts after the
  // longest class), so a global cycle exists iff some block has one.
  if (ref.local_stage != kNoBlockStage) {
    for (const Schedule& arrival : class_arrivals_) {
      if (ref.local_stage < arrival.stage_count() &&
          stage_has_cycle(arrival.stage(ref.local_stage), arrival.ranks())) {
        return true;
      }
    }
  }
  return ref.leader_stage != kNoBlockStage &&
         stage_has_cycle(leader_arrival_.stage(ref.leader_stage),
                         leader_arrival_.ranks());
}

std::size_t BlockedSchedule::total_signals() const {
  std::size_t signals = 0;
  for (std::size_t s = 0; s < stage_count(); ++s) {
    for_each_edge(s, [&](std::size_t, std::size_t) { ++signals; });
  }
  return signals;
}

std::size_t BlockedSchedule::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& members : clusters_) {
    bytes += members.size() * sizeof(std::size_t);
  }
  bytes += class_of_.size() * sizeof(std::size_t);
  bytes += leader_ranks_.size() * sizeof(std::size_t);
  auto schedule_bytes = [](const Schedule& schedule) {
    return schedule.total_signals() * sizeof(Signal) +
           schedule.stage_count() * sizeof(Stage);
  };
  for (const Schedule& arrival : class_arrivals_) {
    bytes += schedule_bytes(arrival);
  }
  bytes += schedule_bytes(leader_arrival_);
  bytes += stage_refs_.size() * sizeof(BlockedStageRef);
  bytes += awaited_.size() / 8 + 1;
  return bytes;
}

Schedule BlockedSchedule::to_dense() const {
  Schedule flat(ranks_);
  for (std::size_t s = 0; s < stage_count(); ++s) {
    Stage stage;
    for_each_edge(s, [&](std::size_t src, std::size_t dst) {
      stage.push_back(Signal{static_cast<std::uint32_t>(src),
                             static_cast<std::uint32_t>(dst)});
    });
    normalize_stage(stage);
    flat.append_stage(std::move(stage));
  }
  return flat;
}

}  // namespace optibar
