#include "collective/executor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace optibar {

namespace {

simmpi::StagedExecutor::Table payload_edges(
    const CollectiveSchedule& schedule) {
  OPTIBAR_REQUIRE(is_valid_collective(schedule),
                  "refusing to execute a collective schedule whose dataflow "
                  "does not implement " << to_string(schedule.op()));
  simmpi::StagedExecutor::Table table(
      schedule.ranks(),
      std::vector<simmpi::StageEdges>(schedule.stage_count()));
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (const CollectiveEdge& e : schedule.stage(s)) {
      table[e.src][s].out.push_back(simmpi::StagedEdge{
          .peer = e.dst, .offset = e.offset, .count = e.count});
      table[e.dst][s].in.push_back(simmpi::StagedEdge{.peer = e.src,
                                                      .offset = e.offset,
                                                      .count = e.count,
                                                      .combine = e.combine});
    }
  }
  // Stage edges are sorted by (src, dst), so each rank's incoming edges
  // arrive in ascending src already; sort defensively to pin the
  // application order.
  for (std::vector<simmpi::StageEdges>& rank : table) {
    for (simmpi::StageEdges& edges : rank) {
      std::sort(edges.in.begin(), edges.in.end(),
                [](const simmpi::StagedEdge& a, const simmpi::StagedEdge& b) {
                  return a.peer < b.peer;
                });
    }
  }
  return table;
}

}  // namespace

CollectiveExecutor::CollectiveExecutor(const CollectiveSchedule& schedule,
                                       const simmpi::ExecutorOptions& options)
    : core_(payload_edges(schedule), schedule.stage_count(),
            schedule.elem_count(), options) {}

}  // namespace optibar
