#include "simmpi/executor.hpp"

#include "util/error.hpp"

namespace optibar::simmpi {

namespace {

StagedExecutor::Table signal_edges(const Schedule& schedule) {
  OPTIBAR_REQUIRE(schedule.is_barrier(),
                  "refusing to execute a signal pattern that is not a "
                  "barrier (Eq. 3 check failed)");
  const std::size_t p = schedule.ranks();
  const std::size_t stages = schedule.stage_count();
  StagedExecutor::Table table(p, std::vector<StageEdges>(stages));
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < stages; ++s) {
      // Signals carry no words; the transport tag picks issend/irecv
      // (untagged) or put/flag (one-sided).
      for (std::size_t dst : schedule.targets_of(r, s)) {
        table[r][s].out.push_back(
            StagedEdge{.peer = dst, .put = schedule.one_sided(s, r, dst)});
      }
      for (std::size_t src : schedule.sources_of(r, s)) {
        table[r][s].in.push_back(
            StagedEdge{.peer = src, .put = schedule.one_sided(s, src, r)});
      }
    }
  }
  return table;
}

}  // namespace

ScheduleExecutor::ScheduleExecutor(const Schedule& schedule,
                                   const ExecutorOptions& options)
    : core_(signal_edges(schedule), schedule.stage_count(),
            /*elem_count=*/0, options) {}

}  // namespace optibar::simmpi
