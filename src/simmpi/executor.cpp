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
  for (std::size_t s = 0; s < stages; ++s) {
    // Signals carry no words; the transport tag picks issend/irecv
    // (two-sided) or put/flag (one-sided). The signals ascend by (src,
    // dst), so each rank's outgoing list ascends by target and its
    // incoming list by source, the apply order the core requires.
    for (const Signal& signal : schedule.stage(s)) {
      table[signal.src][s].out.push_back(
          StagedEdge{.peer = signal.dst, .put = signal.one_sided});
      table[signal.dst][s].in.push_back(
          StagedEdge{.peer = signal.src, .put = signal.one_sided});
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
