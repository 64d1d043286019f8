#include "collective/predict.hpp"

#include <vector>

#include "util/error.hpp"

namespace optibar {

void compile_collective(const CollectiveSchedule& schedule,
                        const TopologyProfile& profile,
                        CompiledSchedule& compiled) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  std::vector<double> self_overhead(p);
  for (std::size_t i = 0; i < p; ++i) {
    self_overhead[i] = profile.o(i, i);
  }
  compiled.reserve(p, schedule.stage_count(), schedule.total_edges());
  compiled.start_edges(p, self_overhead);
  std::vector<CompiledEdge> edges;
  for (const CollectiveStage& stage : schedule.stages()) {
    edges.clear();
    for (const CollectiveEdge& e : stage) {
      const double bytes = static_cast<double>(schedule.edge_bytes(e));
      edges.push_back(CompiledEdge{
          e.src, e.dst, profile.l(e.src, e.dst) + bytes * profile.g(e.src, e.dst),
          profile.o(e.src, e.dst)});
    }
    compiled.append_stage(edges);
  }
}

Prediction predict_collective(const CollectiveSchedule& schedule,
                              const TopologyProfile& profile,
                              const PredictOptions& options) {
  CompiledSchedule compiled;
  compile_collective(schedule, profile, compiled);
  PredictWorkspace workspace;
  Prediction out;
  predict_into(compiled, options, workspace, out);
  return out;
}

double predicted_collective_time(const CollectiveSchedule& schedule,
                                 const TopologyProfile& profile,
                                 const PredictOptions& options) {
  return predict_collective(schedule, profile, options).critical_path;
}

}  // namespace optibar
