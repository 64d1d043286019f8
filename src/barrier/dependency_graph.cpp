#include "barrier/dependency_graph.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace optibar {

DependencyGraph::DependencyGraph(const Schedule& schedule,
                                 const TopologyProfile& profile,
                                 const PredictOptions& options) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p, "profile/schedule rank mismatch");
  OPTIBAR_REQUIRE(options.egress_resource_of.empty(),
                  "DependencyGraph does not model the egress-contention "
                  "term; use predict() for contended pricing");
  const std::size_t stages = schedule.stage_count();

  completion_.assign(stages + 1, std::vector<double>(p, 0.0));
  predecessor_.assign(stages + 1, std::vector<DepNode>(p));
  if (!options.entry_times.empty()) {
    OPTIBAR_REQUIRE(options.entry_times.size() == p, "entry_times size");
    completion_[0] = options.entry_times;
  }
  for (std::size_t i = 0; i < p; ++i) {
    predecessor_[0][i] = DepNode{i, 0};  // entry vertices are their own roots
  }

  for (std::size_t s = 0; s < stages; ++s) {
    const bool awaited =
        s < options.awaited_stages.size() && options.awaited_stages[s];
    // Local sequencing edge (i, s) -> (i, s+1), weight = i's batch cost.
    for (std::size_t i = 0; i < p; ++i) {
      const double w =
          step_cost(profile, i, schedule.targets_of(i, s), awaited);
      completion_[s + 1][i] = completion_[s][i] + w;
      predecessor_[s + 1][i] = DepNode{i, s};
    }
    // Signal edges (i, s) -> (j, s+1) for each target j of i.
    for (std::size_t i = 0; i < p; ++i) {
      const std::vector<std::size_t> targets = schedule.targets_of(i, s);
      if (targets.empty()) {
        continue;
      }
      const double batch_done =
          completion_[s][i] + step_cost(profile, i, targets, awaited);
      for (std::size_t j : targets) {
        if (batch_done > completion_[s + 1][j]) {
          completion_[s + 1][j] = batch_done;
          predecessor_[s + 1][j] = DepNode{i, s};
        }
      }
    }
    if (options.receiver_processing) {
      // Receiver-side serial completion processing (see cost_model.hpp);
      // added after predecessor selection so path extraction still names
      // the binding dependency.
      // Signals ascend by sender, so each receiver sums its sources in
      // ascending order.
      std::vector<double> processing(p, 0.0);
      for (const Signal& signal : schedule.stage(s)) {
        processing[signal.dst] += profile.l(signal.src, signal.dst);
      }
      for (std::size_t j = 0; j < p; ++j) {
        completion_[s + 1][j] += processing[j];
      }
    }
  }

  // Exit: the last rank to complete the final stage.
  const auto& last = completion_[stages];
  const std::size_t worst_rank = static_cast<std::size_t>(
      std::max_element(last.begin(), last.end()) - last.begin());
  const double start = *std::max_element(completion_[0].begin(),
                                         completion_[0].end());
  critical_cost_ = last[worst_rank] - start;

  // Walk predecessors back to the entry layer.
  DepNode node{worst_rank, stages};
  std::vector<DepNode> path{node};
  while (node.stage > 0) {
    node = predecessor_[node.stage][node.rank];
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  critical_nodes_ = std::move(path);
}

std::string DependencyGraph::describe_critical_path() const {
  std::ostringstream os;
  os << "critical path (" << critical_cost_ << " s):\n";
  for (const DepNode& node : critical_nodes_) {
    os << "  rank " << node.rank << " @ stage " << node.stage
       << " (t=" << completion_[node.stage][node.rank] << ")\n";
  }
  return os.str();
}

}  // namespace optibar
