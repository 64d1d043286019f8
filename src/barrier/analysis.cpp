#include "barrier/analysis.hpp"

#include <algorithm>
#include <sstream>

#include "barrier/dependency_graph.hpp"
#include "util/error.hpp"

namespace optibar {

std::size_t& LinkUsage::at(LinkLevel level) {
  switch (level) {
    case LinkLevel::kSharedCache:
      return shared_cache;
    case LinkLevel::kSameChip:
      return same_chip;
    case LinkLevel::kCrossSocket:
      return cross_socket;
    case LinkLevel::kInterNode:
      return inter_node;
    case LinkLevel::kSelf:
      break;
  }
  OPTIBAR_FAIL("LinkUsage::at(kSelf): schedules carry no self-signals");
}

std::size_t LinkUsage::at(LinkLevel level) const {
  return const_cast<LinkUsage*>(this)->at(level);
}

LinkUsage link_usage(const Schedule& schedule, const MachineSpec& machine,
                     const Mapping& mapping) {
  OPTIBAR_REQUIRE(mapping.size() == schedule.ranks(),
                  "mapping covers " << mapping.size() << " ranks, schedule "
                                    << schedule.ranks());
  LinkUsage usage;
  for (const Stage& stage : schedule.stages()) {
    for (const Signal& signal : stage) {
      ++usage.at(machine.link_level(mapping.core_of(signal.src),
                                    mapping.core_of(signal.dst)));
    }
  }
  return usage;
}

namespace {

StageProfile profile_one_stage(const Schedule& schedule, std::size_t s,
                               const MachineSpec* machine,
                               const Mapping* mapping) {
  StageProfile out;
  const Stage& stage = schedule.stage(s);
  std::vector<std::size_t> fan_out(schedule.ranks(), 0);
  std::vector<std::size_t> fan_in(schedule.ranks(), 0);
  out.signals = stage.size();
  for (const Signal& signal : stage) {
    ++fan_out[signal.src];
    ++fan_in[signal.dst];
    if (machine != nullptr &&
        machine->link_level(mapping->core_of(signal.src),
                            mapping->core_of(signal.dst)) ==
            LinkLevel::kInterNode) {
      ++out.inter_node_signals;
    }
  }
  for (std::size_t i = 0; i < schedule.ranks(); ++i) {
    out.max_fan_out = std::max(out.max_fan_out, fan_out[i]);
    out.max_fan_in = std::max(out.max_fan_in, fan_in[i]);
    if (fan_in[i] > 0 || fan_out[i] > 0) {
      ++out.active_ranks;
    }
  }
  return out;
}

}  // namespace

std::vector<StageProfile> stage_profiles(const Schedule& schedule) {
  std::vector<StageProfile> out;
  out.reserve(schedule.stage_count());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    out.push_back(profile_one_stage(schedule, s, nullptr, nullptr));
  }
  return out;
}

std::vector<StageProfile> stage_profiles(const Schedule& schedule,
                                         const MachineSpec& machine,
                                         const Mapping& mapping) {
  OPTIBAR_REQUIRE(mapping.size() == schedule.ranks(),
                  "mapping/schedule rank mismatch");
  std::vector<StageProfile> out;
  out.reserve(schedule.stage_count());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    out.push_back(profile_one_stage(schedule, s, &machine, &mapping));
  }
  return out;
}

CriticalPathBreakdown critical_path_breakdown(const Schedule& schedule,
                                              const TopologyProfile& profile,
                                              const MachineSpec& machine,
                                              const Mapping& mapping,
                                              const PredictOptions& options) {
  OPTIBAR_REQUIRE(mapping.size() == schedule.ranks(),
                  "mapping/schedule rank mismatch");
  const DependencyGraph graph(schedule, profile, options);
  const auto& path = graph.critical_path();
  const auto& times = graph.completion_times();

  CriticalPathBreakdown out;
  auto book = [&out](LinkLevel level, double amount) {
    switch (level) {
      case LinkLevel::kSharedCache:
        out.shared_cache += amount;
        return;
      case LinkLevel::kSameChip:
        out.same_chip += amount;
        return;
      case LinkLevel::kCrossSocket:
        out.cross_socket += amount;
        return;
      case LinkLevel::kInterNode:
        out.inter_node += amount;
        return;
      case LinkLevel::kSelf:
        out.self_overhead += amount;
        return;
    }
    OPTIBAR_FAIL("unknown LinkLevel");
  };

  for (std::size_t i = 1; i < path.size(); ++i) {
    const DepNode& from = path[i - 1];
    const DepNode& to = path[i];
    const double increment =
        times[to.stage][to.rank] - times[from.stage][from.rank];
    if (increment <= 0.0) {
      continue;
    }
    if (from.rank != to.rank) {
      // A signal edge: book the whole increment to the link it crossed.
      book(machine.link_level(mapping.core_of(from.rank),
                              mapping.core_of(to.rank)),
           increment);
      continue;
    }
    // Local sequencing: book to the slowest tier of the rank's own
    // outgoing batch (or pure self overhead for receive-only stages).
    const std::vector<std::size_t> targets =
        schedule.targets_of(from.rank, from.stage);
    LinkLevel worst = LinkLevel::kSelf;
    for (std::size_t j : targets) {
      const LinkLevel level =
          machine.link_level(mapping.core_of(from.rank), mapping.core_of(j));
      if (static_cast<int>(level) > static_cast<int>(worst)) {
        worst = level;
      }
    }
    book(worst, increment);
  }
  out.total = out.shared_cache + out.same_chip + out.cross_socket +
              out.inter_node + out.self_overhead;
  return out;
}

LinkUsage link_usage(const Schedule& schedule, const CustomMachine& machine) {
  OPTIBAR_REQUIRE(schedule.ranks() <= machine.total_cores(),
                  "schedule has more ranks than the machine has cores");
  LinkUsage usage;
  for (const Stage& stage : schedule.stages()) {
    for (const Signal& signal : stage) {
      ++usage.at(machine.link_level(signal.src, signal.dst));
    }
  }
  return usage;
}

namespace {

std::string usage_report(const LinkUsage& usage,
                         const std::vector<StageProfile>& stages) {
  std::ostringstream os;
  os << "signals by tier: shared-cache " << usage.shared_cache
     << ", same-chip " << usage.same_chip << ", cross-socket "
     << usage.cross_socket << ", inter-node " << usage.inter_node << " (total "
     << usage.total() << ")\n";
  for (std::size_t s = 0; s < stages.size(); ++s) {
    os << "stage " << s << ": " << stages[s].signals << " signals ("
       << stages[s].inter_node_signals << " inter-node), fan-out<="
       << stages[s].max_fan_out << ", fan-in<=" << stages[s].max_fan_in
       << ", " << stages[s].active_ranks << " active ranks\n";
  }
  return os.str();
}

}  // namespace

std::string describe_usage(const Schedule& schedule,
                           const CustomMachine& machine) {
  const LinkUsage usage = link_usage(schedule, machine);
  // Per-stage tier detail needs a MachineSpec mapping; report structure
  // only, with the inter-node count folded in per stage.
  auto stages = stage_profiles(schedule);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (const Signal& signal : schedule.stage(s)) {
      if (machine.link_level(signal.src, signal.dst) ==
          LinkLevel::kInterNode) {
        ++stages[s].inter_node_signals;
      }
    }
  }
  return usage_report(usage, stages);
}

std::string describe_usage(const Schedule& schedule,
                           const MachineSpec& machine, const Mapping& mapping) {
  const LinkUsage usage = link_usage(schedule, machine, mapping);
  const auto stages = stage_profiles(schedule, machine, mapping);
  return usage_report(usage, stages);
}

}  // namespace optibar
