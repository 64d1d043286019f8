#include "barrier/optimize.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "barrier/compiled_schedule.hpp"
#include "util/error.hpp"

namespace optibar {

namespace {

/// Rebuild a Schedule from mutable stages, dropping empty stages (a
/// pass can empty a stage entirely).
Schedule rebuild(std::size_t ranks, const std::vector<Stage>& stages) {
  Schedule out(ranks);
  for (const Stage& stage : stages) {
    if (!stage.empty()) {
      out.append_stage(stage);
    }
  }
  return out;
}

/// The schedule's stages with every transport tag dropped: the passes
/// rewrite signal patterns and return two-sided schedules.
std::vector<Stage> untagged_stages(const Schedule& schedule) {
  std::vector<Stage> stages = schedule.stages();
  for (Stage& stage : stages) {
    for (Signal& signal : stage) {
      signal.one_sided = false;
    }
  }
  return stages;
}

}  // namespace

OptimizeResult prune_redundant_signals(const Schedule& schedule,
                                       const TopologyProfile& profile) {
  OPTIBAR_REQUIRE(schedule.is_barrier(),
                  "prune_redundant_signals expects a valid barrier");
  OPTIBAR_REQUIRE(profile.ranks() == schedule.ranks(),
                  "profile/schedule rank mismatch");

  OptimizeResult result;
  result.cost_before = predicted_time(schedule, profile);

  // Candidate signals, most expensive first (sender-side O + L).
  struct Candidate {
    double cost;
    std::size_t stage;
    std::size_t src;
    std::size_t dst;
  };
  std::vector<Candidate> candidates;
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (const Signal& signal : schedule.stage(s)) {
      candidates.push_back(Candidate{
          profile.o(signal.src, signal.dst) + profile.l(signal.src, signal.dst),
          s, signal.src, signal.dst});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(b.cost, a.stage, a.src, a.dst) <
                     std::tie(a.cost, b.stage, b.src, b.dst);
            });

  std::vector<Stage> stages = untagged_stages(schedule);
  for (const Candidate& candidate : candidates) {
    Stage& stage = stages[candidate.stage];
    const auto at = std::find_if(stage.begin(), stage.end(),
                                 [&](const Signal& signal) {
                                   return signal.src == candidate.src &&
                                          signal.dst == candidate.dst;
                                 });
    const Signal removed = *at;
    const auto index = stage.erase(at) - stage.begin();
    if (Schedule(schedule.ranks(), stages).is_barrier()) {
      ++result.signals_removed;
    } else {
      stage.insert(stage.begin() + index, removed);  // keep it
    }
  }

  result.schedule = rebuild(schedule.ranks(), stages);
  result.cost_after = predicted_time(result.schedule, profile);
  OPTIBAR_ASSERT(result.schedule.is_barrier(), "pruning broke the barrier");
  return result;
}

OptimizeResult fuse_stages(const Schedule& schedule,
                           const TopologyProfile& profile) {
  OPTIBAR_REQUIRE(schedule.is_barrier(),
                  "fuse_stages expects a valid barrier");
  OPTIBAR_REQUIRE(profile.ranks() == schedule.ranks(),
                  "profile/schedule rank mismatch");

  OptimizeResult result;
  result.cost_before = predicted_time(schedule, profile);

  std::vector<Stage> stages = untagged_stages(schedule);
  double current_cost = result.cost_before;
  std::size_t s = 0;
  // Candidate pricing dominates the fusion loop; keep one compiled
  // kernel and workspace warm across all candidates.
  CompiledSchedule compiled;
  PredictWorkspace workspace;
  while (s + 1 < stages.size()) {
    // Candidate: merge stage s into s+1 (the union gains no
    // self-signals because neither operand has any).
    std::vector<Stage> fused(stages);
    fused[s + 1].insert(fused[s + 1].end(), fused[s].begin(), fused[s].end());
    normalize_stage(fused[s + 1]);
    fused.erase(fused.begin() + static_cast<std::ptrdiff_t>(s));
    const Schedule candidate = rebuild(schedule.ranks(), fused);
    if (candidate.is_barrier()) {
      compiled.compile(candidate, profile);
      const double cost = predicted_time(compiled, {}, workspace);
      if (cost <= current_cost) {
        stages = std::move(fused);
        current_cost = cost;
        ++result.stages_fused;
        continue;  // retry the same index against the next stage
      }
    }
    ++s;
  }

  result.schedule = rebuild(schedule.ranks(), stages);
  result.cost_after = current_cost;
  OPTIBAR_ASSERT(result.schedule.is_barrier(), "fusion broke the barrier");
  return result;
}

OptimizeResult optimize_schedule(const Schedule& schedule,
                                 const TopologyProfile& profile) {
  OptimizeResult total;
  total.schedule = schedule;
  total.cost_before = predicted_time(schedule, profile);
  total.cost_after = total.cost_before;
  for (;;) {
    const OptimizeResult pruned =
        prune_redundant_signals(total.schedule, profile);
    const OptimizeResult fused = fuse_stages(pruned.schedule, profile);
    total.signals_removed += pruned.signals_removed;
    total.stages_fused += fused.stages_fused;
    const bool changed =
        pruned.signals_removed > 0 || fused.stages_fused > 0;
    total.schedule = fused.schedule;
    total.cost_after = fused.cost_after;
    if (!changed) {
      return total;
    }
  }
}

}  // namespace optibar
