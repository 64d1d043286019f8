#include "rma/transport.hpp"

#include <cstdint>

#include "barrier/compiled_schedule.hpp"
#include "util/error.hpp"

namespace optibar::rma {

const char* transport_name(Transport transport) {
  switch (transport) {
    case Transport::kTwoSided:
      return "two-sided";
    case Transport::kOneSided:
      return "one-sided";
    case Transport::kHybrid:
      return "hybrid";
  }
  OPTIBAR_FAIL("unknown transport policy");
}

Transport parse_transport(const std::string& name) {
  if (name == "two-sided") {
    return Transport::kTwoSided;
  }
  if (name == "one-sided") {
    return Transport::kOneSided;
  }
  if (name == "hybrid") {
    return Transport::kHybrid;
  }
  OPTIBAR_FAIL("unknown transport '" << name
                                     << "' (two-sided, one-sided, hybrid)");
}

namespace {

// Bounded greedy descent: one pass flips every signal edge once, in
// deterministic (stage, src, dst) scan order, keeping strict
// improvements. A second pass only runs if the first changed
// something; the cap bounds worst-case work without affecting the
// presets (they converge in <= 2 passes).
constexpr int kMaxHybridPasses = 3;

}  // namespace

double assign_transports(Schedule& schedule, const TopologyProfile& profile,
                         const std::vector<bool>& awaited_stages,
                         Transport policy) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  PredictOptions options;
  options.awaited_stages = awaited_stages;
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    schedule.set_all_one_sided(s, policy == Transport::kOneSided);
  }
  if (policy != Transport::kHybrid) {
    return predicted_time(schedule, profile, options);
  }

  // Hybrid: compile the untagged schedule once. From here on the tags
  // live in the compiled CSR; a candidate flip is one set_one_sided()
  // patch plus one compiled evaluation, bit-identical to recompiling
  // the re-tagged schedule, so every accept/reject decision — and the
  // final tagging — is what a per-flip recompile would produce.
  CompiledSchedule compiled(schedule, profile);
  PredictWorkspace workspace;
  const auto cost = [&] {
    return predicted_time(compiled, options, workspace);
  };
  // Every edge in (stage, src, dst) order: a stage's rows ascend by
  // rank and each row's targets() ascend.
  const auto for_each_edge = [&](const auto& visit) {
    for (std::size_t s = 0; s < compiled.stage_count(); ++s) {
      for (std::size_t r = compiled.row_begin(s); r < compiled.row_end(s);
           ++r) {
        for (std::size_t k = 0; k < compiled.targets(r).size(); ++k) {
          visit(s, compiled.row_rank(r), k);
        }
      }
    }
  };
  const auto is_put = [&](std::size_t s, std::size_t i, std::size_t k) {
    return compiled.target_one_sided(compiled.row(i, s))[k] != 0;
  };
  const auto flip = [&](std::size_t s, std::size_t i, std::size_t k) {
    compiled.set_one_sided(s, i, k, !is_put(s, i, k), profile);
  };
  const auto set_all = [&](bool put) {
    for_each_edge([&](std::size_t s, std::size_t i, std::size_t k) {
      compiled.set_one_sided(s, i, k, put, profile);
    });
  };

  // Start from the cheaper uniform assignment, then flip single edges
  // while the predicted critical path strictly improves.
  double best = cost();
  set_all(true);
  const double all_one_sided = cost();
  if (all_one_sided < best) {
    best = all_one_sided;
  } else {
    set_all(false);
  }
  for (int pass = 0; pass < kMaxHybridPasses; ++pass) {
    bool improved = false;
    for_each_edge([&](std::size_t s, std::size_t i, std::size_t k) {
      flip(s, i, k);
      const double flipped_cost = cost();
      if (flipped_cost < best) {
        best = flipped_cost;
        improved = true;
      } else {
        flip(s, i, k);
      }
    });
    if (!improved) {
      break;
    }
  }
  // Normalization sweep: untag every put that does not strictly pay for
  // itself. Strict-improvement descent leaves harmless-but-useless tags
  // behind (an edge off the critical path never changes the predicted
  // cost, so no flip of it is ever "an improvement"); accepting
  // equal-cost untags here means the returned schedule carries puts
  // only where the model says they earn their keep. Each accepted flip
  // removes a tag and never raises the cost, so the loop terminates.
  for (bool changed = true; changed;) {
    changed = false;
    for_each_edge([&](std::size_t s, std::size_t i, std::size_t k) {
      if (!is_put(s, i, k)) {
        return;
      }
      flip(s, i, k);
      const double untagged_cost = cost();
      if (untagged_cost <= best) {
        best = untagged_cost;
        changed = true;
      } else {
        flip(s, i, k);
      }
    });
  }

  // Write the surviving tags back. A stage's rows ascend by rank and each
  // row's targets ascend, so its target edges line up one to one with
  // the stage's (src, dst)-sorted signals.
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    std::size_t k = 0;
    for (std::size_t r = compiled.row_begin(s); r < compiled.row_end(s); ++r) {
      for (const std::uint8_t put : compiled.target_one_sided(r)) {
        schedule.set_one_sided(s, k++, put != 0);
      }
    }
  }
  return best;
}

TransportTune tune_transport(const TopologyProfile& profile,
                             const EngineOptions& options, Transport policy) {
  TuneResult tuned = tune_barrier(profile, options);
  Schedule schedule = tuned.schedule();
  const double cost = assign_transports(
      schedule, tuned.profile(), tuned.barrier().awaited_stages, policy);
  TransportTune out{std::move(tuned), std::move(schedule), cost, policy, 0};
  out.one_sided_signals = out.schedule.one_sided_signal_count();
  return out;
}

TransportTune tune_best_transport(const TopologyProfile& profile,
                                  const EngineOptions& options) {
  // One tune, three taggings: the signal pattern is transport-oblivious
  // (see the header), so the candidates share it and differ only in
  // tags. Strict improvement keeps the first (simplest) policy on ties.
  TuneResult tuned = tune_barrier(profile, options);
  Schedule best_schedule = tuned.schedule();
  double best_cost =
      assign_transports(best_schedule, tuned.profile(),
                        tuned.barrier().awaited_stages, Transport::kTwoSided);
  Transport best_policy = Transport::kTwoSided;
  for (const Transport policy : {Transport::kOneSided, Transport::kHybrid}) {
    Schedule schedule = tuned.schedule();
    const double cost = assign_transports(
        schedule, tuned.profile(), tuned.barrier().awaited_stages, policy);
    if (cost < best_cost) {
      best_schedule = std::move(schedule);
      best_cost = cost;
      best_policy = policy;
    }
  }
  TransportTune out{std::move(tuned), std::move(best_schedule), best_cost,
                    best_policy, 0};
  out.one_sided_signals = out.schedule.one_sided_signal_count();
  return out;
}

}  // namespace optibar::rma
