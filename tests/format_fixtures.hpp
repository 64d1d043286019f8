// On-disk fixtures shared by the format tests: one saved artefact per
// format (the truncation sweeps of test_format_hardening) and the
// hand-written and tampered inputs those tests feed the loaders, listed
// so the oracle and fuzz tests can run every format through one loop.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/schedule_io.hpp"
#include "collective/generators.hpp"
#include "collective/io.hpp"
#include "core/plan_store.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "topology/profile.hpp"
#include "util/matrix.hpp"

namespace optibar::fixtures {

enum class Format {
  kProfile,
  kTiledProfile,
  kSchedule,
  kCollective,
  kPlanStore
};

inline const char* to_string(Format format) {
  switch (format) {
    case Format::kProfile:
      return "profile";
    case Format::kTiledProfile:
      return "tiled profile";
    case Format::kSchedule:
      return "schedule";
    case Format::kCollective:
      return "collective";
    case Format::kPlanStore:
      return "plan store";
  }
  return "?";
}

// Rank count every plan-store fixture is saved for.
constexpr std::size_t kStoreRanks = 8;

// Where the final whitespace-separated token begins. Truncating inside
// the last token can still parse (a shortened trailing number is a
// number), so sweeps stop at this boundary — every shorter prefix is a
// genuinely incomplete file.
inline std::size_t last_token_start(const std::string& text) {
  const std::size_t end = text.find_last_not_of(" \t\n");
  if (end == std::string::npos) {
    return 0;
  }
  const std::size_t space = text.find_last_of(" \t\n", end);
  return space == std::string::npos ? 0 : space + 1;
}

inline std::string saved_schedule_text() {
  StoredSchedule stored;
  // Tree stages are fan-in/fan-out DAGs, so awaited flags survive the
  // loader's deadlock gate and the sweep exercises flag parsing too.
  stored.schedule = tree_barrier(4);
  stored.awaited_stages.assign(stored.schedule.stage_count(), false);
  stored.awaited_stages.back() = true;
  std::ostringstream os;
  save_schedule(os, stored);
  return os.str();
}

inline std::string saved_collective_text() {
  std::ostringstream os;
  save_collective(os, binomial_broadcast(4, 0, 8, 8));
  return os.str();
}

inline std::string saved_profile_text() {
  const MachineSpec machine = quad_cluster();
  std::ostringstream os;
  generate_profile(machine, round_robin_mapping(machine, 3)).save(os);
  return os.str();
}

// Smallest meaningful tiled profile: two 2-rank clusters of one class,
// O/L only — covers the header, assignment/class-of lines, an embedded
// dense tile, and the inter-class block.
inline std::string saved_tiled_profile_text() {
  Matrix<double> o(2, 2), l(2, 2);
  o(0, 0) = 1.5e-6;
  o(0, 1) = 2e-6;
  o(1, 0) = 2e-6;
  o(1, 1) = 1.5e-6;
  l(0, 1) = 1.2e-7;
  l(1, 0) = 1.2e-7;
  const TiledProfile tiled({{0, 1}, {2, 3}}, {0, 0},
                           {TopologyProfile(std::move(o), std::move(l))},
                           Matrix<double>(1, 1, 2e-5),
                           Matrix<double>(1, 1, 8e-6), Matrix<double>(),
                           Matrix<double>(), 0.0);
  std::ostringstream os;
  tiled.save(os);
  return os.str();
}

inline std::string saved_plan_store_text() {
  // Two records — one healthy, one quarantined with a multi-line
  // reason — so the sweep crosses the escaped-reason and state-token
  // parsing as well as the embedded schedule block.
  PlanStoreRecord healthy;
  healthy.subset = {0, 1, 2, 3};
  healthy.plan = {dissemination_barrier(4), {}};
  healthy.predicted_cost = 2.5e-6;
  PlanStoreRecord sick;
  sick.subset = {1, 4, 6};
  sick.state = PlanState::kQuarantined;
  sick.failures = 3;
  sick.repair_attempts = 1;
  sick.reason = "stalled after stage 0\npending edge 1 -> 2\\retry";
  sick.plan = {dissemination_barrier(3), {}};
  sick.predicted_cost = 1.5e-6;
  std::ostringstream os;
  save_plan_store(os, kStoreRanks, {healthy, sick});
  return os.str();
}

inline std::string saved_text(Format format) {
  switch (format) {
    case Format::kProfile:
      return saved_profile_text();
    case Format::kTiledProfile:
      return saved_tiled_profile_text();
    case Format::kSchedule:
      return saved_schedule_text();
    case Format::kCollective:
      return saved_collective_text();
    case Format::kPlanStore:
      return saved_plan_store_text();
  }
  return {};
}

inline const std::vector<Format>& all_formats() {
  static const std::vector<Format> formats = {
      Format::kProfile, Format::kTiledProfile, Format::kSchedule,
      Format::kCollective, Format::kPlanStore};
  return formats;
}

struct Fixture {
  Format format;
  std::string text;
};

// `text` with the first occurrence of `from` replaced by `to`.
inline std::string tampered(std::string text, const std::string& from,
                            const std::string& to) {
  const std::size_t pos = text.find(from);
  if (pos != std::string::npos) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

// Every input test_format_hardening hands a loader apart from the
// truncation prefixes: the saved artefacts, the hand-written headers
// and payloads, and the tampered plan stores.
inline std::vector<Fixture> hardening_fixtures() {
  std::vector<Fixture> out;
  for (Format format : all_formats()) {
    out.push_back({format, saved_text(format)});
  }
  out.push_back({Format::kTiledProfile, saved_profile_text()});
  out.push_back({Format::kProfile, saved_tiled_profile_text()});
  const std::string store = saved_plan_store_text();
  const std::vector<std::pair<std::string, std::string>> store_edits = {
      {"optibar-plan-store v1", "optibar-plan-store v2"},
      {"optibar-plan-store", "optibar-plan-shop"},
      {"ranks 8", "ranks 12"},
      {"ranks 8", "ranks 9999999999"},
      {"entries 2", "entries 100001"},
      {"entries 2", "entries -1"},
      {"subset 4 0 1 2 3", "subset 4 0 1 2 99"},
      {"subset 4 0 1 2 3", "subset 4 0 1 2 2"},
      {"state quarantined", "state wounded"},
      {"state quarantined", "state retuning"},
      {"failures 3", "failures many"},
      {"predicted 1.5e-06", "predicted nan"},
      {"predicted 1.5e-06", "predicted -1"},
      {"subset 3 1 4 6", "subset 4 0 1 2 3"},
  };
  for (const auto& [from, to] : store_edits) {
    out.push_back({Format::kPlanStore, tampered(store, from, to)});
  }
  for (const char* text :
       {"optibar-profile v1\nP 2\n", "optibar-schedule v9\nP 2\n",
        "optibar-schedule v1\nP 100000\nstages 1\n",
        "optibar-schedule v1\nP 2\nstages 99999999\nawaited",
        "optibar-schedule v1\nP -3\nstages 0\n",
        "optibar-schedule v1\nP 2\nstages 1\nawaited 2\nS0\n0 1\n1 0\n",
        "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n0 7\n1 0\n",
        "optibar-schedule v1\nP 2\nstages 1\nawaited 1\nS0\n0 1\n0 0\n",
        "garbage"}) {
    out.push_back({Format::kSchedule, text});
  }
  for (const char* text :
       {"optibar-collective v1\nop bcast\nP 100000\nroot 0\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 70000\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\n"
        "elems 2305843009213693952 16\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
        "stages 1\nS0 5\n",
        "optibar-collective v1\nop gather\nP 2\nroot 0\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 5\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 4 0\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
        "stages 1\nS0 1\n0 1 0 1 2\n",
        "optibar-collective v1\nop bcast\nP 2\nroot 0\nelems 1 8\n"
        "stages 1\nS0 1\n0 0 0 1 0\n"}) {
    out.push_back({Format::kCollective, text});
  }
  for (const char* text :
       {"optibar-profile v1\nP 2\nO\n1e-06 2e-06\n2e-06 1e-06\n"
        "L\n0 3e-07\n3e-07 0\n",
        "optibar-profile v2\nP 2\nO\n1e-06 2e-06\n2e-06 1e-06\n"
        "L\n0 3e-07\n3e-07 0\nG\n0 1e-10\n1e-10 0\n",
        "optibar-profile v3\nP 2\nO\n1e-06 2e-06\n2e-06 1e-06\n"
        "L\n0 3e-07\n3e-07 0\nR\n0 1.5e-06\n1.5e-06 0\n",
        "optibar-profile v1\nP 100000\nO\n",
        "optibar-profile v1\nP 1\nO\n1e999\nL\n0\n",
        "optibar-profile v1\nP 1\nO\ninf\nL\n0\n",
        "optibar-profile v1\nP 1\nO\nnan\nL\n0\n"}) {
    out.push_back({Format::kProfile, text});
  }
  return out;
}

}  // namespace optibar::fixtures
