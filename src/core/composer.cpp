#include "core/composer.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "barrier/validate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace optibar {

namespace {

/// Greedy pick of the cheapest component algorithm for one local
/// barrier among `participants` (global ranks).
struct Pick {
  const ComponentAlgorithm* algorithm = nullptr;
  Schedule local_arrival{1};
  double scored_cost = 0.0;
};

Pick pick_algorithm(const TopologyProfile& profile,
                    const std::vector<std::size_t>& participants, bool is_root,
                    const std::vector<ComponentAlgorithm>& algorithms,
                    ThreadPool* pool) {
  OPTIBAR_REQUIRE(!algorithms.empty(), "no candidate algorithms");
  // Participants 0..n-1 of an n-rank profile (a flat leaf, such as the
  // hierarchical tuner's leader root) restrict to the profile itself.
  bool whole = participants.size() == profile.ranks();
  for (std::size_t k = 0; whole && k < participants.size(); ++k) {
    whole = participants[k] == k;
  }
  std::optional<TopologyProfile> restricted;
  if (!whole) {
    restricted.emplace(profile.restrict_to(participants));
  }
  const TopologyProfile& local_profile = whole ? profile : *restricted;
  auto evaluate = [&](const ComponentAlgorithm& algo) {
    Schedule arrival = algo.arrival(participants.size());
    // Compiled evaluation with per-thread reused storage: candidate
    // scoring is the composer's inner loop, and pool workers each keep
    // their own warm kernel state.
    thread_local CompiledSchedule compiled;
    thread_local PredictWorkspace workspace;
    compiled.compile(arrival, local_profile);
    const double cost = predicted_time(compiled, {}, workspace);
    // Arrival x 2 approximates the matching departure, except a
    // self-completing algorithm at the root needs no departure at all.
    const double multiplier = (is_root && algo.self_completing) ? 1.0 : 2.0;
    return std::make_pair(multiplier * cost, std::move(arrival));
  };

  std::vector<std::pair<double, Schedule>> scored;
  const bool parallel = pool != nullptr && pool->width() > 1 &&
                        algorithms.size() > 1 && participants.size() >= 8;
  if (parallel) {
    scored.assign(algorithms.size(),
                  {std::numeric_limits<double>::infinity(), Schedule(1)});
    pool->parallel_for(algorithms.size(), [&](std::size_t i) {
      scored[i] = evaluate(algorithms[i]);
    });
  } else {
    scored.reserve(algorithms.size());
    for (const ComponentAlgorithm& algo : algorithms) {
      scored.push_back(evaluate(algo));
    }
  }

  // Reduce in candidate order with a strict '<' — the first minimum
  // wins, exactly as the serial loop picked, at any pool width.
  Pick best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    if (scored[i].first < best_score) {
      best_score = scored[i].first;
      best = Pick{&algorithms[i], std::move(scored[i].second), best_score};
    }
  }
  return best;
}

struct ArrivalBuild {
  Schedule arrival;          ///< global-rank arrival schedule
  std::size_t level_start;   ///< stage at which this node's own block begins
};

struct CandidateSets {
  const std::vector<ComponentAlgorithm>* sub_levels;
  const std::vector<ComponentAlgorithm>* root;
};

ArrivalBuild build_arrival(const TopologyProfile& profile,
                           const ClusterNode& node, bool is_root,
                           std::size_t depth, const CandidateSets& candidates,
                           std::vector<LevelChoice>& choices,
                           ThreadPool* pool) {
  const std::size_t p = profile.ranks();
  ArrivalBuild out{Schedule(p), 0};
  if (node.ranks.size() == 1) {
    return out;  // a lone rank has nothing to collect
  }

  // Children first, all starting at stage 0 (merge-early); the local
  // block over the representatives starts after the longest child.
  std::vector<std::size_t> participants;
  if (node.is_leaf()) {
    participants = node.ranks;
  } else {
    // Child subtrees are independent: build them in parallel into
    // index-owned slots, then merge serially in child order so the
    // choice list and the embedded schedule match the serial engine
    // exactly.
    struct ChildBuild {
      ArrivalBuild build{Schedule(1), 0};
      std::vector<LevelChoice> choices;
    };
    std::vector<ChildBuild> subs(node.children.size());
    const bool parallel = pool != nullptr && pool->width() > 1 &&
                          node.children.size() > 1 && node.ranks.size() >= 8;
    auto build_child = [&](std::size_t i) {
      subs[i].build =
          build_arrival(profile, node.children[i], /*is_root=*/false,
                        depth + 1, candidates, subs[i].choices, pool);
    };
    if (parallel) {
      pool->parallel_for(node.children.size(), build_child);
    } else {
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        build_child(i);
      }
    }

    std::size_t longest_child = 0;
    std::vector<std::size_t> identity(p);
    for (std::size_t i = 0; i < p; ++i) {
      identity[i] = i;
    }
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      participants.push_back(node.children[i].representative());
      longest_child =
          std::max(longest_child, subs[i].build.arrival.stage_count());
      embed_schedule(out.arrival, subs[i].build.arrival, identity, 0);
      choices.insert(choices.end(),
                     std::make_move_iterator(subs[i].choices.begin()),
                     std::make_move_iterator(subs[i].choices.end()));
    }
    out.level_start = longest_child;
  }

  const Pick pick = pick_algorithm(
      profile, participants, is_root,
      is_root ? *candidates.root : *candidates.sub_levels, pool);
  choices.push_back(LevelChoice{depth, participants, pick.algorithm->name,
                                pick.scored_cost});
  embed_schedule(out.arrival, pick.local_arrival, participants,
                 out.level_start);
  return out;
}

/// Sub-schedule of stages [0, count).
Schedule stage_prefix(const Schedule& schedule, std::size_t count) {
  Schedule out(schedule.ranks());
  for (std::size_t s = 0; s < count; ++s) {
    out.append_stage(schedule.stage(s));
  }
  return out;
}

}  // namespace

std::string ComposedBarrier::describe() const {
  std::ostringstream os;
  os << "hybrid barrier: " << schedule.stage_count() << " stages ("
     << arrival_stages << " arrival), root algorithm " << root_algorithm
     << (root_self_completing ? " (self-completing, no root departure)" : "")
     << '\n';
  for (const LevelChoice& choice : choices) {
    os << std::string(2 * choice.depth, ' ') << "depth " << choice.depth
       << ": " << choice.algorithm << " over {";
    for (std::size_t i = 0; i < choice.participants.size(); ++i) {
      os << (i ? " " : "") << choice.participants[i];
    }
    os << "} score " << choice.scored_cost << '\n';
  }
  return os.str();
}

ArrivalComposition compose_arrival(const TopologyProfile& profile,
                                   const ClusterNode& tree,
                                   const ComposeOptions& options,
                                   bool treat_root_as_global,
                                   ThreadPool* pool) {
  const std::size_t p = profile.ranks();
  OPTIBAR_REQUIRE(tree.ranks.size() == p,
                  "cluster tree covers " << tree.ranks.size() << " ranks, "
                                         << "profile has " << p);
  ArrivalComposition out;
  if (p == 1) {
    out.arrival = Schedule(1);
    out.root_algorithm = "trivial";
    return out;
  }
  const CandidateSets candidates{
      &options.algorithms, options.root_algorithms.empty()
                               ? &options.algorithms
                               : &options.root_algorithms};
  ArrivalBuild build =
      build_arrival(profile, tree, /*is_root=*/treat_root_as_global,
                    /*depth=*/0, candidates, out.choices, pool);
  OPTIBAR_ASSERT(!out.choices.empty(), "composition produced no choices");
  const LevelChoice& root_choice = out.choices.back();
  OPTIBAR_ASSERT(root_choice.depth == 0, "root choice not at depth 0");
  const std::vector<ComponentAlgorithm>& root_set =
      treat_root_as_global ? *candidates.root : *candidates.sub_levels;
  const auto root_algo =
      std::find_if(root_set.begin(), root_set.end(),
                   [&](const ComponentAlgorithm& a) {
                     return a.name == root_choice.algorithm;
                   });
  OPTIBAR_ASSERT(root_algo != root_set.end(), "root algorithm lost");
  out.root_algorithm = root_algo->name;
  out.root_self_completing = root_algo->self_completing;
  out.root_level_start = build.level_start;
  out.arrival = std::move(build.arrival);
  return out;
}

ComposedBarrier compose_barrier(const TopologyProfile& profile,
                                const ClusterNode& tree,
                                const ComposeOptions& options,
                                ThreadPool* pool) {
  const std::size_t p = profile.ranks();
  OPTIBAR_REQUIRE(tree.ranks.size() == p,
                  "cluster tree covers " << tree.ranks.size() << " ranks, "
                                         << "profile has " << p);

  ComposedBarrier out;
  if (p == 1) {
    out.schedule = Schedule(1);
    out.root_algorithm = "trivial";
    return out;
  }

  const CandidateSets candidates{
      &options.algorithms, options.root_algorithms.empty()
                               ? &options.algorithms
                               : &options.root_algorithms};
  std::vector<LevelChoice> choices;
  ArrivalBuild build = build_arrival(profile, tree, /*is_root=*/true,
                                     /*depth=*/0, candidates, choices, pool);

  // The root-level decision is recorded last by the post-order recursion.
  OPTIBAR_ASSERT(!choices.empty(), "composition produced no level choices");
  const LevelChoice& root_choice = choices.back();
  OPTIBAR_ASSERT(root_choice.depth == 0, "root choice not at depth 0");
  const std::vector<ComponentAlgorithm>& root_set = *candidates.root;
  const auto root_algo = std::find_if(
      root_set.begin(), root_set.end(),
      [&](const ComponentAlgorithm& a) { return a.name == root_choice.algorithm; });
  OPTIBAR_ASSERT(root_algo != root_set.end(), "root algorithm lost");

  out.root_algorithm = root_algo->name;
  out.root_self_completing = root_algo->self_completing;
  // Report choices root-first for readability.
  std::reverse(choices.begin(), choices.end());
  out.choices = std::move(choices);

  // Departure: reversed transposes of the arrival. When the root block
  // is self-completing it is omitted from the transposition.
  const Schedule& arrival = build.arrival;
  const Schedule departure_base =
      out.root_self_completing ? stage_prefix(arrival, build.level_start)
                               : arrival;
  const Schedule departure = departure_base.transposed_reversed();

  Schedule full = arrival.concatenated(departure);
  // Compact no-op stages; track which surviving stages are departures.
  std::vector<bool> awaited;
  Schedule compacted(p);
  for (std::size_t s = 0; s < full.stage_count(); ++s) {
    if (full.stage(s).empty()) {
      continue;
    }
    compacted.append_stage(full.stage(s));
    // A departure stage is awaited — priced with Eq. 2 and replayable
    // with eager blocking sends — only when its wait digraph is
    // acyclic. Transposing a self-completing sub-level block (e.g. a
    // node-level dissemination) yields cyclic departure stages; those
    // stay correct under post-all-then-wait-all but must not carry the
    // awaited contract, so they are demoted to Eq. 1 here. This keeps
    // "awaited implies acyclic" a composer invariant the validator can
    // enforce on every stored plan.
    awaited.push_back(s >= arrival.stage_count() &&
                      !stage_has_cycle(full.stage(s), p));
  }
  out.arrival_stages = 0;
  for (std::size_t s = 0; s < awaited.size(); ++s) {
    if (!awaited[s]) {
      out.arrival_stages = s + 1;
    }
  }
  out.schedule = std::move(compacted);
  out.awaited_stages = std::move(awaited);

  OPTIBAR_ASSERT(out.schedule.is_barrier(),
                 "composed schedule fails the Eq. 3 barrier check");
  return out;
}

ComposedBarrier compose_barrier_searched(const TopologyProfile& profile,
                                         const ClusterNode& tree,
                                         const ComposeOptions& options,
                                         ThreadPool* pool) {
  OPTIBAR_REQUIRE(!options.algorithms.empty(), "no candidate algorithms");
  auto priced = [&](const ComposedBarrier& barrier) {
    thread_local CompiledSchedule compiled;
    thread_local PredictWorkspace workspace;
    thread_local PredictOptions predict_options;
    predict_options.awaited_stages = barrier.awaited_stages;
    compiled.compile(barrier.schedule, profile);
    return predicted_time(compiled, predict_options, workspace);
  };

  ComposedBarrier best = compose_barrier(profile, tree, options, pool);
  double best_cost = priced(best);

  const std::vector<ComponentAlgorithm>& root_set =
      options.root_algorithms.empty() ? options.algorithms
                                      : options.root_algorithms;
  // The |A|^2 uniform assignments are independent; evaluate them all
  // (in parallel when a pool is given), then reduce in the serial
  // loop's (sub, root) order with a strict '<' so ties resolve the
  // same at any width.
  std::vector<ComposeOptions> combos;
  combos.reserve(options.algorithms.size() * root_set.size());
  for (const ComponentAlgorithm& sub : options.algorithms) {
    for (const ComponentAlgorithm& root : root_set) {
      ComposeOptions fixed;
      fixed.algorithms = {sub};
      fixed.root_algorithms = {root};
      combos.push_back(std::move(fixed));
    }
  }
  std::vector<std::pair<double, ComposedBarrier>> evaluated(
      combos.size(),
      {std::numeric_limits<double>::infinity(), ComposedBarrier{}});
  auto evaluate = [&](std::size_t i) {
    // Candidates compose serially: the combos themselves are the
    // parallel grain here.
    ComposedBarrier candidate = compose_barrier(profile, tree, combos[i]);
    evaluated[i].first = priced(candidate);
    evaluated[i].second = std::move(candidate);
  };
  if (pool != nullptr && pool->width() > 1 && combos.size() > 1) {
    pool->parallel_for(combos.size(), evaluate);
  } else {
    for (std::size_t i = 0; i < combos.size(); ++i) {
      evaluate(i);
    }
  }
  for (auto& [cost, candidate] : evaluated) {
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace optibar
