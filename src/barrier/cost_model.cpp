#include "barrier/cost_model.hpp"

#include <algorithm>
#include <map>

#include "barrier/compiled_schedule.hpp"
#include "util/error.hpp"

namespace optibar {

double step_cost(const TopologyProfile& profile, std::size_t sender,
                 const std::vector<std::size_t>& targets, bool awaited) {
  if (targets.empty()) {
    return 0.0;
  }
  double latency_sum = 0.0;
  double overhead = awaited ? profile.o(sender, sender) : 0.0;
  for (std::size_t t : targets) {
    latency_sum += profile.l(sender, t);
    if (!awaited) {
      overhead = std::max(overhead, profile.o(sender, t));
    }
  }
  return overhead + latency_sum;
}

Prediction predict(const Schedule& schedule, const TopologyProfile& profile,
                   const PredictOptions& options) {
  // Compile-and-evaluate through thread-local reused storage: the CSR
  // arrays and the workspace grow once per thread to the largest problem
  // seen, after which only the returned Prediction allocates.
  thread_local CompiledSchedule compiled;
  thread_local PredictWorkspace workspace;
  compiled.compile(schedule, profile);
  Prediction out;
  predict_into(compiled, options, workspace, out);
  return out;
}

Prediction predict_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const PredictOptions& options) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  if (!options.entry_times.empty()) {
    OPTIBAR_REQUIRE(options.entry_times.size() == p,
                    "entry_times size mismatch");
  }
  if (!options.egress_resource_of.empty()) {
    OPTIBAR_REQUIRE(options.egress_resource_of.size() == p,
                    "egress_resource_of size mismatch");
  }

  Prediction result;
  result.rank_completion.assign(p, 0.0);
  if (!options.entry_times.empty()) {
    result.rank_completion = options.entry_times;
  }
  std::vector<double>& ready = result.rank_completion;
  const double start_of_critical =
      *std::max_element(ready.begin(), ready.end());

  std::vector<double> next(p, 0.0);
  std::vector<double> batch_done(p, 0.0);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    const bool awaited =
        s < options.awaited_stages.size() && options.awaited_stages[s];
    const double before = *std::max_element(ready.begin(), ready.end());
    // One-sided (put) edges: the startup term is the local initiation
    // O(i,i) instead of the rendezvous O(i,j), delivery completes
    // R(i,j) after the sender's batch, and the receiver pays no serial
    // completion processing. Same accumulation order as step_cost and
    // the compiled kernel.
    auto is_put = [&](std::size_t i, std::size_t j) {
      return schedule.one_sided(s, i, j);
    };

    // A rank's own step completes after it issues its batch; receivers
    // additionally wait for every incoming batch of the stage.
    for (std::size_t i = 0; i < p; ++i) {
      const std::vector<std::size_t> targets = schedule.targets_of(i, s);
      double cost = 0.0;
      if (!targets.empty()) {
        double latency_sum = 0.0;
        double overhead = awaited ? profile.o(i, i) : 0.0;
        for (std::size_t t : targets) {
          latency_sum += profile.l(i, t);
          if (!awaited) {
            overhead = std::max(
                overhead, is_put(i, t) ? profile.o(i, i) : profile.o(i, t));
          }
        }
        cost = overhead + latency_sum;
      }
      batch_done[i] = ready[i] + cost;
      next[i] = batch_done[i];
    }
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j : schedule.targets_of(i, s)) {
        const double delivered =
            batch_done[i] + (is_put(i, j) ? profile.r(i, j) : 0.0);
        next[j] = std::max(next[j], delivered);
      }
    }
    if (!options.egress_resource_of.empty()) {
      // Analytic shared-egress serialization: within one stage, every
      // cross-resource message from resource r must fit behind the
      // others, so the last arrival from r is bounded below by the
      // resource's ready time + max startup + the sum of marginal
      // latencies of r's remote messages. Apply that bound to every
      // remote receiver fed from r.
      const std::vector<std::size_t>& resource =
          options.egress_resource_of;
      // Per resource: ready time, max O, sum of L over remote messages.
      std::map<std::size_t, double> res_ready;
      std::map<std::size_t, double> res_max_o;
      std::map<std::size_t, double> res_sum_l;
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j : schedule.targets_of(i, s)) {
          if (resource[i] == resource[j]) {
            continue;
          }
          auto [it, inserted] = res_ready.try_emplace(resource[i], ready[i]);
          if (!inserted) {
            it->second = std::max(it->second, ready[i]);
          }
          auto& max_o = res_max_o[resource[i]];
          max_o = std::max(max_o,
                           is_put(i, j) ? profile.o(i, i) : profile.o(i, j));
          res_sum_l[resource[i]] += profile.l(i, j);
        }
      }
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j : schedule.targets_of(i, s)) {
          if (resource[i] == resource[j]) {
            continue;
          }
          const std::size_t r = resource[i];
          const double bound =
              res_ready[r] + res_max_o[r] + res_sum_l[r];
          next[j] = std::max(next[j], bound);
        }
      }
    }
    if (options.receiver_processing) {
      // Serial completion processing: each incoming *message* costs the
      // receiver its marginal latency on top of the latest dependency.
      // Puts land in the flag array without receiver CPU involvement.
      for (std::size_t j = 0; j < p; ++j) {
        double processing = 0.0;
        for (std::size_t i : schedule.sources_of(j, s)) {
          if (!is_put(i, j)) {
            processing += profile.l(i, j);
          }
        }
        next[j] += processing;
      }
    }
    ready = next;
    const double after = *std::max_element(ready.begin(), ready.end());
    result.stage_increment.push_back(after - before);
  }

  result.critical_path =
      *std::max_element(ready.begin(), ready.end()) - start_of_critical;
  return result;
}

double predicted_time(const Schedule& schedule, const TopologyProfile& profile,
                      const PredictOptions& options) {
  thread_local CompiledSchedule compiled;
  thread_local PredictWorkspace workspace;
  compiled.compile(schedule, profile);
  return predicted_time(compiled, options, workspace);
}

double arrival_cost(const Schedule& arrival, const TopologyProfile& profile) {
  return predicted_time(arrival, profile);
}

}  // namespace optibar
