#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace optibar {

namespace {

/// DFS state: enumerates every off-diagonal incidence matrix per stage
/// with branch-and-bound on the running critical path. Parallel mode
/// splits the tree at the first stage: each first-stage mask's subtree
/// is explored by one pool task, all pruning against a shared atomic
/// incumbent bound, so a good early incumbent prunes every subtree.
class Searcher {
 public:
  Searcher(const TopologyProfile& profile, const SearchOptions& options)
      : profile_(profile), options_(options), p_(profile.ranks()) {
    // Bit k of a stage mask encodes edge k in this list.
    for (std::size_t i = 0; i < p_; ++i) {
      for (std::size_t j = 0; j < p_; ++j) {
        if (i != j) {
          edges_.emplace_back(i, j);
        }
      }
    }
    OPTIBAR_ASSERT(edges_.size() < 64, "edge mask overflows 64 bits");
  }

  SearchResult run(ThreadPool* pool) {
    seed_incumbents();
    bound_.store(result_.cost, std::memory_order_relaxed);
    if (pool == nullptr || pool->width() <= 1) {
      Schedule prefix(p_);
      IncrementalPredictor predictor(profile_);
      dfs(prefix, BoolMatrix::identity(p_), predictor);
    } else {
      parallel_root(*pool);
    }
    result_.nodes_explored = nodes_.load(std::memory_order_relaxed);
    return std::move(result_);
  }

 private:
  /// Start from the classic algorithms so pruning has a tight incumbent.
  void seed_incumbents() {
    for (const Schedule& candidate :
         {linear_barrier(p_), dissemination_barrier(p_), tree_barrier(p_)}) {
      if (candidate.stage_count() > options_.max_stages) {
        continue;
      }
      const double cost = predicted_time(candidate, profile_);
      if (result_.best.ranks() != p_ || result_.best.stage_count() == 0 ||
          cost < result_.cost) {
        result_.best = candidate;
        result_.cost = cost;
      }
    }
    if (result_.best.ranks() != p_) {
      // No classic algorithm fits in max_stages; fall back to linear as
      // a (possibly over-long) incumbent so `cost` is meaningful.
      result_.best = linear_barrier(p_);
      result_.cost = predicted_time(result_.best, profile_);
    }
  }

  /// The stage whose signals are the mask's edges; edges_ ascends by
  /// (src, dst), so the signals come out sorted.
  Stage stage_from_mask(std::uint64_t mask) const {
    Stage stage;
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      if (mask & (std::uint64_t{1} << k)) {
        stage.push_back(Signal{static_cast<std::uint32_t>(edges_[k].first),
                               static_cast<std::uint32_t>(edges_[k].second)});
      }
    }
    return stage;
  }

  /// One Eq. 3 step on the search's dense knowledge matrix, K + K * S:
  /// every signal k -> j ORs column k of the pre-stage K into column j.
  BoolMatrix next_knowledge(const BoolMatrix& knowledge,
                            const Stage& stage) const {
    BoolMatrix next = knowledge;
    for (const Signal& signal : stage) {
      for (std::size_t i = 0; i < p_; ++i) {
        if (knowledge.at_unchecked(i, signal.src)) {
          next.at_unchecked(i, signal.dst) = 1;
        }
      }
    }
    return next;
  }

  /// Record a complete barrier; the incumbent is shared, so re-check
  /// under the lock (another subtree may have improved it meanwhile).
  void record(const Schedule& prefix, double cost) {
    std::lock_guard<std::mutex> lock(best_mutex_);
    if (cost < result_.cost) {
      result_.best = prefix;
      result_.cost = cost;
      bound_.store(cost, std::memory_order_relaxed);
    }
  }

  bool budget_exhausted() const {
    return options_.node_budget != 0 &&
           nodes_.load(std::memory_order_relaxed) >= options_.node_budget;
  }

  /// DFS with incremental prefix evaluation: the predictor's checkpoint
  /// stack holds the ready-time vector of every prefix depth, so each
  /// candidate stage is scored by one push_stage (Eq. 1 costing, same
  /// recurrence as predict()) and backtracking is a pop — the whole
  /// schedule is never re-evaluated.
  void dfs(Schedule& prefix, const BoolMatrix& knowledge,
           IncrementalPredictor& predictor) {
    if (budget_exhausted()) {
      return;
    }
    nodes_.fetch_add(1, std::memory_order_relaxed);
    if (knowledge.all_nonzero()) {
      const double cost = predictor.max_ready();
      if (cost < bound_.load(std::memory_order_relaxed)) {
        record(prefix, cost);
      }
      return;  // extending a finished barrier only adds cost
    }
    if (prefix.stage_count() >= options_.max_stages) {
      return;
    }
    const std::uint64_t limit = std::uint64_t{1} << edges_.size();
    for (std::uint64_t mask = 1; mask < limit; ++mask) {
      Stage stage = stage_from_mask(mask);
      predictor.push_stage(stage);
      if (predictor.max_ready() >=
          bound_.load(std::memory_order_relaxed)) {
        predictor.pop_stage();
        continue;  // bound: costs only grow with further stages
      }
      const BoolMatrix next = next_knowledge(knowledge, stage);
      prefix.append_stage(std::move(stage));
      dfs(prefix, next, predictor);
      prefix.pop_stage();
      predictor.pop_stage();
    }
  }

  /// Fan the first-stage masks out across the pool; each task runs the
  /// serial DFS on its subtree with its own predictor. Equivalent to
  /// dfs() from the root: the root prefix is counted once, and per-mask
  /// pruning matches the loop body above.
  void parallel_root(ThreadPool& pool) {
    nodes_.fetch_add(1, std::memory_order_relaxed);  // the empty prefix
    if (options_.max_stages == 0) {
      return;
    }
    const BoolMatrix identity = BoolMatrix::identity(p_);
    const std::uint64_t limit = std::uint64_t{1} << edges_.size();
    pool.parallel_for(
        static_cast<std::size_t>(limit - 1), [&](std::size_t index) {
          if (budget_exhausted()) {
            return;
          }
          const std::uint64_t mask = static_cast<std::uint64_t>(index) + 1;
          Stage stage = stage_from_mask(mask);
          IncrementalPredictor predictor(profile_);
          predictor.push_stage(stage);
          if (predictor.max_ready() >=
              bound_.load(std::memory_order_relaxed)) {
            return;
          }
          const BoolMatrix knowledge = next_knowledge(identity, stage);
          Schedule prefix(p_);
          prefix.append_stage(std::move(stage));
          dfs(prefix, knowledge, predictor);
        });
  }

  const TopologyProfile& profile_;
  SearchOptions options_;
  std::size_t p_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  SearchResult result_;
  std::mutex best_mutex_;
  std::atomic<double> bound_{0.0};
  std::atomic<std::size_t> nodes_{0};
};

}  // namespace

SearchResult exhaustive_search(const TopologyProfile& profile,
                               const SearchOptions& options,
                               std::size_t threads) {
  OPTIBAR_REQUIRE(profile.ranks() >= 1, "empty profile");
  OPTIBAR_REQUIRE(profile.ranks() <= options.max_ranks,
                  "exhaustive search over " << profile.ranks()
                                            << " ranks exceeds the cap of "
                                            << options.max_ranks
                                            << "; raise max_ranks knowingly");
  OPTIBAR_REQUIRE(options.max_stages >= 1, "need at least one stage");
  if (profile.ranks() == 1) {
    SearchResult r;
    r.best = Schedule(1);
    r.cost = 0.0;
    return r;
  }
  std::optional<ThreadPool> pool;
  if (threads != 1) {
    pool.emplace(threads);
  }
  return Searcher(profile, options).run(pool ? &*pool : nullptr);
}

SearchResult exhaustive_search(const TopologyProfile& profile,
                               const EngineOptions& options) {
  options.validate();
  return exhaustive_search(profile, options.search,
                           options.resolved_threads());
}

}  // namespace optibar
