// The three workloads of the pipeline benchmark. See WORKLOADS.md for
// why each exists and which layers it should and should not move.
//
// Every iteration starts from the profile file on disk and runs the
// workload's whole path through the public optibar API; each call into
// a layer is timed (a sample) and, in traced iterations, wrapped in a
// span. Iterations repeat identical work, so every count and every
// virtual time must come out bit-identical each time (Harness::exact).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "barrier/schedule_io.hpp"
#include "barrier/validate.hpp"
#include "collective/executor.hpp"
#include "collective/schedule.hpp"
#include "collective/tuner.hpp"
#include "core/hierarchical.hpp"
#include "core/library.hpp"
#include "core/tuner.hpp"
#include "harness.hpp"
#include "netsim/engine.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/logical_clusters.hpp"
#include "profile/tiled_profile.hpp"
#include "rma/transport.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "topology/profile.hpp"

namespace perfbench {

namespace {

using namespace optibar;

/// splitmix64: the benchmark's own input generator, independent of any
/// generator inside the library.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// The seed's machine is the preset with every cost scaled by one
/// factor within +-0.5 %. A uniform scale keeps every tuning decision of
/// the preset, so each seed does the same work with its own values.
/// Per-pair jitter did not: at 0.2 % it made the hybrid transport
/// descent settle on one of two taggings (100 or 150 puts) by seed,
/// with plan times about 10 % apart.
double seed_scale(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5ca1e5eedull;
  return 1.0 + 0.01 * (unit_draw(state) - 0.5);
}

/// Every entry of `m` (possibly empty) times `factor`.
Matrix<double> times(Matrix<double> m, double factor) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(i, j) *= factor;
    }
  }
  return m;
}

/// `profile` with every cost times `factor`; G and R stay absent when
/// they are.
TopologyProfile scaled(const TopologyProfile& profile, double factor) {
  TopologyProfile out =
      profile.has_bandwidth()
          ? TopologyProfile(times(profile.overhead(), factor),
                            times(profile.latency(), factor),
                            times(profile.bandwidth(), factor))
          : TopologyProfile(times(profile.overhead(), factor),
                            times(profile.latency(), factor));
  if (profile.has_rma_latency()) {
    out.set_rma_latency(times(profile.rma_latency(), factor));
  }
  return out;
}

/// Run `fn` as one call into `layer`: a span when traced, and the
/// elapsed wall time in nanoseconds returned either way.
template <class Fn>
double timed(Harness& h, Layer layer, const char* name, Fn&& fn) {
  ScopedSpan span(h.tracer, layer, name);
  const std::uint64_t start = now_ns();
  fn();
  return static_cast<double>(now_ns() - start);
}

EngineOptions serial_engine() {
  EngineOptions options;
  options.threads = 1;
  return options;
}

/// Threads of this process right now (Linux /proc); 0 when unknown.
std::size_t live_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t count = 0;
      status >> count;
      return count;
    }
    std::getline(status, key);
  }
  return 0;
}

double file_megabytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

void record_load(Harness& h, double ns, double megabytes) {
  h.sample("profile.load_ms", ns / 1e6);
  h.sample("profile.load_mb_per_s", megabytes / (ns / 1e9));
}

/// Netsim repetitions of a compiled plan with seeds fixed by the
/// workload seed; returns the mean barrier time in seconds.
template <class Costs>
double simulate_plan(Harness& h, const CompiledSchedule& compiled,
                     const Costs& costs, std::uint64_t seed,
                     std::size_t repetitions) {
  SimOptions options;
  options.jitter = 0.02;
  SimWorkspace workspace;
  SimResult result;
  double total_time = 0.0;
  double events = 0.0;
  double busy_ns = 0.0;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    options.seed = seed * 1000003ull + rep;
    const double ns = timed(h, Layer::kNetsim, "simulate", [&] {
      simulate_compiled_into(compiled, costs, options, workspace, result);
    });
    busy_ns += ns;
    h.sample("netsim.run_us", ns / 1e3);
    h.expect(!result.deadlocked, "netsim run deadlocked");
    if (!result.deadlocked) {
      total_time += result.barrier_time();
    }
    events += static_cast<double>(workspace.queue.scheduled());
  }
  h.exact("netsim.events", events);
  h.sample("netsim.events_per_s", events / (busy_ns / 1e9));
  return total_time / static_cast<double>(repetitions);
}

/// A fresh zero-latency communicator with one context per rank. Not
/// movable: the contexts point at the communicator.
struct RankWorld {
  explicit RankWorld(std::size_t ranks) : comm(ranks) {
    contexts.reserve(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      contexts.emplace_back(comm, r);
    }
  }
  simmpi::Communicator comm;
  std::vector<simmpi::RankContext> contexts;
};

/// Build a RankWorld as one timed simmpi call.
void open_world(Harness& h, std::size_t ranks,
                std::optional<RankWorld>& world) {
  const double ns = timed(h, Layer::kSimmpi, "comm_setup",
                          [&] { world.emplace(ranks); });
  h.sample("simmpi.comm_setup_us", ns / 1e3);
}

/// Tear a RankWorld down as one timed simmpi call.
void close_world(Harness& h, std::optional<RankWorld>& world) {
  timed(h, Layer::kSimmpi, "comm_teardown", [&] { world.reset(); });
}

/// Step every posted rank cursor with test() from this thread, sweep
/// after sweep, until all are done. Every stage completes within one
/// sweep once its senders have run, so a plan needing more than
/// `4 * stages + 16` sweeps has hung and the loop gives up. Returns the
/// sweeps made; `remaining` counts the cursors that never finished.
template <class Executor, class Handle>
std::size_t sweep_until_done(const Executor& executor,
                             std::vector<Handle>& handles,
                             std::size_t stages, std::size_t& remaining) {
  remaining = 0;
  for (const Handle& handle : handles) {
    remaining += handle.done() ? 0 : 1;
  }
  std::size_t sweeps = 0;
  for (; remaining > 0 && sweeps < 4 * stages + 16; ++sweeps) {
    for (Handle& handle : handles) {
      if (!handle.done() && executor.test(handle)) {
        --remaining;
      }
    }
  }
  return sweeps;
}

/// Real simmpi episodes of a barrier plan, every rank cursor stepped
/// from this one thread with post()/test() on a zero-latency
/// communicator: the cost measured is the executor's and the
/// communicator's, not the OS scheduler's.
void run_barrier_episodes(Harness& h, const Schedule& schedule,
                          std::size_t episodes) {
  const std::size_t p = schedule.ranks();
  std::optional<simmpi::ScheduleExecutor> executor;
  timed(h, Layer::kSimmpi, "executor",
        [&] { executor.emplace(schedule); });
  const std::size_t puts = schedule.one_sided_signal_count();
  h.exact("simmpi.puts", static_cast<double>(puts));
  h.exact("simmpi.messages",
          static_cast<double>(schedule.total_signals() - puts));
  double sweeps_total = 0.0;
  for (std::size_t e = 0; e < episodes; ++e) {
    std::optional<RankWorld> world;
    open_world(h, p, world);
    std::vector<simmpi::ScheduleExecutor::EpisodeHandle> handles(p);
    const double post_ns = timed(h, Layer::kSimmpi, "post", [&] {
      for (std::size_t r = 0; r < p; ++r) {
        handles[r] = executor->post(world->contexts[r], 0);
      }
    });
    std::size_t remaining = 0;
    std::size_t sweeps = 0;
    const double test_ns = timed(h, Layer::kSimmpi, "test", [&] {
      sweeps = sweep_until_done(*executor, handles, schedule.stage_count(),
                                remaining);
    });
    h.expect(remaining == 0, "simmpi episode: a rank handle never finished");
    h.expect(world->comm.unmatched_operations() == 0,
             "simmpi episode left unmatched operations");
    sweeps_total += static_cast<double>(sweeps);
    h.sample("simmpi.post_us", post_ns / 1e3);
    h.sample("simmpi.test_us", test_ns / 1e3);
    h.sample("simmpi.episode_us", (post_ns + test_ns) / 1e3);
    close_world(h, world);
  }
  h.exact("simmpi.sweeps", sweeps_total / static_cast<double>(episodes));
}

// ---------------------------------------------------------------------
// Dense plan path shared by hex-120 and service-quad-32: profile file
// -> cluster detection -> tune_barrier -> (transports) -> compile ->
// predict -> validate.

struct DensePlan {
  TopologyProfile profile;
  Schedule schedule{1};
  std::vector<bool> awaited;
  CompiledSchedule compiled;
  double predicted = 0.0;
};

DensePlan plan_dense(Harness& h, const std::string& path,
                     std::size_t expected_clusters, bool hybrid) {
  const Stopwatch plan_clock;
  DensePlan plan;
  const double load_ns = timed(h, Layer::kProfile, "load", [&] {
    plan.profile = TopologyProfile::load_file(path);
  });
  record_load(h, load_ns, file_megabytes(path));

  ClusterDecomposition decomposition;
  const double detect_ns = timed(h, Layer::kProfile, "detect", [&] {
    decomposition = detect_logical_clusters(plan.profile);
  });
  h.sample("profile.detect_ms", detect_ns / 1e6);
  h.expect(decomposition.cluster_count() == expected_clusters,
           "cluster detection found the wrong node count");

  std::optional<TuneResult> tuned;
  const double tune_ns = timed(h, Layer::kCore, "tune_barrier", [&] {
    tuned.emplace(tune_barrier(plan.profile, serial_engine()));
  });
  h.sample("core.tune_ms", tune_ns / 1e6);
  plan.schedule = tuned->schedule();
  plan.awaited = tuned->barrier().awaited_stages;

  double assigned_cost = tuned->predicted_cost();
  if (hybrid) {
    const double assign_ns = timed(h, Layer::kRma, "assign_transports", [&] {
      assigned_cost = rma::assign_transports(plan.schedule, tuned->profile(),
                                             plan.awaited,
                                             rma::Transport::kHybrid);
    });
    h.sample("rma.assign_ms", assign_ns / 1e6);
  }
  const auto signals = static_cast<double>(plan.schedule.total_signals());
  h.exact("rma.one_sided_frac",
          static_cast<double>(plan.schedule.one_sided_signal_count()) /
              signals);

  const double compile_ns = timed(h, Layer::kBarrier, "compile", [&] {
    plan.compiled.compile(plan.schedule, plan.profile);
  });
  PredictOptions options;
  options.awaited_stages = plan.awaited;
  PredictWorkspace workspace;
  const double predict_ns = timed(h, Layer::kBarrier, "predict", [&] {
    plan.predicted = predicted_time(plan.compiled, options, workspace);
  });
  bool valid = false;
  const double validate_ns = timed(h, Layer::kBarrier, "validate", [&] {
    valid = validate_schedule(StoredSchedule{plan.schedule, plan.awaited})
                .ok() &&
            plan.schedule.is_barrier();
  });
  h.sample("plan_ms", plan_clock.ms());

  h.sample("barrier.compile_us", compile_ns / 1e3);
  h.sample("barrier.predict_us", predict_ns / 1e3);
  h.sample("barrier.validate_ms", validate_ns / 1e6);
  h.expect(valid, "tuned plan failed validate_schedule/is_barrier");
  h.expect(plan.predicted == assigned_cost,
           "compiled prediction differs from the tuner's own");
  h.exact("plan_pred_us", plan.predicted * 1e6);
  h.exact("barrier.signals", signals);
  h.exact("barrier.stages", static_cast<double>(plan.schedule.stage_count()));
  return plan;
}

/// Record one iteration's median and 99th percentile of per-call
/// latencies as `<prefix>_p50` / `<prefix>_p99` samples.
void record_latencies(Harness& h, const std::string& prefix,
                      const std::vector<double>& ns) {
  if (ns.empty()) {
    return;
  }
  h.sample(prefix + "_p50", quantile(ns, 0.50));
  h.sample(prefix + "_p99", quantile(ns, 0.99));
}

// ---------------------------------------------------------------------

// Per iteration, hex-120 tunes a plan once and then runs it many times,
// the paper's tune-once, run-many use. The counts size each part:
// 20 netsim runs give plan_sim_us its mean; 500 barrier and 400
// allreduce episodes make running the plans (simmpi and the collective
// episodes) a visible share of pipeline_ms, next to the tunes that
// dominate it; 500 lookup rounds over 13 subsets give the lookup p99
// 6500 samples. WORKLOADS.md lists the measured layer shares.
class HexWorkload : public Workload {
 public:
  explicit HexWorkload(const WorkloadConfig& config)
      : config_(config),
        nodes_(config.tiny ? 2 : 10),
        ranks_(nodes_ * 12),
        sim_reps_(config.tiny ? 4 : 20),
        episodes_(config.tiny ? 10 : 500),
        collective_episodes_(config.tiny ? 4 : 400),
        lookup_rounds_(config.tiny ? 50 : 500),
        path_(config.work_dir + "/hex.profile") {}

  void generate() override {
    const MachineSpec machine = hex_cluster(nodes_);
    scaled(generate_profile(machine, round_robin_mapping(machine, ranks_)),
           seed_scale(config_.seed))
        .save_file(path_);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "hex_cluster(" << nodes_ << "), " << ranks_
       << " ranks round-robin, dense v3 profile, cost scale "
       << seed_scale(config_.seed) << "; "
       << sim_reps_ << " netsim reps, " << episodes_ << " barrier and "
       << collective_episodes_ << " allreduce episodes, "
       << lookup_rounds_ << " lookup rounds per iteration";
    return os.str();
  }

  void iterate(Harness& h) override {
    const DensePlan plan = plan_dense(h, path_, nodes_, /*hybrid=*/true);
    h.exact("plan_sim_us", simulate_plan(h, plan.compiled, plan.profile,
                                         config_.seed, sim_reps_) *
                               1e6);
    run_barrier_episodes(h, plan.schedule, episodes_);
    run_collective(h, plan.profile);
    run_library(h, plan.profile);
  }

  void summarize(Harness& h) override {
    record_latencies(h, "library.lookup_ns", lookup_ns_);
  }

 private:
  void run_collective(Harness& h, const TopologyProfile& profile) {
    CollectiveTuneOptions options;
    options.op = CollectiveOp::kAllreduce;
    options.payload_bytes = 1024;
    std::optional<CollectiveTuneResult> tuned;
    const double tune_ns = timed(h, Layer::kCollective, "tune_collective", [&] {
      tuned.emplace(tune_collective(profile, options, serial_engine()));
    });
    h.sample("collective.tune_ms", tune_ns / 1e6);
    const CollectiveSchedule& schedule = tuned->schedule();
    bool valid = false;
    timed(h, Layer::kCollective, "validate",
          [&] { valid = is_valid_collective(schedule); });
    h.expect(valid, "tuned allreduce failed is_valid_collective");
    h.exact("collective.candidates",
            static_cast<double>(tuned->candidates().size()));
    h.exact("collective.bytes_per_episode",
            static_cast<double>(schedule.total_bytes()));

    const std::size_t p = schedule.ranks();
    std::uint64_t state = config_.seed ^ 0xc011ec7ull;
    std::vector<Payload> inputs(p, Payload(schedule.elem_count()));
    for (Payload& buffer : inputs) {
      for (std::uint64_t& word : buffer) {
        word = splitmix64(state);
      }
    }
    std::vector<Payload> expected;
    timed(h, Layer::kCollective, "execute_serial", [&] {
      expected = execute_serial(schedule, ReduceOp::kSum, inputs);
    });
    std::optional<CollectiveExecutor> executor;
    timed(h, Layer::kCollective, "executor",
          [&] { executor.emplace(schedule); });
    for (std::size_t e = 0; e < collective_episodes_; ++e) {
      std::optional<RankWorld> world;
      open_world(h, p, world);
      std::vector<Payload> buffers = inputs;
      std::vector<CollectiveExecutor::EpisodeHandle> handles(p);
      std::size_t remaining = 0;
      const double episode_ns = timed(h, Layer::kCollective, "episode", [&] {
        for (std::size_t r = 0; r < p; ++r) {
          handles[r] = executor->post(world->contexts[r], ReduceOp::kSum,
                                      buffers[r], 0);
        }
        sweep_until_done(*executor, handles, schedule.stage_count(),
                         remaining);
      });
      h.sample("collective.episode_us", episode_ns / 1e3);
      h.expect(remaining == 0, "allreduce episode: a rank never finished");
      h.expect(buffers == expected,
               "allreduce buffers differ from execute_serial");
      close_world(h, world);
    }
  }

  void run_library(Harness& h, const TopologyProfile& profile) {
    // The world plus consecutive 10-rank blocks, tuned cold.
    std::vector<std::vector<std::size_t>> subsets(1);
    for (std::size_t r = 0; r < ranks_; ++r) {
      subsets[0].push_back(r);
    }
    for (std::size_t b = 0; b + 10 <= ranks_; b += 10) {
      std::vector<std::size_t> block;
      for (std::size_t r = b; r < b + 10; ++r) {
        block.push_back(r);
      }
      subsets.push_back(std::move(block));
    }
    std::optional<BarrierLibrary> library;
    timed(h, Layer::kLibrary, "construct",
          [&] { library.emplace(profile, serial_engine()); });
    std::vector<const LibraryEntry*> entries;
    const double tune_ns = timed(h, Layer::kLibrary, "tune_all", [&] {
      entries = library->tune_all(subsets);
    });
    h.sample("library.tune_all_ms", tune_ns / 1e6);
    for (std::size_t i = 0; i < subsets.size(); ++i) {
      h.expect(entries[i] != nullptr &&
                   entries[i]->global_ranks == subsets[i] &&
                   !entries[i]->degraded,
               "tune_all entry does not match its subset");
    }

    lookup_ns_.clear();
    lookup_ns_.reserve(lookup_rounds_ * subsets.size());
    std::size_t mismatches = 0;
    timed(h, Layer::kLibrary, "lookups", [&] {
      for (std::size_t round = 0; round < lookup_rounds_; ++round) {
        for (const auto& subset : subsets) {
          const std::uint64_t start = now_ns();
          const LibraryEntry& entry = library->subset_plan(subset);
          lookup_ns_.push_back(static_cast<double>(now_ns() - start));
          mismatches += entry.global_ranks == subset ? 0 : 1;
        }
      }
    });
    h.tally(lookup_ns_.size(), mismatches,
            "library lookup returned another subset's plan");
    const ServiceStats stats = library->stats();
    h.exact("library.tunes", static_cast<double>(stats.tunes));
    h.exact("library.hit_ratio",
            static_cast<double>(stats.plan_requests - stats.tunes) /
                static_cast<double>(stats.plan_requests));
    timed(h, Layer::kLibrary, "destroy", [&] { library.reset(); });
  }

  WorkloadConfig config_;
  std::size_t nodes_;
  std::size_t ranks_;
  std::size_t sim_reps_;
  std::size_t episodes_;
  std::size_t collective_episodes_;
  std::size_t lookup_rounds_;
  std::string path_;
  std::vector<double> lookup_ns_;
};

// ---------------------------------------------------------------------

class TenkWorkload : public Workload {
 public:
  explicit TenkWorkload(const WorkloadConfig& config)
      : config_(config),
        nodes_(config.tiny ? 16 : 256),
        ranks_(nodes_ * 40),
        sim_reps_(config.tiny ? 2 : 4),
        path_(config.work_dir + "/tenk.tiled") {}

  /// The generator's exact block profile, tiles and inter-node
  /// scalars alike scaled by the seed's factor, so the block structure
  /// stays exact and the plan stays tiled.
  void generate() override {
    const TiledProfile base =
        generate_tiled_profile(tenk_cluster(nodes_), ranks_);
    const double factor = seed_scale(config_.seed);
    std::vector<TopologyProfile> tiles;
    for (std::size_t k = 0; k < base.class_count(); ++k) {
      tiles.push_back(scaled(base.class_tile(k), factor));
    }
    const std::size_t classes = base.class_count();
    Matrix<double> inter_o(classes, classes);
    Matrix<double> inter_l(classes, classes);
    Matrix<double> inter_g;
    Matrix<double> inter_r;
    if (base.has_bandwidth()) {
      inter_g = Matrix<double>(classes, classes);
    }
    if (base.has_rma_latency()) {
      inter_r = Matrix<double>(classes, classes);
    }
    for (std::size_t a = 0; a < classes; ++a) {
      for (std::size_t b = 0; b < classes; ++b) {
        inter_o(a, b) = base.inter_o(a, b) * factor;
        inter_l(a, b) = base.inter_l(a, b) * factor;
        if (base.has_bandwidth()) {
          inter_g(a, b) = base.inter_g(a, b) * factor;
        }
        if (base.has_rma_latency()) {
          inter_r(a, b) = base.inter_r(a, b) * factor;
        }
      }
    }
    TiledProfile(base.clusters(), base.class_of(), std::move(tiles),
                 std::move(inter_o), std::move(inter_l), std::move(inter_g),
                 std::move(inter_r), base.tolerance())
        .save_file(path_);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "tenk_cluster(" << nodes_ << "), " << ranks_
       << " ranks, tiled v4 profile, cost scale "
       << seed_scale(config_.seed) << "; " << sim_reps_
       << " netsim reps per iteration";
    return os.str();
  }

  void iterate(Harness& h) override {
    const Stopwatch plan_clock;
    TiledProfile tiled;
    const double load_ns = timed(h, Layer::kProfile, "load", [&] {
      tiled = TiledProfile::load_file(path_);
    });
    record_load(h, load_ns, file_megabytes(path_));

    std::optional<HierarchicalTuneResult> tuned;
    const double tune_ns = timed(h, Layer::kCore, "tune_hierarchical", [&] {
      tuned.emplace(tune_hierarchical(tiled, serial_engine()));
    });
    h.sample("core.tune_ms", tune_ns / 1e6);
    h.expect(!tuned->used_dense_fallback,
             "tenk plan fell back to the dense tuner");

    CompiledSchedule compiled;
    const double compile_ns = timed(h, Layer::kBarrier, "compile", [&] {
      compile_blocked(tuned->blocked, tiled, compiled);
    });
    PredictOptions options;
    options.awaited_stages = tuned->blocked.awaited_stages();
    PredictWorkspace workspace;
    double predicted = 0.0;
    const double predict_ns = timed(h, Layer::kBarrier, "predict", [&] {
      predicted = predicted_time(compiled, options, workspace);
    });
    h.sample("plan_ms", plan_clock.ms());

    h.sample("barrier.compile_us", compile_ns / 1e3);
    h.sample("barrier.predict_us", predict_ns / 1e3);
    h.expect(predicted == tuned->predicted_cost,
             "compiled prediction differs from the tuner's own");
    h.exact("plan_pred_us", predicted * 1e6);
    h.exact("barrier.signals",
            static_cast<double>(tuned->blocked.total_signals()));
    h.exact("barrier.stages",
            static_cast<double>(tuned->blocked.stage_count()));
    h.exact("plan_sim_us",
            simulate_plan(h, compiled, tiled, config_.seed, sim_reps_) * 1e6);
  }

 private:
  WorkloadConfig config_;
  std::size_t nodes_;
  std::size_t ranks_;
  std::size_t sim_reps_;
  std::string path_;
};

// ---------------------------------------------------------------------

class ServiceWorkload : public Workload {
 public:
  explicit ServiceWorkload(const WorkloadConfig& config)
      : config_(config),
        nodes_(config.tiny ? 2 : 8),
        ranks_(config.tiny ? 16 : 32),
        plan_passes_(config.tiny ? 2 : kPlanPasses),
        sim_reps_(config.tiny ? 2 : 10),
        operations_(config.tiny ? 20000 : 250000),
        path_(config.work_dir + "/service.profile") {}

  void generate() override {
    const MachineSpec machine = quad_cluster(nodes_);
    const Mapping mapping = round_robin_mapping(machine, ranks_);
    used_nodes_ = mapping.nodes_used(machine);
    scaled(generate_profile(machine, mapping), seed_scale(config_.seed))
        .save_file(path_);

    // Eight distinct subsets of 2..8 ranks (order defines local ids).
    // The seed picks the ranks, not the sizes: per-operation cost grows
    // with subset size, so seeded sizes would make the work differ by
    // seed.
    std::uint64_t state = config_.seed * 0x2545f4914f6cdd1dull + 0x5e41ull;
    subsets_.clear();
    while (subsets_.size() < kSubsets) {
      const std::size_t size = kSubsetSizes[subsets_.size()];
      std::vector<std::size_t> subset;
      while (subset.size() < size) {
        const std::size_t rank = splitmix64(state) % ranks_;
        if (std::find(subset.begin(), subset.end(), rank) == subset.end()) {
          subset.push_back(rank);
        }
      }
      if (std::find(subsets_.begin(), subsets_.end(), subset) ==
          subsets_.end()) {
        subsets_.push_back(std::move(subset));
      }
    }
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "quad_cluster(" << nodes_ << "), " << ranks_
       << " ranks round-robin, auto-repair library, 1 closed-loop client, "
       << kSubsets << " subsets, " << operations_
       << " operations per iteration (per 10k: " << kStallPer10k
       << " stall, " << kSuccessPer10k << " success, " << kLatencyPer10k
       << " latency reports, rest lookups)";
    return os.str();
  }

  void iterate(Harness& h) override {
    DensePlan plan;
    for (std::size_t pass = 0; pass < plan_passes_; ++pass) {
      plan = plan_dense(h, path_, used_nodes_, /*hybrid=*/false);
    }
    h.exact("plan_sim_us", simulate_plan(h, plan.compiled, plan.profile,
                                         config_.seed, sim_reps_) *
                               1e6);
    serve(h, plan.profile);
  }

  void summarize(Harness& h) override {
    std::vector<double> all = lookup_ns_;
    all.insert(all.end(), report_ns_.begin(), report_ns_.end());
    record_latencies(h, "library.op_ns", all);
    record_latencies(h, "library.lookup_ns", lookup_ns_);
    record_latencies(h, "library.report_ns", report_ns_);
  }

 private:
  /// The 32-rank plan takes about 1.5 ms; several passes per iteration
  /// give plan_ms many short readings to take the fastest of.
  static constexpr std::size_t kPlanPasses = 8;
  static constexpr std::size_t kSubsets = 8;
  static constexpr std::size_t kSubsetSizes[kSubsets] = {2, 3, 4, 5,
                                                          6, 7, 8, 8};
  static constexpr std::size_t kStallPer10k = 20;
  static constexpr std::size_t kSuccessPer10k = 98;
  static constexpr std::size_t kLatencyPer10k = 1400;

  void serve(Harness& h, const TopologyProfile& profile) {
    EngineOptions options = serial_engine();
    options.service.auto_repair = true;
    // The client drains every repair it triggers before going on (so
    // every count repeats exactly); a backoff would only add sleep.
    options.service.repair_backoff_seconds = 0.0;
    std::optional<BarrierLibrary> library;
    timed(h, Layer::kLibrary, "construct",
          [&] { library.emplace(profile, options); });
    std::vector<const LibraryEntry*> entries;
    const double tune_ns = timed(h, Layer::kLibrary, "tune_all", [&] {
      entries = library->tune_all(subsets_);
    });
    h.sample("library.tune_all_ms", tune_ns / 1e6);
    for (std::size_t i = 0; i < subsets_.size(); ++i) {
      h.expect(entries[i] != nullptr && entries[i]->global_ranks == subsets_[i],
               "tune_all entry does not match its subset");
    }
    std::vector<TopologyProfile> local;
    for (const auto& subset : subsets_) {
      local.push_back(profile.restrict_to(subset));
    }

    lookup_ns_.clear();
    report_ns_.clear();
    lookup_ns_.reserve(operations_);
    std::size_t mismatches = 0;
    std::size_t degraded = 0;
    double wait_ns = 0.0;
    std::uint64_t state = config_.seed * 0x9e3779b97f4a7c15ull + 0xc1ull;
    const double loop_ns = timed(h, Layer::kLibrary, "serve", [&] {
      for (std::size_t op = 0; op < operations_; ++op) {
        const std::size_t index = splitmix64(state) % subsets_.size();
        const std::vector<std::size_t>& subset = subsets_[index];
        const std::uint64_t mix = splitmix64(state) % 10000;
        if (mix < kStallPer10k) {
          const std::uint64_t start = now_ns();
          const bool fallback =
              library->report_execution_failure(subset, "injected stall");
          report_ns_.push_back(static_cast<double>(now_ns() - start));
          if (fallback) {
            ScopedSpan span(h.tracer, Layer::kLibrary, "wait_for_repairs");
            const std::uint64_t wait_start = now_ns();
            library->wait_for_repairs();
            wait_ns += static_cast<double>(now_ns() - wait_start);
          }
        } else if (mix < kStallPer10k + kSuccessPer10k) {
          const std::uint64_t start = now_ns();
          library->report_execution_success(subset);
          report_ns_.push_back(static_cast<double>(now_ns() - start));
        } else if (mix < kStallPer10k + kSuccessPer10k + kLatencyPer10k) {
          const std::size_t n = subset.size();
          const std::size_t i = splitmix64(state) % n;
          const std::size_t j = (i + 1 + splitmix64(state) % (n - 1)) % n;
          const double jitter = 0.95 + 0.1 * unit_draw(state);
          const double seconds = local[index].l(i, j) * jitter;
          const std::uint64_t start = now_ns();
          library->report_measured_latency(subset, i, j, seconds);
          report_ns_.push_back(static_cast<double>(now_ns() - start));
        } else {
          const std::uint64_t start = now_ns();
          const LibraryEntry& entry = library->subset_plan(subset);
          lookup_ns_.push_back(static_cast<double>(now_ns() - start));
          mismatches += entry.global_ranks == subset ? 0 : 1;
          degraded += entry.degraded ? 1 : 0;
        }
      }
    });
    timed(h, Layer::kLibrary, "wait_for_repairs",
          [&] { library->wait_for_repairs(); });
    h.expect(live_threads() <= std::thread::hardware_concurrency(),
             "the service runs more threads than there are cores");
    h.tally(operations_, mismatches,
            "library lookup returned another subset's plan");

    const ServiceStats stats = library->stats();
    h.exact("library.tunes", static_cast<double>(stats.tunes));
    h.exact("library.quarantines", static_cast<double>(stats.quarantines));
    h.exact("library.promotions", static_cast<double>(stats.repairs_promoted));
    h.exact("library.repairs_promoted_frac",
            stats.repairs_started == 0
                ? 0.0
                : static_cast<double>(stats.repairs_promoted) /
                      static_cast<double>(stats.repairs_started));
    h.exact("library.hit_ratio",
            static_cast<double>(stats.plan_requests - stats.tunes) /
                static_cast<double>(stats.plan_requests));
    h.exact("library.degraded_lookup_frac",
            static_cast<double>(degraded) /
                static_cast<double>(lookup_ns_.size()));
    h.sample("library.repair_wait_ms", wait_ns / 1e6);
    h.sample("library.ops_per_s", static_cast<double>(operations_) /
                                      ((loop_ns - wait_ns) / 1e9));
    timed(h, Layer::kLibrary, "destroy", [&] { library.reset(); });
  }

  WorkloadConfig config_;
  std::size_t nodes_;
  std::size_t ranks_;
  std::size_t plan_passes_;
  std::size_t sim_reps_;
  std::size_t operations_;
  std::string path_;
  std::size_t used_nodes_ = 0;  ///< nodes the mapping occupies
  std::vector<std::vector<std::size_t>> subsets_;
  std::vector<double> lookup_ns_;
  std::vector<double> report_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config) {
  if (config.name == "hex-120") {
    return std::make_unique<HexWorkload>(config);
  }
  if (config.name == "tenk-10240") {
    return std::make_unique<TenkWorkload>(config);
  }
  if (config.name == "service-quad-32") {
    return std::make_unique<ServiceWorkload>(config);
  }
  throw std::invalid_argument("unknown workload '" + config.name + "'");
}

}  // namespace perfbench
