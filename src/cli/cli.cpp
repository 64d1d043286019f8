#include "cli/cli.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "barrier/algorithms.hpp"
#include "barrier/analysis.hpp"
#include "barrier/cost_model.hpp"
#include "barrier/optimize.hpp"
#include "barrier/schedule_io.hpp"
#include "cli/args.hpp"
#include "collective/io.hpp"
#include "collective/simulate.hpp"
#include "collective/tuner.hpp"
#include "core/hierarchical.hpp"
#include "core/library.hpp"
#include "core/service_soak.hpp"
#include "core/tuner.hpp"
#include "netsim/engine.hpp"
#include "netsim/trace_export.hpp"
#include "profile/estimator.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/synthetic_engine.hpp"
#include "rma/transport.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/resilience.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/machine_file.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/heatmap.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace optibar::cli {

namespace {

MachineSpec machine_by_name(const std::string& name, std::size_t nodes) {
  if (name == "quad") {
    return nodes == 0 ? quad_cluster() : quad_cluster(nodes);
  }
  if (name == "hex") {
    return nodes == 0 ? hex_cluster() : hex_cluster(nodes);
  }
  if (name == "skewed") {
    return nodes == 0 ? skewed_cluster() : skewed_cluster(nodes);
  }
  if (name == "tenk") {
    return nodes == 0 ? tenk_cluster() : tenk_cluster(nodes);
  }
  OPTIBAR_FAIL("unknown machine '" << name << "' (quad, hex, skewed, tenk)");
}

/// A profile file is either dense (v1-v3, TopologyProfile) or tiled
/// (v4, TiledProfile); commands that accept both sniff the header.
bool is_tiled_profile_file(const std::string& path) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  std::string magic;
  std::string version;
  is >> magic >> version;
  return magic == "optibar-profile" && version == "v4";
}

Mapping mapping_by_name(const std::string& name, const MachineSpec& machine,
                        std::size_t ranks) {
  if (name == "block") {
    return block_mapping(machine, ranks);
  }
  if (name == "round-robin" || name == "rr") {
    return round_robin_mapping(machine, ranks);
  }
  OPTIBAR_FAIL("unknown mapping '" << name << "' (block, round-robin)");
}

Schedule algorithm_by_name(const std::string& name, std::size_t ranks) {
  if (name == "linear") {
    return linear_barrier(ranks);
  }
  if (name == "dissemination") {
    return dissemination_barrier(ranks);
  }
  if (name == "tree") {
    return tree_barrier(ranks);
  }
  if (name == "heap-tree") {
    return heap_tree_barrier(ranks);
  }
  if (name == "kary4-tree") {
    return kary_tree_barrier(ranks, 4);
  }
  if (name == "pairwise-exchange") {
    return pairwise_exchange_barrier(ranks);
  }
  if (name == "radix4-dissemination") {
    return radix_dissemination_barrier(ranks, 4);
  }
  OPTIBAR_FAIL("unknown algorithm '"
               << name
               << "' (linear, dissemination, tree, heap-tree, kary4-tree, "
                  "pairwise-exchange, radix4-dissemination)");
}

/// Load either --schedule or --algorithm against a loaded profile.
StoredSchedule schedule_from_args(const Args& args,
                                  const TopologyProfile& profile) {
  OPTIBAR_REQUIRE(args.has("schedule") != args.has("algorithm"),
                  "give exactly one of --schedule and --algorithm");
  if (args.has("schedule")) {
    StoredSchedule stored = load_schedule_file(args.require("schedule"));
    OPTIBAR_REQUIRE(stored.schedule.ranks() == profile.ranks(),
                    "schedule has " << stored.schedule.ranks()
                                    << " ranks, profile "
                                    << profile.ranks());
    return stored;
  }
  StoredSchedule stored;
  stored.schedule =
      algorithm_by_name(args.require("algorithm"), profile.ranks());
  return stored;
}

int cmd_machines(const Args& args, std::ostream& out) {
  args.check_allowed({});
  Table table({"name", "nodes", "sockets", "cores/socket", "cores",
               "internode_O[us]", "internode_L[us]"});
  for (const MachineSpec& m :
       {quad_cluster(), hex_cluster(), skewed_cluster(), tenk_cluster()}) {
    table.add_row({m.name(), Table::num(m.nodes()),
                   Table::num(m.sockets_per_node()),
                   Table::num(m.cores_per_socket()),
                   Table::num(m.total_cores()),
                   Table::num(m.tiers().inter_node.overhead * 1e6, 1),
                   Table::num(m.tiers().inter_node.latency * 1e6, 1)});
  }
  table.print(out);
  out << "\nuse --machine quad|hex|skewed|tenk (optionally --nodes N)\n";
  return 0;
}

int cmd_profile(const Args& args, std::ostream& out) {
  args.check_allowed({"machine", "machine-file", "nodes", "ranks", "mapping",
                      "estimate", "noise", "median", "heterogeneity", "seed",
                      "reps", "out", "tiled"});
  const std::size_t ranks = args.require_size("ranks");
  if (args.has("tiled")) {
    // Direct tiled (v4) generation: the only path that reaches 10k
    // ranks, since it never touches a dense P x P matrix. Exact tiers
    // only — jitter and estimation would break block structure.
    OPTIBAR_REQUIRE(!args.has("estimate") && !args.has("heterogeneity") &&
                        !args.has("mapping"),
                    "--tiled generates exact block-mapped profiles; it "
                    "cannot combine with --estimate, --heterogeneity, or "
                    "--mapping");
    const MachineSpec machine =
        machine_by_name(args.require("machine"), args.size_or("nodes", 0));
    const TiledProfile tiled = generate_tiled_profile(machine, ranks);
    const std::string path = args.require("out");
    tiled.save_file(path);
    out << "wrote " << ranks << "-rank tiled profile of " << machine.name()
        << " (" << tiled.cluster_count() << " clusters, "
        << tiled.class_count() << " class(es)) to " << path << "\n";
    return 0;
  }
  OPTIBAR_REQUIRE(args.has("machine") != args.has("machine-file"),
                  "give exactly one of --machine and --machine-file");
  if (args.has("machine-file")) {
    // Machine description from disk; irregular machines use identity
    // rank placement and ground-truth generation.
    const MachineFile parsed = load_machine_file(args.require("machine-file"));
    OPTIBAR_REQUIRE(
        !args.has("estimate"),
        "--estimate is only supported with the built-in machine presets");
    TopologyProfile profile = [&] {
      if (parsed.uniform) {
        const MachineSpec machine = parsed.to_spec();
        const Mapping mapping = mapping_by_name(
            args.get_or("mapping", "round-robin"), machine, ranks);
        GenerateOptions options;
        options.heterogeneity = args.double_or("heterogeneity", 0.0);
        options.seed = args.size_or("seed", 42);
        return generate_profile(machine, mapping, options);
      }
      return generate_profile(parsed.to_custom(), ranks);
    }();
    const std::string path = args.require("out");
    profile.save_file(path);
    out << "wrote " << ranks << "-rank profile of " << parsed.name << " ("
        << (parsed.uniform ? "uniform" : "irregular") << " machine file) to "
        << path << "\n";
    return 0;
  }
  const MachineSpec machine =
      machine_by_name(args.require("machine"), args.size_or("nodes", 0));
  const Mapping mapping =
      mapping_by_name(args.get_or("mapping", "round-robin"), machine, ranks);

  TopologyProfile profile = [&] {
    if (!args.has("estimate")) {
      GenerateOptions options;
      options.heterogeneity = args.double_or("heterogeneity", 0.0);
      options.seed = args.size_or("seed", 42);
      return generate_profile(machine, mapping, options);
    }
    SyntheticEngineOptions engine_options;
    engine_options.noise = args.double_or("noise", 0.02);
    engine_options.seed = args.size_or("seed", 7);
    SyntheticEngine engine(machine, mapping, engine_options);
    EstimatorOptions est;
    est.repetitions = args.size_or("reps", 25);
    if (args.has("median")) {
      est.aggregator = SampleAggregator::kMedian;
    }
    return estimate_profile(engine, est);
  }();

  const std::string path = args.require("out");
  profile.save_file(path);
  out << "wrote " << ranks << "-rank profile of " << machine.name() << " ("
      << mapping.policy() << " mapping"
      << (args.has("estimate") ? ", estimated" : ", ground truth") << ") to "
      << path << "\n";
  return 0;
}

int cmd_heatmap(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "matrix"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const std::string which = args.get_or("matrix", "L");
  OPTIBAR_REQUIRE(which == "L" || which == "O",
                  "--matrix must be L or O, got " << which);
  out << which << " matrix heat map, " << profile.ranks() << " ranks:\n";
  out << render_heatmap(which == "L" ? profile.latency()
                                     : profile.overhead());
  return 0;
}

int tune_hierarchical_cmd(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "hierarchical", "extended", "sparseness",
                      "schedule-out", "threads", "simulate", "reps", "jitter",
                      "seed", "tolerance", "min-gap-ratio"});
  EngineOptions options;
  options.clustering.sss.sparseness = args.double_or("sparseness", 0.35);
  options.threads = args.size_or("threads", 1);
  if (args.has("extended")) {
    options.composition.algorithms = extended_algorithms();
  }
  const std::string path = args.require("profile");
  const HierarchicalTuneResult tuned = [&] {
    if (is_tiled_profile_file(path)) {
      return tune_hierarchical(TiledProfile::load_file(path), options);
    }
    DetectOptions detection;
    detection.tolerance = args.double_or("tolerance", 0.05);
    detection.min_gap_ratio = args.double_or("min-gap-ratio", 3.0);
    return tune_hierarchical(TopologyProfile::load_file(path), options,
                             detection);
  }();

  out << tuned.describe();
  out.setf(std::ios::scientific);
  out << "predicted cost: " << tuned.predicted_cost << " s\n";

  if (args.has("simulate")) {
    // Netsim the tuned plan to completion — on the compiled plan the
    // tuner priced; no dense stage matrix even at 10k.
    SimOptions sim;
    sim.jitter = args.double_or("jitter", 0.03);
    sim.seed = args.size_or("seed", 2011);
    const std::size_t reps = args.size_or("reps", 5);
    double total = 0.0;
    if (tuned.used_dense_fallback) {
      ThreadPool pool(options.resolved_threads());
      total = simulate_mean_time(tuned.dense->schedule(),
                                 tuned.dense->profile(), sim, reps, &pool) *
              static_cast<double>(reps);
    } else {
      SimWorkspace workspace;
      SimResult result;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        SimOptions rep_options = sim;
        rep_options.seed = sim.seed + rep;
        simulate_compiled_into(tuned.compiled, tuned.tiled, rep_options,
                               workspace, result);
        OPTIBAR_REQUIRE(!result.deadlocked,
                        "simulated barrier deadlocked at repetition " << rep);
        total += result.barrier_time();
      }
    }
    out << "simulated barrier time: " << total / static_cast<double>(reps)
        << " s (mean of " << reps << " repetitions, jitter " << sim.jitter
        << ")\n";
  }

  if (args.has("schedule-out")) {
    OPTIBAR_REQUIRE(!tuned.used_dense_fallback,
                    "--schedule-out on the dense fallback path: rerun "
                    "without --hierarchical");
    StoredSchedule stored;
    // save_schedule_file refuses P > 8192: the text is P^2 cells a stage.
    stored.schedule = tuned.blocked.to_dense();
    stored.awaited_stages = tuned.blocked.awaited_stages();
    save_schedule_file(args.require("schedule-out"), stored);
    out << "schedule written to " << args.require("schedule-out") << "\n";
  }
  return 0;
}

int cmd_tune(const Args& args, std::ostream& out) {
  if (args.has("hierarchical")) {
    return tune_hierarchical_cmd(args, out);
  }
  args.check_allowed({"profile", "extended", "optimize", "sparseness",
                      "schedule-out", "code-out", "function", "threads"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  EngineOptions options;
  options.function_name = args.get_or("function", "optibar_barrier");
  options.clustering.sss.sparseness = args.double_or("sparseness", 0.35);
  options.threads = args.size_or("threads", 1);
  if (args.has("extended")) {
    options.composition.algorithms = extended_algorithms();
  }
  const TuneResult tuned = tune_barrier(profile, options);

  out << describe_tree(tuned.cluster_tree());
  out << tuned.barrier().describe();
  out.setf(std::ios::scientific);
  out << "predicted cost: " << tuned.predicted_cost() << " s\n";

  Schedule final_schedule = tuned.schedule();
  std::vector<bool> awaited = tuned.barrier().awaited_stages;
  if (args.has("optimize")) {
    const OptimizeResult optimized =
        optimize_schedule(final_schedule, tuned.profile());
    out << "post-optimization: " << optimized.signals_removed
        << " signals pruned, " << optimized.stages_fused
        << " stages fused, predicted " << optimized.cost_before << " -> "
        << optimized.cost_after << " s\n";
    final_schedule = optimized.schedule;
    // Stage identities changed; conservative Eq. 1 pricing from here on.
    awaited.clear();
  }

  if (args.has("schedule-out")) {
    StoredSchedule stored;
    stored.schedule = final_schedule;
    stored.awaited_stages = awaited;
    save_schedule_file(args.require("schedule-out"), stored);
    out << "schedule written to " << args.require("schedule-out") << "\n";
  }
  if (args.has("code-out")) {
    std::ofstream code(args.require("code-out"));
    OPTIBAR_REQUIRE(code.is_open(),
                    "cannot open " << args.require("code-out"));
    code << generate_cpp(final_schedule,
                         args.get_or("function", "optibar_barrier"))
                .source;
    out << "generated source written to " << args.require("code-out") << "\n";
  }
  return 0;
}

int cmd_predict(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "schedule", "algorithm"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const StoredSchedule stored = schedule_from_args(args, profile);
  PredictOptions options;
  options.awaited_stages = stored.awaited_stages;
  const Prediction prediction =
      predict(stored.schedule, profile, options);
  out.setf(std::ios::scientific);
  out << "predicted critical path: " << prediction.critical_path << " s over "
      << stored.schedule.stage_count() << " stages\n";
  for (std::size_t s = 0; s < prediction.stage_increment.size(); ++s) {
    out << "  stage " << s << ": +" << prediction.stage_increment[s] << " s\n";
  }
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "schedule", "algorithm", "reps", "jitter",
                      "seed", "faults", "slack", "retries",
                      "deadline-floor-ms", "threads"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const StoredSchedule stored = schedule_from_args(args, profile);
  OPTIBAR_REQUIRE(stored.schedule.is_barrier(),
                  "refusing to simulate a non-barrier pattern");
  if (args.has("faults")) {
    // Fault-injection mode: execute the schedule on the real threaded
    // runtime under the given fault plan, with bounded per-stage waits,
    // and render the stall diagnostics. Exit 4 when any rank stalled.
    const FaultPlan faults = FaultPlan::parse(args.require("faults"));
    PredictOptions predict_options;
    predict_options.awaited_stages = stored.awaited_stages;
    const Prediction prediction =
        predict(stored.schedule, profile, predict_options);
    simmpi::ResilienceOptions resilience;
    resilience.predicted_stage_seconds = prediction.stage_increment;
    resilience.slack = args.double_or("slack", 8.0);
    resilience.max_retries = args.size_or("retries", 1);
    resilience.deadline_floor = std::chrono::milliseconds(
        args.size_or("deadline-floor-ms", 10));
    const simmpi::ScheduleExecutor executor(stored.schedule);
    const simmpi::StallReport report =
        executor.run_once_resilient(resilience, faults);
    out << "fault plan: " << faults.spec() << "\n" << report.describe();
    return report.stalled ? 4 : 0;
  }
  SimOptions options;
  options.jitter = args.double_or("jitter", 0.03);
  options.seed = args.size_or("seed", 2011);
  const std::size_t reps = args.size_or("reps", 25);
  // Repetitions are seed-independent, so they fan out; the mean is
  // bit-identical at any thread count.
  ThreadPool pool(args.size_or("threads", 1));
  const double mean_time =
      simulate_mean_time(stored.schedule, profile, options, reps, &pool);
  out.setf(std::ios::scientific);
  out << "simulated barrier time: " << mean_time << " s (mean of " << reps
      << " repetitions, jitter " << options.jitter << ")\n";
  return 0;
}

int cmd_compare(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "reps", "jitter", "seed", "extended",
                      "threads", "transport"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const std::size_t p = profile.ranks();
  SimOptions sim_options;
  sim_options.jitter = args.double_or("jitter", 0.03);
  sim_options.seed = args.size_or("seed", 2011);
  const std::size_t reps = args.size_or("reps", 25);
  const rma::Transport transport =
      rma::parse_transport(args.get_or("transport", "two-sided"));

  EngineOptions tune_options;
  tune_options.threads = args.size_or("threads", 1);
  if (args.has("extended")) {
    tune_options.composition.algorithms = extended_algorithms();
  }
  const TuneResult tuned = tune_barrier(profile, tune_options);

  // The same worker pool the tuner used now fans out simulation reps.
  ThreadPool sim_pool(tune_options.threads);
  Table table({"algorithm", "stages", "signals", "predicted[s]",
               "simulated[s]"});
  auto add = [&](const std::string& name, const Schedule& schedule,
                 const std::vector<bool>& awaited) {
    PredictOptions predict_options;
    predict_options.awaited_stages = awaited;
    table.add_row(
        {name, Table::num(schedule.stage_count()),
         Table::num(schedule.total_signals()),
         Table::num(predicted_time(schedule, profile, predict_options), 8),
         Table::num(simulate_mean_time(schedule, profile, sim_options, reps,
                                       &sim_pool),
                    8)});
  };
  add("linear", linear_barrier(p), {});
  add("dissemination", dissemination_barrier(p), {});
  add("tree (MPI)", tree_barrier(p), {});
  add("hybrid (tuned)", tuned.schedule(), tuned.barrier().awaited_stages);
  if (transport != rma::Transport::kTwoSided) {
    // Re-tag the tuned signal pattern under the requested transport
    // policy: predicted and simulated columns then price put edges
    // through the extended (R-aware) cost model and the netsim put
    // path, against the all-two-sided row above.
    Schedule tagged = tuned.schedule();
    rma::assign_transports(tagged, profile, tuned.barrier().awaited_stages,
                           transport);
    add("hybrid (tuned, " + std::string(rma::transport_name(transport)) +
            ", " + Table::num(tagged.one_sided_signal_count()) + " puts)",
        tagged, tuned.barrier().awaited_stages);
  }
  table.print(out);
  return 0;
}

int cmd_trace(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "schedule", "algorithm", "seed", "jitter",
                      "format"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const StoredSchedule stored = schedule_from_args(args, profile);
  OPTIBAR_REQUIRE(stored.schedule.is_barrier(),
                  "refusing to trace a non-barrier pattern");
  SimOptions options;
  options.record_trace = true;
  options.jitter = args.double_or("jitter", 0.0);
  options.seed = args.size_or("seed", 2011);
  const SimResult result = simulate(stored.schedule, profile, options);
  const std::string format = args.get_or("format", "csv");
  if (format == "csv") {
    write_trace_csv(out, result);
  } else if (format == "chrome") {
    write_trace_chrome_json(out, result);
  } else {
    OPTIBAR_FAIL("--format must be csv or chrome, got " << format);
  }
  return 0;
}

int cmd_sweep(const Args& args, std::ostream& out) {
  args.check_allowed({"machine", "machine-file", "nodes", "from", "to",
                      "mapping", "reps", "jitter", "seed", "threads"});
  OPTIBAR_REQUIRE(args.has("machine") != args.has("machine-file"),
                  "give exactly one of --machine and --machine-file");
  const std::size_t from = args.size_or("from", 2);
  OPTIBAR_REQUIRE(from >= 2, "--from must be >= 2");
  SimOptions sim;
  sim.jitter = args.double_or("jitter", 0.03);
  sim.seed = args.size_or("seed", 2011);
  const std::size_t reps = args.size_or("reps", 25);

  // Per-P profile factory for either machine source.
  std::function<TopologyProfile(std::size_t)> profile_for;
  std::size_t capacity = 0;
  if (args.has("machine")) {
    const MachineSpec machine =
        machine_by_name(args.require("machine"), args.size_or("nodes", 0));
    const std::string mapping_name = args.get_or("mapping", "round-robin");
    capacity = machine.total_cores();
    profile_for = [machine, mapping_name](std::size_t p) {
      return generate_profile(
          machine, mapping_by_name(mapping_name, machine, p),
          GenerateOptions{});
    };
  } else {
    const MachineFile parsed = load_machine_file(args.require("machine-file"));
    if (parsed.uniform) {
      const MachineSpec machine = parsed.to_spec();
      const std::string mapping_name = args.get_or("mapping", "round-robin");
      capacity = machine.total_cores();
      profile_for = [machine, mapping_name](std::size_t p) {
        return generate_profile(
            machine, mapping_by_name(mapping_name, machine, p),
            GenerateOptions{});
      };
    } else {
      const CustomMachine machine = parsed.to_custom();
      capacity = machine.total_cores();
      profile_for = [machine](std::size_t p) {
        return generate_profile(machine, p);
      };
    }
  }
  const std::size_t to = args.size_or("to", capacity);
  OPTIBAR_REQUIRE(to >= from && to <= capacity,
                  "--to must be in [" << from << ", " << capacity << "]");

  EngineOptions tune_options;
  tune_options.threads = args.size_or("threads", 1);

  ThreadPool sim_pool(tune_options.threads);
  Table table({"P", "linear", "dissemination", "tree", "hybrid",
               "hybrid_root"});
  for (std::size_t p = from; p <= to; ++p) {
    const TopologyProfile profile = profile_for(p);
    const TuneResult tuned = tune_barrier(profile, tune_options);
    auto measured = [&](const Schedule& s) {
      return Table::num(simulate_mean_time(s, profile, sim, reps, &sim_pool),
                        8);
    };
    table.add_row({Table::num(p), measured(linear_barrier(p)),
                   measured(dissemination_barrier(p)),
                   measured(tree_barrier(p)), measured(tuned.schedule()),
                   tuned.barrier().root_algorithm});
  }
  table.print(out);
  out << "\nCSV:\n";
  table.print_csv(out);
  return 0;
}

int cmd_workload(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "schedule", "algorithm", "episodes",
                      "compute", "skew", "seed", "jitter", "timeline",
                      "reps", "threads"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const StoredSchedule stored = schedule_from_args(args, profile);
  OPTIBAR_REQUIRE(stored.schedule.is_barrier(),
                  "refusing to run a non-barrier pattern");
  WorkloadOptions options;
  options.episodes = args.size_or("episodes", 50);
  options.compute_mean = args.double_or("compute", 3e-4);
  options.compute_stddev = args.double_or("skew", 0.0);
  options.sim.seed = args.size_or("seed", 2011);
  options.sim.jitter = args.double_or("jitter", 0.0);
  const std::size_t reps = args.size_or("reps", 1);
  ThreadPool pool(args.size_or("threads", 1));
  const std::vector<WorkloadResult> runs =
      simulate_workload_reps(stored.schedule, profile, options, reps, &pool);
  const WorkloadResult& result = runs.front();
  out.setf(std::ios::scientific);
  out << "bulk-synchronous workload: " << options.episodes
      << " episodes, compute " << options.compute_mean << " s +- "
      << options.compute_stddev << " s\n"
      << "mean barrier span: " << result.mean_barrier_time() << " s\n"
      << "total synchronization wait: " << result.total_wait() << " s\n"
      << "makespan: " << result.makespan << " s\n";
  if (reps > 1) {
    double barrier_sum = 0.0;
    double wait_sum = 0.0;
    double makespan_sum = 0.0;
    for (const WorkloadResult& run : runs) {
      barrier_sum += run.mean_barrier_time();
      wait_sum += run.total_wait();
      makespan_sum += run.makespan;
    }
    const double n = static_cast<double>(reps);
    out << "across " << reps << " repetitions:\n"
        << "  mean barrier span: " << barrier_sum / n << " s\n"
        << "  mean total wait: " << wait_sum / n << " s\n"
        << "  mean makespan: " << makespan_sum / n << " s\n";
  }
  if (args.has("timeline")) {
    SimOptions one;
    one.seed = options.sim.seed;
    one.jitter = options.sim.jitter;
    one.record_trace = true;
    const SimResult episode = simulate(stored.schedule, profile, one);
    out << "\nsingle-episode " << render_timeline(episode);
  }
  return 0;
}

// Comma-separated --ratios list, each in [0,1].
std::vector<double> parse_ratio_list(const std::string& spec) {
  std::vector<double> ratios;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      continue;
    }
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &consumed);
    } catch (const std::exception&) {
      OPTIBAR_FAIL("bad ratio '" << item << "' in --ratios");
    }
    OPTIBAR_REQUIRE(consumed == item.size(),
                    "bad ratio '" << item << "' in --ratios");
    OPTIBAR_REQUIRE(value >= 0.0 && value <= 1.0,
                    "ratio " << value << " outside [0,1]");
    ratios.push_back(value);
  }
  OPTIBAR_REQUIRE(!ratios.empty(), "--ratios lists no values");
  return ratios;
}

int cmd_overlap(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "schedule", "algorithm", "compute", "skew",
                      "ratios", "poll", "reps", "seed", "jitter", "threads"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  const StoredSchedule stored = schedule_from_args(args, profile);
  OPTIBAR_REQUIRE(stored.schedule.is_barrier(),
                  "refusing to overlap a non-barrier pattern");
  OverlapOptions options;
  options.compute_seconds = args.double_or("compute", 1e-3);
  options.compute_stddev = args.double_or("skew", 0.0);
  options.poll_interval = args.double_or("poll", 5e-5);
  options.sim.seed = args.size_or("seed", 2011);
  options.sim.jitter = args.double_or("jitter", 0.0);
  const std::size_t reps = args.size_or("reps", 5);
  const std::vector<double> ratios =
      parse_ratio_list(args.get_or("ratios", "0,0.25,0.5,0.75,1"));
  ThreadPool pool(args.size_or("threads", 1));

  // Analytic companion to the sweep: the Eq. 1/2 predictor gives the
  // blocking barrier span; overlapping hides up to ratio * compute of
  // it, and tick-granular progress adds about half a poll interval per
  // non-empty stage while the host computes. The simulated column is
  // ground truth; this is the curve EXPERIMENTS.md compares against.
  PredictOptions predict_options;
  predict_options.awaited_stages = stored.awaited_stages;
  const double t_pred = predicted_time(stored.schedule, profile,
                                       predict_options);
  const double poll_term =
      static_cast<double>(stored.schedule.nonempty_stage_count()) *
      options.poll_interval * 0.5;

  out.setf(std::ios::scientific);
  out << "overlap sweep: compute " << options.compute_seconds << " s +- "
      << options.compute_stddev << " s, poll " << options.poll_interval
      << " s, " << reps << " repetition(s)\n"
      << "predicted blocking barrier (Eq. 1/2): " << t_pred << " s\n";
  Table table({"ratio", "blocking[s]", "nonblocking[s]", "saved[s]",
               "exposed[s]", "predicted-exposed[s]", "efficiency"});
  for (const double ratio : ratios) {
    options.overlap_ratio = ratio;
    const OverlapResult result = simulate_overlap_mean(
        stored.schedule, profile, options, reps, &pool);
    const double predicted_exposed =
        ratio == 0.0
            ? t_pred
            : std::max(0.0, t_pred + poll_term -
                                ratio * options.compute_seconds);
    table.add_row({Table::num(ratio, 2),
                   Table::num(result.blocking_completion, 8),
                   Table::num(result.nonblocking_completion, 8),
                   Table::num(result.saved, 8),
                   Table::num(result.exposed_wait, 8),
                   Table::num(predicted_exposed, 8),
                   Table::num(result.overlap_efficiency, 3)});
  }
  table.print(out);
  return 0;
}

CollectiveOp collective_op_by_name(const std::string& name) {
  if (name == "bcast") {
    return CollectiveOp::kBroadcast;
  }
  if (name == "reduce") {
    return CollectiveOp::kReduce;
  }
  if (name == "allreduce") {
    return CollectiveOp::kAllreduce;
  }
  OPTIBAR_FAIL("unknown collective op '" << name
                                         << "' (bcast, reduce, allreduce)");
}

int cmd_collective(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "op", "bytes", "root", "threads", "reps",
                      "jitter", "seed", "schedule-out"});
  const TopologyProfile profile =
      TopologyProfile::load_file(args.require("profile"));
  CollectiveTuneOptions options;
  options.op = collective_op_by_name(args.get_or("op", "allreduce"));
  options.payload_bytes = args.size_or("bytes", 0);
  options.root = args.size_or("root", 0);
  EngineOptions engine;
  engine.threads = args.size_or("threads", 1);
  const CollectiveTuneResult tuned = tune_collective(profile, options, engine);

  out << to_string(options.op) << ", " << profile.ranks() << " ranks, "
      << options.payload_bytes << " payload bytes";
  if (options.op != CollectiveOp::kAllreduce) {
    out << ", root " << options.root;
  }
  out << ":\n" << tuned.describe();

  SimOptions sim;
  sim.jitter = args.double_or("jitter", 0.03);
  sim.seed = args.size_or("seed", 2011);
  const std::size_t reps = args.size_or("reps", 25);
  const double simulated =
      simulate_collective_mean_time(tuned.schedule(), tuned.profile(), sim,
                                    reps);
  out.setf(std::ios::scientific);
  out << "simulated time: " << simulated << " s (netsim mean of " << reps
      << " repetitions, jitter " << sim.jitter << ")\n";

  if (args.has("schedule-out")) {
    save_collective_file(args.require("schedule-out"), tuned.schedule());
    out << "collective schedule written to " << args.require("schedule-out")
        << "\n";
  }
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  args.check_allowed(
      {"schedule", "machine", "machine-file", "nodes", "mapping"});
  const StoredSchedule stored =
      load_schedule_file(args.require("schedule"));
  OPTIBAR_REQUIRE(args.has("machine") != args.has("machine-file"),
                  "give exactly one of --machine and --machine-file");
  if (args.has("machine-file")) {
    const MachineFile parsed = load_machine_file(args.require("machine-file"));
    if (!parsed.uniform) {
      out << describe_usage(stored.schedule, parsed.to_custom());
      return 0;
    }
    const MachineSpec machine = parsed.to_spec();
    const Mapping mapping =
        mapping_by_name(args.get_or("mapping", "round-robin"), machine,
                        stored.schedule.ranks());
    out << describe_usage(stored.schedule, machine, mapping);
    return 0;
  }
  const MachineSpec machine =
      machine_by_name(args.require("machine"), args.size_or("nodes", 0));
  const Mapping mapping =
      mapping_by_name(args.get_or("mapping", "round-robin"), machine,
                      stored.schedule.ranks());
  out << describe_usage(stored.schedule, machine, mapping);
  return 0;
}

int cmd_clusters(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "tolerance", "min-gap-ratio"});
  const std::string path = args.require("profile");
  if (is_tiled_profile_file(path)) {
    // A v4 file carries its decomposition; report it as stored.
    const TiledProfile tiled = TiledProfile::load_file(path);
    out << tiled.ranks() << " ranks in " << tiled.cluster_count()
        << " clusters of " << tiled.class_count()
        << " class(es), tolerance " << tiled.tolerance() << " (tiled v4)\n";
    Table table({"class", "clusters", "ranks/cluster"});
    for (std::size_t k = 0; k < tiled.class_count(); ++k) {
      std::size_t instances = 0;
      for (std::size_t cls : tiled.class_of()) {
        instances += cls == k ? 1 : 0;
      }
      table.add_row({Table::num(k), Table::num(instances),
                     Table::num(tiled.class_tile(k).ranks())});
    }
    table.print(out);
    return 0;
  }
  const TopologyProfile profile = TopologyProfile::load_file(path);
  DetectOptions detection;
  detection.tolerance = args.double_or("tolerance", 0.05);
  detection.min_gap_ratio = args.double_or("min-gap-ratio", 3.0);
  const ClusterDecomposition decomp =
      detect_logical_clusters(profile.symmetrized(), detection);
  if (decomp.single_cluster()) {
    out << profile.ranks() << " ranks, single logical cluster (no O gap of "
        << detection.min_gap_ratio << "x or more)\n";
    return 0;
  }
  out.setf(std::ios::scientific);
  out << profile.ranks() << " ranks in " << decomp.cluster_count()
      << " clusters of " << decomp.num_classes << " class(es), cut at "
      << decomp.threshold << " s\n";
  Table table({"cluster", "class", "size", "members"});
  for (std::size_t c = 0; c < decomp.cluster_count(); ++c) {
    const auto& members = decomp.clusters[c];
    std::string span = Table::num(members.front());
    if (members.size() > 1) {
      const bool contiguous =
          members.back() - members.front() + 1 == members.size();
      span += (contiguous ? ".." : ", .., ") + Table::num(members.back());
    }
    table.add_row({Table::num(c), Table::num(decomp.class_of[c]),
                   Table::num(members.size()), span});
  }
  table.print(out);
  // Whether `tune --hierarchical` would actually take the blocked path.
  try {
    TiledProfile::from_dense(profile.symmetrized(), decomp);
    out << "block-structured within tolerance " << detection.tolerance
        << ": yes (tune --hierarchical takes the blocked path)\n";
  } catch (const Error& error) {
    out << "block-structured within tolerance " << detection.tolerance
        << ": NO (tune --hierarchical falls back to the dense tuner)\n";
  }
  return 0;
}

int cmd_validate(const Args& args, std::ostream& out) {
  args.check_allowed({"schedule"});
  const StoredSchedule stored =
      load_schedule_file(args.require("schedule"));
  const bool valid = stored.schedule.is_barrier();
  out << "ranks: " << stored.schedule.ranks() << "\n"
      << "stages: " << stored.schedule.stage_count() << " ("
      << stored.schedule.nonempty_stage_count() << " non-empty)\n"
      << "signals: " << stored.schedule.total_signals() << "\n"
      << "barrier (Eq. 3): " << (valid ? "yes" : "NO") << "\n";
  return valid ? 0 : 2;
}

int cmd_library(const Args& args, std::ostream& out) {
  args.check_allowed({"profile", "threads", "auto-repair", "store", "soak",
                      "ops", "clients", "subsets", "seed"});
  EngineOptions options;
  options.threads = args.size_or("threads", 1);
  options.service.auto_repair = args.has("auto-repair");
  BarrierLibrary library = BarrierLibrary::from_profile_file(
      args.require("profile"), options);
  out << "plan service over " << library.ranks() << " ranks (auto-repair "
      << (options.service.auto_repair ? "on" : "off") << ")\n";

  // --store FILE is the warm-restart handle: load it when it exists,
  // save the (possibly grown) store back on the way out.
  const std::string store_path = args.get_or("store", "");
  if (!store_path.empty() && std::filesystem::exists(store_path)) {
    library.load_store(store_path);
    out << "warm restart: " << library.cache_size() << " plan(s) loaded from "
        << store_path << "\n";
  }

  if (args.has("soak")) {
    SoakOptions soak;
    soak.operations = args.size_or("ops", 100000);
    soak.clients = args.size_or("clients", 4);
    soak.subsets = args.size_or("subsets", 8);
    soak.seed = args.size_or("seed", 1);
    const SoakResult result = run_service_soak(library, soak);
    out << result.describe();
  } else {
    const LibraryEntry& world = library.full_barrier();
    out.setf(std::ios::scientific);
    out << "world plan: " << world.stored.schedule.stage_count()
        << " stages, predicted " << world.predicted_cost << " s, state "
        << to_string(library.plan_state([&] {
             std::vector<std::size_t> all(library.ranks());
             for (std::size_t i = 0; i < all.size(); ++i) {
               all[i] = i;
             }
             return all;
           }()))
        << "\n";
    const ServiceStats stats = library.stats();
    out << "cached plans " << library.cache_size() << ", tunes "
        << stats.tunes << ", quarantines " << stats.quarantines << "\n";
  }

  if (!store_path.empty()) {
    library.save_store(store_path);
    out << "plan store saved to " << store_path << " ("
        << library.cache_size() << " plan(s))\n";
  }
  return 0;
}

using Command = std::function<int(const Args&, std::ostream&)>;

const std::map<std::string, Command>& command_table() {
  static const std::map<std::string, Command> commands{
      {"machines", cmd_machines}, {"profile", cmd_profile},
      {"heatmap", cmd_heatmap},   {"tune", cmd_tune},
      {"clusters", cmd_clusters},
      {"predict", cmd_predict},   {"simulate", cmd_simulate},
      {"compare", cmd_compare},   {"analyze", cmd_analyze},
      {"validate", cmd_validate}, {"trace", cmd_trace},
      {"workload", cmd_workload}, {"sweep", cmd_sweep},
      {"collective", cmd_collective}, {"overlap", cmd_overlap},
      {"library", cmd_library},
  };
  return commands;
}

}  // namespace

std::string usage_text() {
  std::ostringstream os;
  os << "optibar — topology-adaptive barrier synthesis "
        "(Meyer & Elster, IPDPS 2011 reproduction)\n\n"
        "commands:\n"
        "  machines                         list machine presets\n"
        "  profile  (--machine M | --machine-file F) --ranks P --out FILE\n"
        "           [--mapping block|rr]\n"
        "           [--nodes N] [--estimate [--noise X] [--median] "
        "[--reps N]] [--heterogeneity X] [--seed N]\n"
        "           [--tiled]         # write the sub-quadratic v4 form\n"
        "                            # (exact tiers, block mapping; the\n"
        "                            # only path that reaches 10k ranks)\n"
        "  heatmap  --profile FILE [--matrix L|O]\n"
        "  tune     --profile FILE [--extended] [--optimize]\n"
        "           [--sparseness A]  # SSS alpha, paper default 0.35\n"
        "           [--threads N]     # tuning width; 0 = hardware\n"
        "           [--schedule-out FILE]\n"
        "           [--code-out FILE] [--function NAME]\n"
        "           [--hierarchical]  # sub-quadratic cluster-class tuner;\n"
        "                            # accepts dense or tiled profiles,\n"
        "                            # falls back densely on flat machines\n"
        "           [--simulate [--reps N] [--jitter X] [--seed N]]\n"
        "           [--tolerance X] [--min-gap-ratio X]\n"
        "  clusters --profile FILE [--tolerance X] [--min-gap-ratio X]\n"
        "           # logical-cluster decomposition of a dense profile,\n"
        "           # or the stored decomposition of a tiled one\n"
        "  predict  --profile FILE (--schedule FILE | --algorithm NAME)\n"
        "  simulate --profile FILE (--schedule FILE | --algorithm NAME)\n"
        "           [--reps N] [--jitter X] [--seed N] [--threads N]\n"
        "           [--faults SPEC]   # threaded fault-injection run;\n"
        "                            # SPEC e.g. "
        "'seed=1;drop=0>1@2:1'\n"
        "           [--slack X] [--retries N] [--deadline-floor-ms N]\n"
        "  compare  --profile FILE [--reps N] [--jitter X] [--extended]\n"
        "           [--threads N]\n"
        "           [--transport two-sided|one-sided|hybrid]  # adds a\n"
        "                            # put-tagged row vs the classic rows\n"
        "  analyze  --schedule FILE (--machine M | --machine-file F)\n"
        "           [--nodes N] [--mapping block|rr]\n"
        "  validate --schedule FILE\n"
        "  trace    --profile FILE (--schedule FILE | --algorithm NAME)\n"
        "           [--format csv|chrome] [--jitter X] [--seed N]\n"
        "  workload --profile FILE (--schedule FILE | --algorithm NAME)\n"
        "           [--episodes N] [--compute S] [--skew S] [--timeline]\n"
        "           [--reps N] [--threads N]\n"
        "  overlap  --profile FILE (--schedule FILE | --algorithm NAME)\n"
        "           [--compute S] [--skew S] [--ratios R1,R2,...]\n"
        "           [--poll S] [--reps N] [--jitter X] [--seed N] "
        "[--threads N]\n"
        "  sweep    (--machine M | --machine-file F) [--from P] [--to P]\n"
        "           [--mapping block|rr] [--reps N] [--threads N]\n"
        "  collective --profile FILE [--op bcast|reduce|allreduce]\n"
        "           [--bytes N] [--root R] [--threads N]\n"
        "           [--reps N] [--jitter X] [--seed N] [--schedule-out FILE]\n"
        "  library  --profile FILE [--threads N] [--auto-repair]\n"
        "           [--store FILE]    # warm-restart plan store: loaded if\n"
        "                            # present, saved back on exit\n"
        "           [--soak [--ops N] [--clients N] [--subsets N] "
        "[--seed N]]\n"
        "  help\n"
        "\n"
        "exit codes:\n"
        "  0 success    1 usage/execution error    2 validate: not a "
        "barrier\n"
        "  3 file unreadable or malformed          4 simulate --faults: "
        "stall detected\n";
  return os.str();
}

int run_cli(const std::vector<std::string>& arguments, std::ostream& out,
            std::ostream& err) {
  if (arguments.empty() || arguments[0] == "help" ||
      arguments[0] == "--help") {
    out << usage_text();
    return arguments.empty() ? 1 : 0;
  }
  const auto& commands = command_table();
  const auto it = commands.find(arguments[0]);
  if (it == commands.end()) {
    err << "unknown command '" << arguments[0] << "'\n\n" << usage_text();
    return 1;
  }
  try {
    const Args args = Args::parse(
        std::vector<std::string>(arguments.begin() + 1, arguments.end()));
    return it->second(args, out);
  } catch (const IoError& error) {
    err << "io error: " << error.what() << "\n";
    return 3;
  } catch (const Error& error) {
    err << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace optibar::cli
