// pipeline_bench: one workload of the optibar pipeline benchmark.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE] [--results-out FILE]
//                  [--commit ID] [--source-digest HEX] [--tiny]
//                  [--setup-only] [--setup-samples S1,S2,...]
//
// Set-up (input generation, the profile file, one warm-up iteration)
// is timed from process start. --setup-only stops there and prints the
// set-up seconds; --setup-samples passes in the set-up times of such
// earlier cold processes, and setup_s is the median of those and this
// process's own. Then identical pipeline iterations run until S seconds
// have passed. With --trace 1 every other iteration is traced:
// the traced ones give the per-layer metrics and the trace file, the
// untraced ones the overhead baseline. The last stdout line is the
// result object; the lines before it are a human-readable report.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr std::size_t kMinIterations = 3;
/// Largest share of a traced iteration that no layer span may cover.
constexpr double kUnaccountedTolerance = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool setup_only = false;
  std::vector<double> setup_samples;
  std::string work_dir;
  std::string trace_out;
  std::string results_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "pipeline_bench: " << problem
            << "\nusage: pipeline_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--results-out FILE] [--commit ID] [--source-digest HEX] "
               "[--tiny] [--setup-only] [--setup-samples S1,S2,...]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny" || flag == "--setup-only") {
      (flag == "--tiny" ? options.tiny : options.setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--results-out") {
        options.results_out = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else if (flag == "--setup-samples") {
        std::istringstream list(value);
        for (std::string item; std::getline(list, item, ',');) {
          options.setup_samples.push_back(std::stod(item));
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty() || options.work_dir.empty()) {
    usage("--workload and --work-dir are required");
  }
  if (!(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return options;
}

/// How a reported metric is derived from what the run recorded.
enum class Source {
  kMedian,  ///< median of the named sample
  kP99,     ///< 99th percentile of the named sample
  kExact,   ///< the bit-identical per-iteration value
};

struct MetricDef {
  const char* name;
  const char* unit;
  Source source;
  const char* sample;  ///< sample name when it differs from `name`
};

// The per-layer metrics, in BENCHMARK.json order. A layer that does not
// run on a workload reports 0.
const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"profile.load_ms", "ms", Source::kMedian, nullptr},
      {"profile.load_mb_per_s", "MB/s", Source::kMedian, nullptr},
      {"profile.detect_ms", "ms", Source::kMedian, nullptr},
      {"profile.self_ms", "ms", Source::kMedian, nullptr},
      {"core.tune_ms", "ms", Source::kMedian, nullptr},
      {"core.self_ms", "ms", Source::kMedian, nullptr},
      {"rma.assign_ms", "ms", Source::kMedian, nullptr},
      {"rma.one_sided_frac", "ratio", Source::kExact, nullptr},
      {"rma.self_ms", "ms", Source::kMedian, nullptr},
      {"barrier.compile_us", "us", Source::kMedian, nullptr},
      {"barrier.predict_us", "us", Source::kMedian, nullptr},
      {"barrier.validate_ms", "ms", Source::kMedian, nullptr},
      {"barrier.signals", "count", Source::kExact, nullptr},
      {"barrier.stages", "count", Source::kExact, nullptr},
      {"barrier.self_ms", "ms", Source::kMedian, nullptr},
      {"collective.tune_ms", "ms", Source::kMedian, nullptr},
      {"collective.candidates", "count", Source::kExact, nullptr},
      {"collective.episode_us", "us", Source::kMedian, nullptr},
      {"collective.bytes_per_episode", "bytes", Source::kExact, nullptr},
      {"collective.self_ms", "ms", Source::kMedian, nullptr},
      {"netsim.run_us", "us", Source::kMedian, nullptr},
      {"netsim.events", "count", Source::kExact, nullptr},
      {"netsim.events_per_s", "1/s", Source::kMedian, nullptr},
      {"netsim.self_ms", "ms", Source::kMedian, nullptr},
      {"simmpi.comm_setup_us", "us", Source::kMedian, nullptr},
      {"simmpi.post_us", "us", Source::kMedian, nullptr},
      {"simmpi.test_us", "us", Source::kMedian, nullptr},
      {"simmpi.episode_us", "us", Source::kMedian, nullptr},
      {"simmpi.episode_us_p99", "us", Source::kP99, "simmpi.episode_us"},
      {"simmpi.messages", "count", Source::kExact, nullptr},
      {"simmpi.puts", "count", Source::kExact, nullptr},
      {"simmpi.sweeps", "count", Source::kExact, nullptr},
      {"simmpi.self_ms", "ms", Source::kMedian, nullptr},
      {"library.tune_all_ms", "ms", Source::kMedian, nullptr},
      {"library.lookup_ns_p50", "ns", Source::kMedian, nullptr},
      {"library.lookup_ns_p99", "ns", Source::kMedian, nullptr},
      {"library.report_ns_p50", "ns", Source::kMedian, nullptr},
      {"library.report_ns_p99", "ns", Source::kMedian, nullptr},
      {"library.op_ns_p50", "ns", Source::kMedian, nullptr},
      {"library.op_ns_p99", "ns", Source::kMedian, nullptr},
      {"library.ops_per_s", "1/s", Source::kMedian, nullptr},
      {"library.hit_ratio", "ratio", Source::kExact, nullptr},
      {"library.tunes", "count", Source::kExact, nullptr},
      {"library.quarantines", "count", Source::kExact, nullptr},
      {"library.promotions", "count", Source::kExact, nullptr},
      {"library.repairs_promoted_frac", "ratio", Source::kExact, nullptr},
      {"library.repair_wait_ms", "ms", Source::kMedian, nullptr},
      {"library.degraded_lookup_frac", "ratio", Source::kExact, nullptr},
      {"library.self_ms", "ms", Source::kMedian, nullptr},
      {"trace.overhead_frac", "ratio", Source::kMedian, nullptr},
      {"trace.unaccounted_frac", "ratio", Source::kMedian, nullptr},
  };
  return defs;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + number(values[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The least-disturbed reading of a wall-time sample. The host's speed
/// drifts by up to 1.5x in phases of seconds, which only ever adds
/// time, so the fastest iteration of a run is its steadiest figure
/// (medians spread 0.2-0.37 between runs; WORKLOADS.md).
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = now_ns();
  const Options options = parse(argc, argv);
  if (!optimized_build()) {
    std::cerr << "pipeline_bench: refusing to report from an unoptimized "
                 "build (configure with CMAKE_BUILD_TYPE=Release)\n";
    return 3;
  }
  try {
    std::filesystem::create_directories(options.work_dir);
    WorkloadConfig config;
    config.name = options.workload;
    config.seed = options.seed;
    config.tiny = options.tiny;
    config.work_dir = options.work_dir;
    const std::unique_ptr<Workload> workload = make_workload(config);
    Harness h;

    // Set-up: generate and write the inputs, warm up once. Its checks
    // and exact values count; its layer timings are discarded.
    h.recording = false;
    workload->generate();
    workload->iterate(h);
    workload->summarize(h);
    const double own_setup_s =
        static_cast<double>(now_ns() - process_start) / 1e9;
    h.recording = true;
    if (options.setup_only) {
      for (const std::string& failure : h.failures()) {
        std::cerr << "pipeline_bench: FAILED: " << failure << "\n";
      }
      std::cout << number(own_setup_s) << std::endl;
      return h.failed() == 0 ? 0 : 1;
    }
    std::vector<double> setup_s = options.setup_samples;
    setup_s.push_back(own_setup_s);

    const Stopwatch run_clock;
    std::size_t iterations = 0;
    std::size_t traced_iterations = 0;
    while (iterations < kMinIterations ||
           run_clock.ns() < options.seconds * 1e9) {
      const bool traced = options.trace && iterations % 2 == 0;
      const auto index = static_cast<std::uint32_t>(iterations);
      h.traced = traced;
      h.tracer.set_enabled(traced);
      h.tracer.set_iteration(index);
      const Stopwatch clock;
      {
        ScopedSpan root(h.tracer, Layer::kPipeline, "iteration");
        workload->iterate(h);
      }
      const double pipeline_ns = clock.ns();
      h.tracer.set_enabled(false);
      h.sample("pipeline_ms", pipeline_ns / 1e6);
      if (traced) {
        ++traced_iterations;
        const auto self = h.tracer.self_ns(index);
        double accounted = 0.0;
        for (std::size_t l = 1; l < kLayerCount; ++l) {
          accounted += self[l];
          h.sample(std::string(layer_name(static_cast<Layer>(l))) + ".self_ms",
                   self[l] / 1e6);
        }
        const double unaccounted = 1.0 - accounted / pipeline_ns;
        h.sample("trace.unaccounted_frac", unaccounted);
        h.expect(unaccounted <= kUnaccountedTolerance,
                 "layer self times do not reconcile with pipeline_ms (" +
                     number(unaccounted) + " unaccounted)");
      }
      workload->summarize(h);
      ++iterations;
    }
    const double measured_s = run_clock.ns() / 1e9;

    // End-to-end metrics come from untraced iterations only.
    std::vector<Metric> end_to_end{
        {"setup_s", "s", median(setup_s)},
        {"plan_ms", "ms", fastest(h.samples(false, "plan_ms"))},
        {"pipeline_ms", "ms", fastest(h.samples(false, "pipeline_ms"))},
        {"plan_pred_us", "us", h.exact_value("plan_pred_us")},
        {"plan_sim_us", "us", h.exact_value("plan_sim_us")},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    // Layer metrics from the traced iterations, or — for the report of
    // an untraced run — from the untraced ones.
    const bool side = options.trace;
    if (options.trace) {
      h.traced = true;
      h.sample("trace.overhead_frac",
               fastest(h.samples(true, "pipeline_ms")) /
                       fastest(h.samples(false, "pipeline_ms")) -
                   1.0);
    }
    std::vector<Metric> layers;
    for (const MetricDef& def : layer_metrics()) {
      const std::string sample = def.sample ? def.sample : def.name;
      double value = 0.0;
      switch (def.source) {
        case Source::kMedian:
          value = median(h.samples(side, sample));
          break;
        case Source::kP99:
          value = quantile(h.samples(side, sample), 0.99);
          break;
        case Source::kExact:
          value = h.exact_value(sample);
          break;
      }
      layers.push_back({def.name, def.unit, value});
    }
    for (const std::vector<Metric>* group : {&end_to_end, &layers}) {
      for (const Metric& metric : *group) {
        h.expect(std::isfinite(metric.value),
                 metric.name + " is not a finite number");
      }
    }

    const auto nproc = static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN));
    std::ostringstream provenance;
    provenance << "{\"commit\": " << quoted(options.commit)
               << ", \"source_digest\": " << quoted(options.source_digest)
               << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
               << ", \"optimized\": true, \"compiler\": "
               << quoted(PERFBENCH_COMPILER) << ", \"nproc\": " << nproc
               << ", \"workload\": " << quoted(options.workload)
               << ", \"seed\": " << options.seed
               << ", \"tiny\": " << (options.tiny ? "true" : "false")
               << ", \"seconds\": " << number(options.seconds)
               << ", \"measured_s\": " << number(measured_s)
               << ", \"setup_rounds\": " << setup_s.size()
               << ", \"iterations\": " << iterations
               << ", \"traced_iterations\": " << traced_iterations
               << ", \"unaccounted_tolerance\": "
               << number(kUnaccountedTolerance) << "}";

    std::cout << "workload " << options.workload << ": "
              << workload->describe() << "\n";
    std::cout << "provenance: " << provenance.str() << "\n";
    std::cout << "end-to-end (untraced iterations; plan_ms and pipeline_ms "
                 "fastest, setup_s median of cold set-ups):\n";
    for (const Metric& metric : end_to_end) {
      std::cout << "  " << metric.name << " = " << number(metric.value) << " "
                << metric.unit << "\n";
    }
    std::cout << "per layer (" << (options.trace ? "traced" : "untraced")
              << " iterations; 0 = layer not on this workload's path):\n";
    for (const Metric& metric : layers) {
      std::cout << "  " << metric.name << " = " << number(metric.value) << " "
                << metric.unit << "\n";
    }
    const double failed_frac =
        static_cast<double>(h.failed()) / static_cast<double>(h.attempted());
    std::cout << "checks: " << h.attempted() << " attempted, " << h.failed()
              << " failed (failed_frac " << number(failed_frac) << ")\n";
    for (const std::string& failure : h.failures()) {
      std::cout << "  FAILED: " << failure << "\n";
    }

    const std::vector<Metric>& reported = options.trace ? layers : end_to_end;
    if (options.trace && !options.trace_out.empty()) {
      h.tracer.write_chrome_trace(options.trace_out);
    }
    if (!options.results_out.empty()) {
      std::ofstream out(options.results_out);
      out << "{\"provenance\": " << provenance.str()
          << ", \"attempted\": " << h.attempted()
          << ", \"failed\": " << h.failed()
          << ", \"failed_frac\": " << number(failed_frac)
          << ", \"end_to_end\": " << metrics_json(end_to_end)
          << ", \"per_layer\": " << metrics_json(layers)
          << ", \"setup_s_rounds\": " << numbers_json(setup_s)
          << ", \"pipeline_ms_iterations\": "
          << numbers_json(h.samples(false, "pipeline_ms"))
          << ", \"plan_ms_iterations\": "
          << numbers_json(h.samples(false, "plan_ms")) << ", \"exact\": {";
      const char* separator = "";
      for (const auto& [name, value] : h.exact_values()) {
        out << separator << quoted(name) << ": " << number(value);
        separator = ", ";
      }
      out << "}}\n";
    }
    std::cout << "{\"correct\": " << (h.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << h.attempted()
              << ", \"failed\": " << h.failed()
              << ", \"metrics\": " << metrics_json(reported) << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "pipeline_bench: " << error.what() << "\n";
    return 1;
  }
}
