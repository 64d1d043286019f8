// Shared bookkeeping of the pipeline benchmark: output checks, timing
// samples, exact per-iteration values, and the workload interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Elapsed wall time since construction.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  double ns() const { return static_cast<double>(now_ns() - start_); }
  double ms() const { return ns() / 1e6; }

 private:
  std::uint64_t start_;
};

/// Everything one run records. Workloads report through it; main.cpp
/// turns it into metrics.
class Harness {
 public:
  Tracer tracer;

  /// True while the current iteration is traced. Samples of traced
  /// iterations feed the per-layer metrics, those of untraced ones the
  /// end-to-end metrics.
  bool traced = false;
  /// False during set-up rounds: their samples are discarded, but
  /// their checks and exact values count.
  bool recording = true;

  /// One output check (or one service operation): counts as attempted,
  /// and as failed when `ok` is false. The first failures are kept.
  void expect(bool ok, const std::string& what);
  /// Bulk form for operation loops.
  void tally(std::size_t attempted, std::size_t failed,
             const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// A timing or ratio sample of the current iteration.
  void sample(const std::string& name, double value);
  const std::vector<double>& samples(bool traced_side,
                                     const std::string& name) const;

  /// A value that must come out bit-identical in every iteration of the
  /// run (a count, or a deterministic virtual time). The first
  /// iteration fixes it; later ones are checked against it.
  void exact(const std::string& name, double value);
  /// The fixed value of `name`, or 0 when the workload never set it.
  double exact_value(const std::string& name) const;
  const std::map<std::string, double>& exact_values() const {
    return exact_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::vector<double>> samples_[2];
  std::map<std::string, double> exact_;
};

/// What a workload is run with. The seed is the only source of
/// variation; the library receives only inputs generated from it.
struct WorkloadConfig {
  std::string name;
  std::uint64_t seed = 1;
  bool tiny = false;     ///< smoke-test sizes
  std::string work_dir;  ///< where profile files are written
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from the seed and write the profile file.
  virtual void generate() = 0;

  /// One full pipeline iteration, starting from the profile file on
  /// disk. Records "plan_ms", exact values, layer samples and checks.
  virtual void iterate(Harness& harness) = 0;

  /// Reduce the iteration's raw per-call latencies to samples. Called
  /// after the iteration's clock stopped: it is not pipeline work.
  virtual void summarize(Harness& /*harness*/) {}

  /// One line describing the generated inputs.
  virtual std::string describe() const = 0;
};

/// The workload named hex-120, tenk-10240 or service-quad-32; throws
/// std::invalid_argument for any other name.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config);

}  // namespace perfbench
