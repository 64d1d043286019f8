// In-memory span tracer of the pipeline benchmark.
//
// The benchmark records one span around every call it makes into an
// optibar layer (profile, core, rma, barrier, collective, netsim,
// simmpi, library), plus one root span per pipeline iteration. Spans
// stay in memory; write_chrome_trace() dumps them when the run ends.
// A layer's self time is the duration of its spans minus the part
// covered by their child spans, so the self times of all layers plus
// the root's own self time add up to the iteration exactly — the
// root's share is the harness time no layer span accounts for.
//
// When the tracer is disabled, ScopedSpan is one predictable branch:
// untraced iterations pay no clock reads and no allocation for it.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The measured layers, named after the repository modules. kPipeline
/// is the root span of one iteration (the harness itself).
enum class Layer : std::uint8_t {
  kPipeline,
  kProfile,
  kCore,
  kRma,
  kBarrier,
  kCollective,
  kNetsim,
  kSimmpi,
  kLibrary,
};
inline constexpr std::size_t kLayerCount = 9;

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kPipeline;
  const char* name = "";  ///< static string literal
  std::uint32_t parent = 0;
  std::uint32_t iteration = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_iteration(std::uint32_t iteration) { iteration_ = iteration; }

  std::uint32_t begin(Layer layer, const char* name);
  void end(std::uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time (ns) of the spans of one iteration.
  std::array<double, kLayerCount> self_ns(std::uint32_t iteration) const;

  /// Chrome trace-event JSON ("X" complete events, µs timestamps).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: records [construction, destruction) when the tracer is
/// enabled, does nothing otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, const char* name)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      index_ = tracer_->begin(layer, name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->end(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
