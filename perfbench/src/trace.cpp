#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kPipeline:
      return "pipeline";
    case Layer::kProfile:
      return "profile";
    case Layer::kCore:
      return "core";
    case Layer::kRma:
      return "rma";
    case Layer::kBarrier:
      return "barrier";
    case Layer::kCollective:
      return "collective";
    case Layer::kNetsim:
      return "netsim";
    case Layer::kSimmpi:
      return "simmpi";
    case Layer::kLibrary:
      return "library";
  }
  return "unknown";
}

std::uint32_t Tracer::begin(Layer layer, const char* name) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.iteration = iteration_;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::end(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("trace spans closed out of order");
  }
  open_.pop_back();
}

std::array<double, kLayerCount> Tracer::self_ns(std::uint32_t iteration) const {
  std::array<double, kLayerCount> self{};
  for (const Span& span : spans_) {
    if (span.iteration != iteration) {
      continue;
    }
    self[static_cast<std::size_t>(span.layer)] += span.duration_ns();
    if (span.parent != kNoParent) {
      self[static_cast<std::size_t>(spans_[span.parent].layer)] -=
          span.duration_ns();
    }
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buffer[96];
  for (const Span& span : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(span.start_ns - origin) / 1e3);
    out << "{\"name\":\"" << layer_name(span.layer) << '.' << span.name
        << "\",\"cat\":\"" << layer_name(span.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buffer;
    std::snprintf(buffer, sizeof(buffer), "%.3f", span.duration_ns() / 1e3);
    out << ",\"dur\":" << buffer << ",\"args\":{\"iteration\":"
        << span.iteration << "}}";
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("failed writing trace file " + path);
  }
}

}  // namespace perfbench
