#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

void Harness::expect(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Harness::tally(std::size_t attempted, std::size_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 16) {
    failures_.push_back(what);
  }
}

void Harness::sample(const std::string& name, double value) {
  if (recording) {
    samples_[traced ? 1 : 0][name].push_back(value);
  }
}

const std::vector<double>& Harness::samples(bool traced_side,
                                            const std::string& name) const {
  static const std::vector<double> kNone;
  const auto& side = samples_[traced_side ? 1 : 0];
  const auto it = side.find(name);
  return it == side.end() ? kNone : it->second;
}

void Harness::exact(const std::string& name, double value) {
  const auto [it, inserted] = exact_.emplace(name, value);
  if (!inserted && it->second != value) {
    std::ostringstream os;
    os.precision(17);
    os << name << " is not reproducible: " << value << " after "
       << it->second;
    expect(false, os.str());
    return;
  }
  expect(true, name);
}

double Harness::exact_value(const std::string& name) const {
  const auto it = exact_.find(name);
  return it == exact_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
