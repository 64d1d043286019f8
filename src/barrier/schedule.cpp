#include "barrier/schedule.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace optibar {

namespace {

bool signal_less(const Signal& a, const Signal& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

/// The signal i -> j of `stage`, or nullptr.
const Signal* find_signal(const Stage& stage, std::size_t i, std::size_t j) {
  const Signal key{static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(j)};
  const auto it =
      std::lower_bound(stage.begin(), stage.end(), key, signal_less);
  return it != stage.end() && it->src == i && it->dst == j ? &*it : nullptr;
}

}  // namespace

void normalize_stage(Stage& stage) {
  std::sort(stage.begin(), stage.end(), signal_less);
  std::size_t out = 0;
  for (std::size_t k = 0; k < stage.size(); ++k) {
    if (out > 0 && stage[out - 1].src == stage[k].src &&
        stage[out - 1].dst == stage[k].dst) {
      stage[out - 1].one_sided = stage[out - 1].one_sided || stage[k].one_sided;
    } else {
      stage[out++] = stage[k];
    }
  }
  stage.resize(out);
}

Knowledge::Knowledge(std::size_t ranks)
    : ranks_(ranks),
      words_((ranks + 63) / 64),
      bits_(ranks * words_, 0),
      receives_(ranks, 0) {
  for (std::size_t j = 0; j < ranks_; ++j) {
    bits_[j * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
  }
}

void Knowledge::apply(const Stage& stage) {
  // Stage the pre-stage rows of ranks that receive (their rows change)
  // and also send (their rows are read): a receive-only rank is never
  // read, and a send-only rank's row does not change in this stage.
  for (const Signal& signal : stage) {
    receives_[signal.dst] = 1;
  }
  staged_row_.clear();
  staged_.clear();
  for (std::size_t k = 0; k < stage.size(); ++k) {
    const std::uint32_t src = stage[k].src;
    if (receives_[src] && (k == 0 || stage[k - 1].src != src)) {
      staged_row_.push_back(src);
      const auto row =
          bits_.begin() + static_cast<std::ptrdiff_t>(src * words_);
      staged_.insert(staged_.end(), row,
                     row + static_cast<std::ptrdiff_t>(words_));
    }
  }
  std::size_t next_staged = 0;
  for (std::size_t k = 0; k < stage.size(); ++k) {
    const std::uint32_t src = stage[k].src;
    // Staged senders ascend like the signals, so a cursor finds them.
    while (next_staged < staged_row_.size() && staged_row_[next_staged] < src) {
      ++next_staged;
    }
    const bool staged =
        next_staged < staged_row_.size() && staged_row_[next_staged] == src;
    const std::uint64_t* from = staged ? &staged_[next_staged * words_]
                                       : &bits_[src * words_];
    std::uint64_t* to = &bits_[stage[k].dst * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      to[w] |= from[w];
    }
  }
  for (const Signal& signal : stage) {
    receives_[signal.dst] = 0;
  }
}

bool Knowledge::complete() const {
  // Bits past ranks_ are never set, so a row is full iff it counts P.
  for (std::size_t j = 0; j < ranks_; ++j) {
    std::size_t known = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      known += static_cast<std::size_t>(std::popcount(bits_[j * words_ + w]));
    }
    if (known != ranks_) {
      return false;
    }
  }
  return true;
}

Schedule::Schedule(std::size_t ranks) : ranks_(ranks) {
  OPTIBAR_REQUIRE(ranks_ > 0, "schedule needs at least one rank");
  OPTIBAR_REQUIRE(ranks_ <= 0xFFFFFFFFu,
                  "schedule over " << ranks_ << " ranks exceeds 32-bit ranks");
}

Schedule::Schedule(std::size_t ranks, std::vector<Stage> stages)
    : Schedule(ranks) {
  stages_.reserve(stages.size());
  for (Stage& stage : stages) {
    append_stage(std::move(stage));
  }
}

const Stage& Schedule::stage(std::size_t s) const {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "stage " << s << " out of range (" << stages_.size()
                           << " stages)");
  return stages_[s];
}

void Schedule::append_stage(Stage stage) {
  for (std::size_t k = 0; k < stage.size(); ++k) {
    const Signal& signal = stage[k];
    OPTIBAR_REQUIRE(signal.src < ranks_ && signal.dst < ranks_,
                    "signal " << signal.src << " -> " << signal.dst
                              << " out of range for " << ranks_ << " ranks");
    OPTIBAR_REQUIRE(signal.src != signal.dst,
                    "stage has a self-signal at rank "
                        << signal.src << "; the diagonal must be zero");
    OPTIBAR_REQUIRE(k == 0 || signal_less(stage[k - 1], signal),
                    "stage signals must be sorted by (src, dst) without "
                    "duplicates; "
                        << stage[k - 1].src << " -> " << stage[k - 1].dst
                        << " precedes " << signal.src << " -> "
                        << signal.dst);
  }
  stages_.push_back(std::move(stage));
}

void Schedule::pop_stage() {
  OPTIBAR_REQUIRE(!stages_.empty(), "pop_stage on an empty schedule");
  stages_.pop_back();
}

void Schedule::set_one_sided(std::size_t s, std::size_t k, bool put) {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "set_one_sided stage " << s << " out of range ("
                                         << stages_.size() << " stages)");
  OPTIBAR_REQUIRE(k < stages_[s].size(), "stage " << s << " has "
                                                  << stages_[s].size()
                                                  << " signals, no signal "
                                                  << k);
  stages_[s][k].one_sided = put;
}

void Schedule::set_all_one_sided(std::size_t s, bool put) {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "set_all_one_sided stage " << s << " out of range ("
                                             << stages_.size() << " stages)");
  for (Signal& signal : stages_[s]) {
    signal.one_sided = put;
  }
}

bool Schedule::has_signal(std::size_t s, std::size_t i, std::size_t j) const {
  return find_signal(stage(s), i, j) != nullptr;
}

bool Schedule::one_sided(std::size_t s, std::size_t i, std::size_t j) const {
  const Signal* signal = find_signal(stage(s), i, j);
  return signal != nullptr && signal->one_sided;
}

bool Schedule::has_one_sided() const {
  return one_sided_signal_count() > 0;
}

std::size_t Schedule::one_sided_signal_count() const {
  std::size_t n = 0;
  for (const Stage& stage : stages_) {
    n += static_cast<std::size_t>(std::count_if(
        stage.begin(), stage.end(),
        [](const Signal& signal) { return signal.one_sided; }));
  }
  return n;
}

std::vector<std::size_t> Schedule::targets_of(std::size_t rank,
                                              std::size_t s) const {
  const Stage& m = stage(s);
  OPTIBAR_REQUIRE(rank < ranks_, "rank out of range");
  auto it = std::lower_bound(
      m.begin(), m.end(), rank,
      [](const Signal& signal, std::size_t r) { return signal.src < r; });
  std::vector<std::size_t> out;
  for (; it != m.end() && it->src == rank; ++it) {
    out.push_back(it->dst);
  }
  return out;
}

std::vector<std::size_t> Schedule::sources_of(std::size_t rank,
                                              std::size_t s) const {
  const Stage& m = stage(s);
  OPTIBAR_REQUIRE(rank < ranks_, "rank out of range");
  std::vector<std::size_t> out;
  for (const Signal& signal : m) {
    if (signal.dst == rank) {
      out.push_back(signal.src);
    }
  }
  return out;
}

Knowledge Schedule::knowledge_after(std::size_t a) const {
  OPTIBAR_REQUIRE(a < stages_.size(), "knowledge_after: stage out of range");
  // K_0 = I + S_0; K_a = K_{a-1} + K_{a-1} * S_a   (Eq. 3)
  Knowledge k(ranks_);
  for (std::size_t s = 0; s <= a; ++s) {
    k.apply(stages_[s]);
  }
  return k;
}

Knowledge Schedule::final_knowledge() const {
  if (stages_.empty()) {
    return Knowledge(ranks_);
  }
  return knowledge_after(stages_.size() - 1);
}

bool Schedule::is_barrier() const { return final_knowledge().complete(); }

Schedule Schedule::transposed_reversed() const {
  Schedule out(ranks_);
  out.stages_.reserve(stages_.size());
  for (std::size_t s = stages_.size(); s-- > 0;) {
    // A put arrival edge departs as a put too: the bit rides along.
    Stage transposed(stages_[s].size());
    for (std::size_t k = 0; k < transposed.size(); ++k) {
      const Signal& signal = stages_[s][k];
      transposed[k] = Signal{signal.dst, signal.src, signal.one_sided};
    }
    std::sort(transposed.begin(), transposed.end(), signal_less);
    out.stages_.push_back(std::move(transposed));
  }
  return out;
}

Schedule Schedule::concatenated(const Schedule& tail) const {
  OPTIBAR_REQUIRE(tail.ranks_ == ranks_,
                  "cannot concatenate schedules over " << ranks_ << " and "
                                                       << tail.ranks_
                                                       << " ranks");
  Schedule out = *this;
  out.stages_.insert(out.stages_.end(), tail.stages_.begin(),
                     tail.stages_.end());
  return out;
}

Schedule Schedule::compacted() const {
  Schedule out(ranks_);
  for (const Stage& stage : stages_) {
    if (!stage.empty()) {
      out.stages_.push_back(stage);
    }
  }
  return out;
}

std::size_t Schedule::total_signals() const {
  std::size_t n = 0;
  for (const Stage& stage : stages_) {
    n += stage.size();
  }
  return n;
}

std::size_t Schedule::nonempty_stage_count() const {
  return static_cast<std::size_t>(
      std::count_if(stages_.begin(), stages_.end(),
                    [](const Stage& stage) { return !stage.empty(); }));
}

void embed_schedule(Schedule& global, const Schedule& local,
                    const std::vector<std::size_t>& rank_map,
                    std::size_t first_stage) {
  OPTIBAR_REQUIRE(rank_map.size() == local.ranks(),
                  "rank_map size " << rank_map.size()
                                   << " != local rank count " << local.ranks());
  for (std::size_t mapped : rank_map) {
    OPTIBAR_REQUIRE(mapped < global.ranks(),
                    "rank_map entry " << mapped << " out of range for "
                                      << global.ranks() << " global ranks");
  }
  for (const Stage& stage : local.stages()) {
    for (const Signal& signal : stage) {
      OPTIBAR_REQUIRE(rank_map[signal.src] != rank_map[signal.dst],
                      "rank_map turns local signal "
                          << signal.src << " -> " << signal.dst
                          << " into a self-signal at rank "
                          << rank_map[signal.src]);
    }
  }
  if (global.stages_.size() < first_stage + local.stage_count()) {
    global.stages_.resize(first_stage + local.stage_count());
  }
  // Each affected stage becomes the union of its signals and the mapped
  // local ones, merged back into (src, dst) order.
  for (std::size_t s = 0; s < local.stage_count(); ++s) {
    Stage& merged = global.stages_[first_stage + s];
    for (const Signal& signal : local.stage(s)) {
      merged.push_back(Signal{static_cast<std::uint32_t>(rank_map[signal.src]),
                              static_cast<std::uint32_t>(rank_map[signal.dst]),
                              signal.one_sided});
    }
    normalize_stage(merged);
  }
}

std::ostream& operator<<(std::ostream& os, const Schedule& schedule) {
  os << "Schedule over " << schedule.ranks() << " ranks, "
     << schedule.stage_count() << " stages, " << schedule.total_signals()
     << " signals\n";
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    os << "S" << s << ":\n";
    write_stage_cells(os, schedule, s, /*transports=*/false);
    if (std::any_of(schedule.stage(s).begin(), schedule.stage(s).end(),
                    [](const Signal& signal) { return signal.one_sided; })) {
      os << "T" << s << " (one-sided subset):\n";
      write_stage_cells(os, schedule, s, /*transports=*/true);
    }
  }
  return os;
}

void write_stage_cells(std::ostream& os, const Schedule& schedule,
                       std::size_t s, bool transports) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(p <= kMaxDenseTextRanks,
                  "refusing to write a " << p << "-rank schedule as " << p
                                         << " x " << p
                                         << " text cells (at most "
                                         << kMaxDenseTextRanks << " ranks)");
  const Stage& stage = schedule.stage(s);
  // The signals ascend in row-major cell order, so one cursor walks them.
  std::size_t k = 0;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      int cell = 0;
      if (k < stage.size() && stage[k].src == i && stage[k].dst == j) {
        cell = !transports || stage[k].one_sided ? 1 : 0;
        ++k;
      }
      os << cell << (j + 1 == p ? '\n' : ' ');
    }
  }
}

}  // namespace optibar
