// Verbatim dense Schedule, transforms and generators (see the header).
#include "dense_schedule_oracle.hpp"

#include "util/error.hpp"

namespace optibar::oracle {

DenseSchedule::DenseSchedule(std::size_t ranks) : ranks_(ranks) {
  OPTIBAR_REQUIRE(ranks_ > 0, "schedule needs at least one rank");
}

DenseSchedule::DenseSchedule(std::size_t ranks, std::vector<StageMatrix> stages)
    : DenseSchedule(ranks) {
  for (auto& stage : stages) {
    append_stage(std::move(stage));
  }
}

void DenseSchedule::check_stage(const StageMatrix& stage) const {
  OPTIBAR_REQUIRE(stage.rows() == ranks_ && stage.cols() == ranks_,
                  "stage must be " << ranks_ << "x" << ranks_ << ", got "
                                   << stage.rows() << "x" << stage.cols());
  for (std::size_t i = 0; i < ranks_; ++i) {
    OPTIBAR_REQUIRE(!stage(i, i),
                    "stage has a self-signal at rank " << i
                                                       << "; the diagonal must be zero");
  }
}

const StageMatrix& DenseSchedule::stage(std::size_t s) const {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "stage " << s << " out of range (" << stages_.size()
                           << " stages)");
  return stages_[s];
}

void DenseSchedule::append_stage(StageMatrix stage) {
  check_stage(stage);
  stages_.push_back(std::move(stage));
  transports_.emplace_back();  // default: all two-sided
}

void DenseSchedule::pop_stage() {
  OPTIBAR_REQUIRE(!stages_.empty(), "pop_stage on an empty schedule");
  stages_.pop_back();
  transports_.pop_back();
}

const StageMatrix& DenseSchedule::transport(std::size_t s) const {
  OPTIBAR_REQUIRE(s < transports_.size(),
                  "transport stage " << s << " out of range ("
                                     << transports_.size() << " stages)");
  return transports_[s];
}

void DenseSchedule::set_transport(std::size_t s, StageMatrix transport) {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "set_transport stage " << s << " out of range ("
                                         << stages_.size() << " stages)");
  if (transport.empty() || transport.all_zero()) {
    transports_[s] = StageMatrix();  // normalized all-two-sided spelling
    return;
  }
  OPTIBAR_REQUIRE(transport.rows() == ranks_ && transport.cols() == ranks_,
                  "transport must be " << ranks_ << "x" << ranks_ << ", got "
                                       << transport.rows() << "x"
                                       << transport.cols());
  const StageMatrix& signals = stages_[s];
  for (std::size_t i = 0; i < ranks_; ++i) {
    for (std::size_t j = 0; j < ranks_; ++j) {
      OPTIBAR_REQUIRE(!transport(i, j) || signals(i, j),
                      "transport marks " << i << " -> " << j << " of stage "
                                         << s
                                         << " one-sided, but the stage has no "
                                            "such signal");
    }
  }
  transports_[s] = std::move(transport);
}

bool DenseSchedule::one_sided(std::size_t s, std::size_t i, std::size_t j) const {
  const StageMatrix& t = transport(s);
  return !t.empty() && t(i, j) != 0;
}

bool DenseSchedule::has_one_sided() const {
  for (const auto& t : transports_) {
    if (!t.empty()) {
      return true;
    }
  }
  return false;
}

std::size_t DenseSchedule::one_sided_signal_count() const {
  std::size_t n = 0;
  for (const auto& t : transports_) {
    if (!t.empty()) {
      n += t.count_nonzero();
    }
  }
  return n;
}

std::vector<std::size_t> DenseSchedule::targets_of(std::size_t rank,
                                              std::size_t s) const {
  const StageMatrix& m = stage(s);
  OPTIBAR_REQUIRE(rank < ranks_, "rank out of range");
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < ranks_; ++j) {
    if (m(rank, j)) {
      out.push_back(j);
    }
  }
  return out;
}

std::vector<std::size_t> DenseSchedule::sources_of(std::size_t rank,
                                              std::size_t s) const {
  const StageMatrix& m = stage(s);
  OPTIBAR_REQUIRE(rank < ranks_, "rank out of range");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ranks_; ++i) {
    if (m(i, rank)) {
      out.push_back(i);
    }
  }
  return out;
}

BoolMatrix DenseSchedule::knowledge_after(std::size_t a) const {
  OPTIBAR_REQUIRE(a < stages_.size(), "knowledge_after: stage out of range");
  // K_0 = I + S_0; K_a = K_{a-1} + K_{a-1} * S_a   (Eq. 3)
  BoolMatrix k = bool_add(BoolMatrix::identity(ranks_), stages_[0]);
  for (std::size_t s = 1; s <= a; ++s) {
    k = bool_add(k, bool_multiply(k, stages_[s]));
  }
  return k;
}

BoolMatrix DenseSchedule::final_knowledge() const {
  if (stages_.empty()) {
    return BoolMatrix::identity(ranks_);
  }
  return knowledge_after(stages_.size() - 1);
}

bool DenseSchedule::is_barrier() const { return final_knowledge().all_nonzero(); }

DenseSchedule DenseSchedule::transposed_reversed() const {
  DenseSchedule out(ranks_);
  for (std::size_t s = stages_.size(); s-- > 0;) {
    out.append_stage(stages_[s].transposed());
    if (!transports_[s].empty()) {
      // A put arrival edge departs as a put too: transpose alongside.
      out.set_transport(out.stage_count() - 1, transports_[s].transposed());
    }
  }
  return out;
}

DenseSchedule DenseSchedule::concatenated(const DenseSchedule& tail) const {
  OPTIBAR_REQUIRE(tail.ranks_ == ranks_,
                  "cannot concatenate schedules over " << ranks_ << " and "
                                                       << tail.ranks_
                                                       << " ranks");
  DenseSchedule out = *this;
  for (std::size_t s = 0; s < tail.stages_.size(); ++s) {
    out.append_stage(tail.stages_[s]);
    if (!tail.transports_[s].empty()) {
      out.set_transport(out.stage_count() - 1, tail.transports_[s]);
    }
  }
  return out;
}

DenseSchedule DenseSchedule::compacted() const {
  DenseSchedule out(ranks_);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (!stages_[s].all_zero()) {
      out.append_stage(stages_[s]);
      if (!transports_[s].empty()) {
        out.set_transport(out.stage_count() - 1, transports_[s]);
      }
    }
  }
  return out;
}

std::size_t DenseSchedule::total_signals() const {
  std::size_t n = 0;
  for (const auto& stage : stages_) {
    n += stage.count_nonzero();
  }
  return n;
}

std::size_t DenseSchedule::nonempty_stage_count() const {
  std::size_t n = 0;
  for (const auto& stage : stages_) {
    if (!stage.all_zero()) {
      ++n;
    }
  }
  return n;
}

void embed_schedule(DenseSchedule& global, const DenseSchedule& local,
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
  while (global.stage_count() < first_stage + local.stage_count()) {
    global.append_stage(StageMatrix(global.ranks(), global.ranks(), 0));
  }
  // Rebuild the affected stages with the local signals (and their
  // transport tags) OR-ed in.
  std::vector<StageMatrix> stages(global.stages().begin(),
                                  global.stages().end());
  std::vector<StageMatrix> transports;
  transports.reserve(global.stage_count());
  for (std::size_t s = 0; s < global.stage_count(); ++s) {
    transports.push_back(global.transport(s));
  }
  for (std::size_t s = 0; s < local.stage_count(); ++s) {
    const StageMatrix& src = local.stage(s);
    const StageMatrix& src_transport = local.transport(s);
    StageMatrix& dst = stages[first_stage + s];
    StageMatrix& dst_transport = transports[first_stage + s];
    if (!src_transport.empty() && dst_transport.empty()) {
      dst_transport = StageMatrix(global.ranks(), global.ranks(), 0);
    }
    for (std::size_t i = 0; i < local.ranks(); ++i) {
      for (std::size_t j = 0; j < local.ranks(); ++j) {
        if (src(i, j)) {
          dst(rank_map[i], rank_map[j]) = 1;
          if (!src_transport.empty() && src_transport(i, j)) {
            dst_transport(rank_map[i], rank_map[j]) = 1;
          }
        }
      }
    }
  }
  DenseSchedule rebuilt(global.ranks(), std::move(stages));
  for (std::size_t s = 0; s < transports.size(); ++s) {
    if (!transports[s].empty()) {
      rebuilt.set_transport(s, std::move(transports[s]));
    }
  }
  global = std::move(rebuilt);
}

std::ostream& operator<<(std::ostream& os, const DenseSchedule& schedule) {
  os << "Schedule over " << schedule.ranks() << " ranks, "
     << schedule.stage_count() << " stages, " << schedule.total_signals()
     << " signals\n";
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    os << "S" << s << ":\n" << schedule.stage(s);
    if (!schedule.transport(s).empty()) {
      os << "T" << s << " (one-sided subset):\n" << schedule.transport(s);
    }
  }
  return os;
}

namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t bits = 0;
  std::size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

std::size_t floor_pow2(std::size_t n) {
  std::size_t v = 1;
  while (v * 2 <= n) {
    v <<= 1;
  }
  return v;
}

StageMatrix empty_stage(std::size_t p) { return StageMatrix(p, p, 0); }

}  // namespace

DenseSchedule linear_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "linear_arrival of zero ranks");
  DenseSchedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  StageMatrix gather = empty_stage(ranks);
  for (std::size_t i = 1; i < ranks; ++i) {
    gather(i, 0) = 1;
  }
  s.append_stage(std::move(gather));
  return s;
}

DenseSchedule linear_barrier(std::size_t ranks) {
  const DenseSchedule arrival = linear_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

DenseSchedule dissemination_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "dissemination_arrival of zero ranks");
  DenseSchedule s(ranks);
  const std::size_t stages = ceil_log2(ranks);
  for (std::size_t st = 0; st < stages; ++st) {
    StageMatrix m = empty_stage(ranks);
    const std::size_t offset = std::size_t{1} << st;
    for (std::size_t i = 0; i < ranks; ++i) {
      m(i, (i + offset) % ranks) = 1;
    }
    s.append_stage(std::move(m));
  }
  return s;
}

DenseSchedule dissemination_barrier(std::size_t ranks) {
  return dissemination_arrival(ranks);
}

DenseSchedule tree_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "tree_arrival of zero ranks");
  DenseSchedule s(ranks);
  const std::size_t stages = ceil_log2(ranks);
  for (std::size_t st = 0; st < stages; ++st) {
    StageMatrix m = empty_stage(ranks);
    const std::size_t half = std::size_t{1} << st;
    const std::size_t full = half << 1;
    for (std::size_t i = half; i < ranks; i += full) {
      // Senders are the ranks whose index is an odd multiple of 2^st;
      // they fold into the even multiple below them (recursive pairing).
      m(i, i - half) = 1;
    }
    s.append_stage(std::move(m));
  }
  return s;
}

DenseSchedule tree_barrier(std::size_t ranks) {
  const DenseSchedule arrival = tree_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

DenseSchedule kary_tree_arrival(std::size_t ranks, std::size_t arity) {
  OPTIBAR_REQUIRE(ranks > 0, "kary_tree_arrival of zero ranks");
  OPTIBAR_REQUIRE(arity >= 2, "kary tree arity must be >= 2, got " << arity);
  DenseSchedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  // Heap layout: parent(i) = (i-1)/arity. Compute each rank's depth.
  std::vector<std::size_t> depth(ranks, 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 1; i < ranks; ++i) {
    depth[i] = depth[(i - 1) / arity] + 1;
    max_depth = std::max(max_depth, depth[i]);
  }
  // Deepest level signals first so parents accumulate complete subtrees.
  for (std::size_t d = max_depth; d >= 1; --d) {
    StageMatrix m = empty_stage(ranks);
    for (std::size_t i = 1; i < ranks; ++i) {
      if (depth[i] == d) {
        m(i, (i - 1) / arity) = 1;
      }
    }
    s.append_stage(std::move(m));
  }
  return s;
}

DenseSchedule kary_tree_barrier(std::size_t ranks, std::size_t arity) {
  const DenseSchedule arrival = kary_tree_arrival(ranks, arity);
  return arrival.concatenated(arrival.transposed_reversed());
}

DenseSchedule heap_tree_arrival(std::size_t ranks) {
  return kary_tree_arrival(ranks, 2);
}

DenseSchedule heap_tree_barrier(std::size_t ranks) {
  return kary_tree_barrier(ranks, 2);
}

DenseSchedule pairwise_exchange_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "pairwise_exchange_arrival of zero ranks");
  DenseSchedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  const std::size_t m = floor_pow2(ranks);
  // Fold the excess ranks [m, ranks) into their partners below.
  if (ranks > m) {
    StageMatrix fold = empty_stage(ranks);
    for (std::size_t i = m; i < ranks; ++i) {
      fold(i, i - m) = 1;
    }
    s.append_stage(std::move(fold));
  }
  // Symmetric exchange among the power-of-two subset.
  for (std::size_t bit = 1; bit < m; bit <<= 1) {
    StageMatrix x = empty_stage(ranks);
    for (std::size_t i = 0; i < m; ++i) {
      x(i, i ^ bit) = 1;
    }
    s.append_stage(std::move(x));
  }
  // Unfold: release the excess ranks.
  if (ranks > m) {
    StageMatrix unfold = empty_stage(ranks);
    for (std::size_t i = m; i < ranks; ++i) {
      unfold(i - m, i) = 1;
    }
    s.append_stage(std::move(unfold));
  }
  return s;
}

DenseSchedule pairwise_exchange_barrier(std::size_t ranks) {
  return pairwise_exchange_arrival(ranks);
}

DenseSchedule radix_dissemination_arrival(std::size_t ranks, std::size_t radix) {
  OPTIBAR_REQUIRE(ranks > 0, "radix_dissemination_arrival of zero ranks");
  OPTIBAR_REQUIRE(radix >= 2, "dissemination radix must be >= 2, got " << radix);
  DenseSchedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  // ceil(log_radix(ranks)) stages: the smallest m with radix^m >= ranks.
  std::size_t power = 1;
  std::size_t stages = 0;
  while (power < ranks) {
    // power * radix cannot overflow for any sane rank count, but guard
    // the loop variable anyway.
    OPTIBAR_ASSERT(power <= (std::size_t{1} << 62) / radix,
                   "radix power overflow");
    power *= radix;
    ++stages;
  }
  power = 1;
  for (std::size_t st = 0; st < stages; ++st) {
    StageMatrix m = empty_stage(ranks);
    for (std::size_t j = 1; j < radix; ++j) {
      const std::size_t offset = (j * power) % ranks;
      if (offset == 0) {
        continue;  // a whole-ring hop is a no-op
      }
      for (std::size_t i = 0; i < ranks; ++i) {
        m(i, (i + offset) % ranks) = 1;
      }
    }
    s.append_stage(std::move(m));
    power *= radix;
  }
  return s;
}

DenseSchedule radix_dissemination_barrier(std::size_t ranks, std::size_t radix) {
  return radix_dissemination_arrival(ranks, radix);
}

DenseSchedule ring_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "ring_arrival of zero ranks");
  DenseSchedule s(ranks);
  // Token descends P-1 -> ... -> 0 so knowledge funnels into rank 0,
  // matching the convention of the other hierarchical arrival phases.
  for (std::size_t st = 0; st + 1 < ranks; ++st) {
    StageMatrix m = empty_stage(ranks);
    const std::size_t sender = ranks - 1 - st;
    m(sender, sender - 1) = 1;
    s.append_stage(std::move(m));
  }
  return s;
}

DenseSchedule ring_barrier(std::size_t ranks) {
  const DenseSchedule arrival = ring_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

// Iterative three-color DFS; returns a rank on a directed cycle, or
// npos. Stage digraphs have zero diagonal (enforced by Schedule), so a
// cycle involves >= 2 ranks.
std::size_t find_cycle_rank(const StageMatrix& stage) {
  const std::size_t n = stage.rows();
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (node, next j)
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != kWhite) {
      continue;
    }
    color[start] = kGray;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      const std::size_t node = stack.back().first;
      const std::size_t j = stack.back().second;
      if (j == n) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      if (!stage(node, j)) {
        continue;
      }
      if (color[j] == kGray) {
        return j;  // back edge: j is on a directed cycle
      }
      if (color[j] == kWhite) {
        color[j] = kGray;
        stack.emplace_back(j, 0);
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

bool stage_has_cycle(const StageMatrix& stage) {
  return find_cycle_rank(stage) != static_cast<std::size_t>(-1);
}

void save_schedule(std::ostream& os, const DenseSchedule& s,
                   const std::vector<bool>& awaited_stages) {
  OPTIBAR_REQUIRE(awaited_stages.empty() ||
                      awaited_stages.size() == s.stage_count(),
                  "awaited_stages must be empty or match stage count");
  // v1 unless some stage carries one-sided edges, so pure two-sided
  // schedules stay byte-identical to pre-RMA builds and readable by
  // pre-RMA readers.
  const bool v2 = s.has_one_sided();
  os << "optibar-schedule" << (v2 ? " v2\n" : " v1\n");
  os << "P " << s.ranks() << '\n';
  os << "stages " << s.stage_count() << '\n';
  os << "awaited";
  if (awaited_stages.empty()) {
    for (std::size_t i = 0; i < s.stage_count(); ++i) {
      os << " 0";
    }
  } else {
    for (bool awaited : awaited_stages) {
      os << ' ' << (awaited ? 1 : 0);
    }
  }
  os << '\n';
  auto dump = [&](const StageMatrix& m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        os << static_cast<int>(m(r, c)) << (c + 1 == m.cols() ? '\n' : ' ');
      }
    }
  };
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    os << "S" << st << '\n';
    dump(s.stage(st));
    if (v2) {
      // Every stage gets a T matrix in v2 (all-zero when two-sided), so
      // the reader never has to look ahead to tell T<st> from S<st+1>.
      os << "T" << st << '\n';
      const StageMatrix& t = s.transport(st);
      dump(t.empty() ? StageMatrix(s.ranks(), s.ranks(), 0) : t);
    }
  }
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing schedule");
}

std::vector<std::pair<std::string, std::function<DenseSchedule(std::size_t)>>>
extended_arrivals() {
  return {
      {"linear", [](std::size_t n) { return linear_arrival(n); }},
      {"dissemination", [](std::size_t n) { return dissemination_arrival(n); }},
      {"tree", [](std::size_t n) { return tree_arrival(n); }},
      {"kary4-tree", [](std::size_t n) { return kary_tree_arrival(n, 4); }},
      {"heap-tree", [](std::size_t n) { return heap_tree_arrival(n); }},
      {"pairwise-exchange",
       [](std::size_t n) { return pairwise_exchange_arrival(n); }},
      {"radix4-dissemination",
       [](std::size_t n) { return radix_dissemination_arrival(n, 4); }},
  };
}

StageMatrix stage_matrix(const optibar::Schedule& schedule, std::size_t s) {
  StageMatrix m(schedule.ranks(), schedule.ranks(), 0);
  for (const Signal& signal : schedule.stage(s)) {
    m(signal.src, signal.dst) = 1;
  }
  return m;
}

StageMatrix transport_matrix(const optibar::Schedule& schedule,
                             std::size_t s) {
  StageMatrix m(schedule.ranks(), schedule.ranks(), 0);
  for (const Signal& signal : schedule.stage(s)) {
    m(signal.src, signal.dst) = signal.one_sided ? 1 : 0;
  }
  return m;
}

void set_transport(optibar::Schedule& schedule, std::size_t s,
                   const StageMatrix& transport) {
  DenseSchedule dense(schedule.ranks());
  dense.append_stage(stage_matrix(schedule, s));
  dense.set_transport(0, transport);  // validates the subset
  const optibar::Stage& stage = schedule.stage(s);
  for (std::size_t k = 0; k < stage.size(); ++k) {
    schedule.set_one_sided(s, k, dense.one_sided(0, stage[k].src,
                                                 stage[k].dst));
  }
}

optibar::Stage stage_from_matrix(const StageMatrix& stage,
                                 const StageMatrix* transport) {
  optibar::Stage out;
  for (std::size_t i = 0; i < stage.rows(); ++i) {
    for (std::size_t j = 0; j < stage.cols(); ++j) {
      if (stage(i, j)) {
        out.push_back(Signal{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j),
                             transport != nullptr && !transport->empty() &&
                                 (*transport)(i, j) != 0});
      }
    }
  }
  return out;
}

optibar::Schedule to_edges(const DenseSchedule& dense) {
  optibar::Schedule out(dense.ranks());
  for (std::size_t s = 0; s < dense.stage_count(); ++s) {
    out.append_stage(stage_from_matrix(dense.stage(s), &dense.transport(s)));
  }
  return out;
}

DenseSchedule to_dense(const optibar::Schedule& schedule) {
  DenseSchedule out(schedule.ranks());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    out.append_stage(stage_matrix(schedule, s));
    out.set_transport(s, transport_matrix(schedule, s));
  }
  return out;
}

}  // namespace optibar::oracle
