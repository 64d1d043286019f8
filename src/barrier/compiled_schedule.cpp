#include "barrier/compiled_schedule.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace optibar {
namespace {

/// Rank, row and edge indices are stored in 32 bits.
constexpr std::size_t kIndexLimit = 0xFFFFFFFFu;

}  // namespace

CompiledSchedule::CompiledSchedule(const Schedule& schedule,
                                   const TopologyProfile& profile) {
  compile(schedule, profile);
}

void CompiledSchedule::reset(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks < kIndexLimit,
                  "too many ranks to compile: " << ranks);
  p_ = ranks;
  stages_ = 0;
  row_of_.clear();
  stage_row_.assign(1, 1);
  rank_.assign(1, 0);
  tgt_offsets_.assign(2, 0);
  src_offsets_.assign(2, 0);
  sum_l_.assign(1, 0.0);
  max_o_.assign(1, 0.0);
  recv_l_.assign(1, 0.0);
  tgt_index_.clear();
  tgt_l_.clear();
  tgt_o_.clear();
  tgt_r_.clear();
  tgt_rma_.clear();
  src_index_.clear();
  src_rma_.clear();
  edge_src_.clear();
}

void CompiledSchedule::finish_stage(std::size_t first_edge) {
  const std::size_t last_edge = tgt_index_.size();
  OPTIBAR_REQUIRE(last_edge < kIndexLimit, "too many edges to compile");
  const std::size_t s = stages_++;
  row_of_.resize(stages_ * p_);
  std::uint32_t* const id = row_of_.data() + s * p_;
  // The stage's row-id slice counts in-degrees first...
  std::fill(id, id + p_, 0);
  for (std::size_t e = first_edge; e < last_edge; ++e) {
    ++id[tgt_index_[e]];
  }
  // ...then one ascending walk over the ranks opens a row for each rank
  // that sends or receives. Targets are grouped by ascending sender, so
  // a sender's Σ L and max O accumulate in ascending-target order.
  const std::size_t first_row = rank_.size();
  // senders[e - first_edge] is the sender of target edge e.
  const Rank* const senders = edge_src_.data();
  std::size_t k = first_edge;
  std::uint32_t sources_end = src_offsets_.back();
  for (std::size_t j = 0; j < p_; ++j) {
    const std::uint32_t in_degree = id[j];
    const std::size_t first_target = k;
    double sum_l = 0.0;
    double max_o = 0.0;
    for (; k < last_edge && senders[k - first_edge] == j; ++k) {
      sum_l += tgt_l_[k];
      max_o = std::max(max_o, tgt_o_[k]);
    }
    if (in_degree == 0 && k == first_target) {
      continue;  // idle: id[j] stays 0, the shared empty row
    }
    id[j] = static_cast<std::uint32_t>(rank_.size());
    rank_.push_back(static_cast<Rank>(j));
    tgt_offsets_.push_back(static_cast<std::uint32_t>(k));
    sources_end += in_degree;
    src_offsets_.push_back(sources_end);
    sum_l_.push_back(sum_l);
    max_o_.push_back(max_o);
    recv_l_.push_back(0.0);
  }
  OPTIBAR_REQUIRE(k == last_edge, "stage edges not sorted by src");
  OPTIBAR_REQUIRE(rank_.size() < kIndexLimit, "too many rows to compile");
  stage_row_.push_back(static_cast<std::uint32_t>(rank_.size()));

  // Sources: a stable counting sort by receiver. Edges are scattered in
  // (sender, target) order, so every receiver's sources come out
  // ascending and its two-sided Σ L sums in the reference order.
  src_index_.resize(sources_end);
  src_rma_.resize(sources_end);
  fill_.assign(src_offsets_.begin() + static_cast<std::ptrdiff_t>(first_row),
               src_offsets_.end() - 1);
  for (std::size_t e = first_edge; e < last_edge; ++e) {
    const std::uint32_t r = id[tgt_index_[e]];
    const std::uint32_t at = fill_[r - first_row]++;
    src_index_[at] = senders[e - first_edge];
    src_rma_[at] = tgt_rma_[e];
    if (!tgt_rma_[e]) {
      recv_l_[r] += tgt_l_[e];
    }
  }
}

void CompiledSchedule::compile(const Schedule& schedule,
                               const TopologyProfile& profile) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  reset(p);
  self_o_.resize(p_);
  for (std::size_t i = 0; i < p_; ++i) {
    self_o_[i] = profile.o(i, i);
  }
  for (const Stage& stage : schedule.stages()) {
    const std::size_t first_edge = tgt_index_.size();
    edge_src_.clear();
    // The signals ascend by (src, dst), the order of
    // Schedule::targets_of per sender.
    for (const Signal& signal : stage) {
      const std::size_t i = signal.src;
      const std::size_t j = signal.dst;
      // A put needs only local initiation (O(i,i)) — no rendezvous
      // with the receiver — and delivers after R(i,j).
      const bool put = signal.one_sided;
      add_edge(signal.src, signal.dst, profile.l(i, j),
               put ? profile.o(i, i) : profile.o(i, j), put,
               put ? profile.r(i, j) : 0.0);
    }
    finish_stage(first_edge);
  }
}

void CompiledSchedule::reserve(std::size_t ranks, std::size_t stages,
                               std::size_t edges) {
  // Each edge opens at most two rows, and a stage at most one per rank.
  const std::size_t rows = 1 + std::min(stages * ranks, 2 * edges);
  row_of_.reserve(stages * ranks);
  stage_row_.reserve(stages + 1);
  rank_.reserve(rows);
  tgt_offsets_.reserve(rows + 1);
  src_offsets_.reserve(rows + 1);
  sum_l_.reserve(rows);
  max_o_.reserve(rows);
  recv_l_.reserve(rows);
  tgt_index_.reserve(edges);
  tgt_l_.reserve(edges);
  tgt_o_.reserve(edges);
  tgt_r_.reserve(edges);
  tgt_rma_.reserve(edges);
  src_index_.reserve(edges);
  src_rma_.reserve(edges);
  self_o_.reserve(ranks);
  edge_src_.reserve(edges);
  fill_.reserve(std::min(ranks, 2 * edges));
}

void CompiledSchedule::start_edges(std::size_t ranks,
                                   std::span<const double> self_overhead) {
  OPTIBAR_REQUIRE(ranks > 0, "compile_edges with zero ranks");
  OPTIBAR_REQUIRE(self_overhead.size() == ranks,
                  "self_overhead has " << self_overhead.size()
                                       << " entries, expected " << ranks);
  reset(ranks);
  self_o_.assign(self_overhead.begin(), self_overhead.end());
}

void CompiledSchedule::append_stage(std::span<const CompiledEdge> edges) {
  const std::size_t first_edge = tgt_index_.size();
  edge_src_.clear();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const CompiledEdge& e = edges[k];
    OPTIBAR_REQUIRE(e.src < p_ && e.dst < p_ && e.src != e.dst,
                    "bad edge " << e.src << "->" << e.dst);
    OPTIBAR_REQUIRE(k == 0 || edges[k - 1].src < e.src ||
                        (edges[k - 1].src == e.src && edges[k - 1].dst < e.dst),
                    "stage edges must be sorted by (src, dst) without "
                    "duplicates");
    add_edge(static_cast<Rank>(e.src), static_cast<Rank>(e.dst), e.l, e.o,
             e.one_sided, e.one_sided ? e.r : 0.0);
  }
  finish_stage(first_edge);
}

void CompiledSchedule::add_edge(Rank src, Rank dst, double l, double o,
                                bool put, double r) {
  tgt_index_.push_back(dst);
  tgt_l_.push_back(l);
  tgt_o_.push_back(o);
  tgt_r_.push_back(r);
  tgt_rma_.push_back(put ? 1 : 0);
  edge_src_.push_back(src);
}

std::size_t CompiledSchedule::memory_bytes() const {
  const auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return sizeof(*this) + bytes(row_of_) + bytes(stage_row_) + bytes(rank_) +
         bytes(tgt_offsets_) + bytes(src_offsets_) + bytes(sum_l_) +
         bytes(max_o_) + bytes(recv_l_) + bytes(tgt_index_) + bytes(tgt_l_) +
         bytes(tgt_o_) + bytes(tgt_r_) + bytes(tgt_rma_) + bytes(src_index_) +
         bytes(src_rma_) + bytes(self_o_);
}

void CompiledSchedule::set_one_sided(std::size_t s, std::size_t rank,
                                     std::size_t k, bool put,
                                     const TopologyProfile& profile) {
  OPTIBAR_REQUIRE(profile.ranks() == p_,
                  "profile has " << profile.ranks() << " ranks, compiled "
                                 << "schedule has " << p_);
  OPTIBAR_REQUIRE(s < stages_ && rank < p_,
                  "no row for rank " << rank << " in stage " << s);
  const std::size_t r = row(rank, s);
  const std::size_t first = tgt_offsets_[r];
  const std::size_t last = tgt_offsets_[r + 1];
  OPTIBAR_REQUIRE(k < last - first, "rank " << rank << " has "
                                            << last - first
                                            << " targets in stage " << s
                                            << ", no edge " << k);
  // The edge's terms, exactly as compile() derives them from a tag.
  const std::size_t e = first + k;
  const std::size_t j = tgt_index_[e];
  tgt_o_[e] = put ? profile.o(rank, rank) : profile.o(rank, j);
  tgt_r_[e] = put ? profile.r(rank, j) : 0.0;
  tgt_rma_[e] = put ? 1 : 0;
  double max_o = 0.0;
  for (std::size_t q = first; q < last; ++q) {
    max_o = std::max(max_o, tgt_o_[q]);
  }
  max_o_[r] = max_o;

  // The receiver's row: sources are ascending, so the edge's source
  // entry is a binary search away; the two-sided L sum is re-summed in
  // compile()'s ascending-source order.
  const std::size_t rr = row(j, s);
  const Rank* sources = src_index_.data();
  const Rank* source = std::lower_bound(
      sources + src_offsets_[rr], sources + src_offsets_[rr + 1], rank);
  src_rma_[static_cast<std::size_t>(source - sources)] = put ? 1 : 0;
  double recv_l = 0.0;
  for (std::size_t q = src_offsets_[rr]; q < src_offsets_[rr + 1]; ++q) {
    if (!src_rma_[q]) {
      recv_l += profile.l(src_index_[q], j);
    }
  }
  recv_l_[rr] = recv_l;
}

void predict_into(const CompiledSchedule& compiled,
                  const PredictOptions& options, PredictWorkspace& workspace,
                  Prediction& out) {
  const std::size_t p = compiled.ranks();
  if (!options.entry_times.empty()) {
    OPTIBAR_REQUIRE(options.entry_times.size() == p,
                    "entry_times size mismatch");
  }
  if (!options.egress_resource_of.empty()) {
    OPTIBAR_REQUIRE(options.egress_resource_of.size() == p,
                    "egress_resource_of size mismatch");
  }

  PredictWorkspace& ws = workspace;
  std::vector<double>& ready = ws.ready;
  if (options.entry_times.empty()) {
    ready.assign(p, 0.0);
  } else {
    ready.assign(options.entry_times.begin(), options.entry_times.end());
  }
  std::size_t widest = 0;  // rows of the busiest stage
  for (std::size_t s = 0; s < compiled.stage_count(); ++s) {
    widest = std::max(widest, compiled.row_end(s) - compiled.row_begin(s));
  }
  ws.batch.resize(widest);
  const bool egress = !options.egress_resource_of.empty();
  if (egress) {
    const std::size_t max_resource =
        *std::max_element(options.egress_resource_of.begin(),
                          options.egress_resource_of.end());
    if (ws.res_active.size() <= max_resource) {
      ws.res_ready.resize(max_resource + 1);
      ws.res_max_o.resize(max_resource + 1);
      ws.res_sum_l.resize(max_resource + 1);
      ws.res_active.resize(max_resource + 1, 0);
    }
    ws.touched_resources.clear();
  }

  const double start_of_critical =
      *std::max_element(ready.begin(), ready.end());
  out.stage_increment.clear();
  // The reference's first stage adds a 0.0 batch cost to every idle
  // rank, which turns an entry time of -0.0 into +0.0. Applying that
  // once up front lets each stage leave its idle ranks untouched: no
  // cost below is ever -0.0, so x + 0.0 is then exactly x.
  if (compiled.stage_count() > 0) {
    for (double& t : ready) {
      t += 0.0;
    }
  }

  // Ready times update in place: senders first take their own batch
  // completion, then receivers wait for every incoming batch of the
  // stage. A put edge becomes visible R(i,j) after the sender's batch
  // (target_rma_latency is exactly 0.0 on two-sided edges, so pure
  // two-sided schedules stay bit-identical).
  double before = start_of_critical;
  for (std::size_t s = 0; s < compiled.stage_count(); ++s) {
    const bool awaited =
        s < options.awaited_stages.size() && options.awaited_stages[s];
    const std::size_t first = compiled.row_begin(s);
    const std::size_t last = compiled.row_end(s);
    if (egress) {
      // Analytic shared-egress serialization (see predict_reference):
      // per resource, ready time, max O and sum of L over its remote
      // messages, accumulated in (sender, target) scan order from the
      // senders' pre-stage ready times.
      const std::vector<std::size_t>& resource = options.egress_resource_of;
      for (std::size_t row = first; row < last; ++row) {
        const std::size_t i = compiled.row_rank(row);
        const std::size_t r = resource[i];
        const std::span<const CompiledSchedule::Rank> targets =
            compiled.targets(row);
        const std::span<const double> l = compiled.target_latency(row);
        const std::span<const double> o = compiled.target_overhead(row);
        for (std::size_t k = 0; k < targets.size(); ++k) {
          if (r == resource[targets[k]]) {
            continue;
          }
          if (!ws.res_active[r]) {
            ws.res_active[r] = 1;
            ws.touched_resources.push_back(r);
            ws.res_ready[r] = ready[i];
            ws.res_max_o[r] = 0.0;
            ws.res_sum_l[r] = 0.0;
          } else {
            ws.res_ready[r] = std::max(ws.res_ready[r], ready[i]);
          }
          ws.res_max_o[r] = std::max(ws.res_max_o[r], o[k]);
          ws.res_sum_l[r] += l[k];
        }
      }
    }
    for (std::size_t row = first; row < last; ++row) {
      if (!compiled.targets(row).empty()) {
        double& t = ready[compiled.row_rank(row)];
        t += compiled.batch_cost(row, awaited);
        ws.batch[row - first] = t;
      }
    }
    for (std::size_t row = first; row < last; ++row) {
      const std::span<const CompiledSchedule::Rank> targets =
          compiled.targets(row);
      const std::span<const double> rma = compiled.target_rma_latency(row);
      for (std::size_t k = 0; k < targets.size(); ++k) {
        double& t = ready[targets[k]];
        t = std::max(t, ws.batch[row - first] + rma[k]);
      }
    }
    if (egress) {
      const std::vector<std::size_t>& resource = options.egress_resource_of;
      for (std::size_t row = first; row < last; ++row) {
        const std::size_t r = resource[compiled.row_rank(row)];
        for (const CompiledSchedule::Rank j : compiled.targets(row)) {
          if (r == resource[j]) {
            continue;
          }
          const double bound =
              ws.res_ready[r] + ws.res_max_o[r] + ws.res_sum_l[r];
          ready[j] = std::max(ready[j], bound);
        }
      }
      for (std::size_t r : ws.touched_resources) {
        ws.res_active[r] = 0;
      }
      ws.touched_resources.clear();
    }
    if (options.receiver_processing) {
      for (std::size_t row = first; row < last; ++row) {
        ready[compiled.row_rank(row)] += compiled.recv_processing(row);
      }
    }
    const double after = *std::max_element(ready.begin(), ready.end());
    out.stage_increment.push_back(after - before);
    before = after;
  }

  out.rank_completion.assign(ready.begin(), ready.end());
  out.critical_path =
      *std::max_element(ready.begin(), ready.end()) - start_of_critical;
}

double predicted_time(const CompiledSchedule& compiled,
                      const PredictOptions& options,
                      PredictWorkspace& workspace) {
  predict_into(compiled, options, workspace, workspace.scratch);
  return workspace.scratch.critical_path;
}

IncrementalPredictor::IncrementalPredictor(const TopologyProfile& profile,
                                           bool receiver_processing)
    : profile_(&profile),
      receiver_processing_(receiver_processing),
      p_(profile.ranks()),
      batch_(profile.ranks(), 0.0) {
  OPTIBAR_REQUIRE(p_ > 0, "empty profile");
  stack_.emplace_back(p_, 0.0);
}

void IncrementalPredictor::reset() {
  depth_ = 0;
  stack_[0].assign(p_, 0.0);
}

void IncrementalPredictor::reset(const std::vector<double>& entry) {
  OPTIBAR_REQUIRE(entry.size() == p_, "entry_times size mismatch");
  depth_ = 0;
  stack_[0].assign(entry.begin(), entry.end());
}

double IncrementalPredictor::max_ready() const {
  const std::vector<double>& r = stack_[depth_];
  return *std::max_element(r.begin(), r.end());
}

void IncrementalPredictor::push_stage(const Stage& stage, bool awaited) {
  if (stack_.size() <= depth_ + 1) {
    stack_.emplace_back(p_, 0.0);  // pooled slot, reused after pops
  }
  const std::vector<double>& ready = stack_[depth_];
  std::vector<double>& next = stack_[depth_ + 1];

  // Same recurrence as predict(): Eq. 1/2 batch completion per sender
  // (L summed over ascending targets, exactly step_cost's order)...
  batch_.assign(p_, 0.0);
  for (std::size_t k = 0; k < stage.size();) {
    const std::size_t i = stage[k].src;
    OPTIBAR_REQUIRE(i < p_ && stage[k].dst < p_,
                    "signal out of range for " << p_ << " ranks");
    double sum_l = 0.0;
    double max_o = 0.0;
    for (; k < stage.size() && stage[k].src == i; ++k) {
      sum_l += profile_->l(i, stage[k].dst);
      max_o = std::max(max_o, profile_->o(i, stage[k].dst));
    }
    batch_[i] = (awaited ? profile_->o(i, i) : max_o) + sum_l;
  }
  for (std::size_t i = 0; i < p_; ++i) {
    batch_[i] += ready[i];
    next[i] = batch_[i];
  }
  // ...then receivers wait for every incoming batch...
  for (const Signal& signal : stage) {
    next[signal.dst] = std::max(next[signal.dst], batch_[signal.src]);
  }
  // ...plus serial completion processing (ascending sources).
  if (receiver_processing_) {
    processing_.assign(p_, 0.0);
    for (const Signal& signal : stage) {
      processing_[signal.dst] += profile_->l(signal.src, signal.dst);
    }
    for (std::size_t j = 0; j < p_; ++j) {
      next[j] += processing_[j];
    }
  }
  ++depth_;
}

void IncrementalPredictor::pop_stage() {
  OPTIBAR_REQUIRE(depth_ > 0, "pop_stage on an empty prefix");
  --depth_;
}

}  // namespace optibar
