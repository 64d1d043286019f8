#include "compiled_oracle.hpp"

#include <algorithm>

#include "dense_schedule_oracle.hpp"
#include "util/error.hpp"

namespace optibar::oracle {

CompiledSchedule::CompiledSchedule(const Schedule& schedule,
                                   const TopologyProfile& profile) {
  compile(schedule, profile);
}

void CompiledSchedule::compile(const Schedule& schedule,
                               const TopologyProfile& profile) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(profile.ranks() == p,
                  "profile has " << profile.ranks() << " ranks, schedule has "
                                 << p);
  p_ = p;
  stages_ = schedule.stage_count();
  const std::size_t rows = stages_ * p_;

  tgt_offsets_.clear();
  tgt_offsets_.reserve(rows + 1);
  tgt_offsets_.push_back(0);
  tgt_index_.clear();
  tgt_l_.clear();
  tgt_o_.clear();
  tgt_r_.clear();
  tgt_rma_.clear();
  src_offsets_.clear();
  src_offsets_.reserve(rows + 1);
  src_offsets_.push_back(0);
  src_index_.clear();
  src_rma_.clear();
  sum_l_.clear();
  sum_l_.reserve(rows);
  max_o_.clear();
  max_o_.reserve(rows);
  recv_l_.clear();
  recv_l_.reserve(rows);

  self_o_.resize(p_);
  for (std::size_t i = 0; i < p_; ++i) {
    self_o_[i] = profile.o(i, i);
  }

  for (std::size_t s = 0; s < stages_; ++s) {
    // The dense cells of the stage and of its one-sided subset.
    const oracle::StageMatrix m = oracle::stage_matrix(schedule, s);
    const oracle::StageMatrix t = oracle::transport_matrix(schedule, s);
    const bool mixed = !t.all_zero();
    // Target rows: same ascending-j order as Schedule::targets_of, so
    // the L sum below accumulates in exactly the reference order.
    for (std::size_t i = 0; i < p_; ++i) {
      double sum_l = 0.0;
      double max_o = 0.0;
      for (std::size_t j = 0; j < p_; ++j) {
        if (!m.at_unchecked(i, j)) {
          continue;
        }
        const bool put = mixed && t.at_unchecked(i, j);
        const double l = profile.l(i, j);
        // A put needs only local initiation (O(i,i)) — no rendezvous
        // with the receiver — and delivers after R(i,j).
        const double o = put ? profile.o(i, i) : profile.o(i, j);
        tgt_index_.push_back(j);
        tgt_l_.push_back(l);
        tgt_o_.push_back(o);
        tgt_r_.push_back(put ? profile.r(i, j) : 0.0);
        tgt_rma_.push_back(put ? 1 : 0);
        sum_l += l;
        max_o = std::max(max_o, o);
      }
      tgt_offsets_.push_back(tgt_index_.size());
      sum_l_.push_back(sum_l);
      max_o_.push_back(max_o);
    }
    // Source rows: ascending-i order of Schedule::sources_of. Puts
    // bypass the receiver's CPU, so only two-sided edges contribute to
    // the serial completion processing term.
    for (std::size_t j = 0; j < p_; ++j) {
      double recv_l = 0.0;
      for (std::size_t i = 0; i < p_; ++i) {
        if (!m.at_unchecked(i, j)) {
          continue;
        }
        const bool put = mixed && t.at_unchecked(i, j);
        src_index_.push_back(i);
        src_rma_.push_back(put ? 1 : 0);
        if (!put) {
          recv_l += profile.l(i, j);
        }
      }
      src_offsets_.push_back(src_index_.size());
      recv_l_.push_back(recv_l);
    }
  }
}

void CompiledSchedule::compile_edges(
    std::size_t ranks, const std::vector<std::vector<CompiledEdge>>& stage_edges,
    const std::vector<double>& self_overhead) {
  OPTIBAR_REQUIRE(ranks > 0, "compile_edges with zero ranks");
  OPTIBAR_REQUIRE(self_overhead.size() == ranks,
                  "self_overhead has " << self_overhead.size()
                                       << " entries, expected " << ranks);
  p_ = ranks;
  stages_ = stage_edges.size();
  const std::size_t rows = stages_ * p_;

  tgt_offsets_.clear();
  tgt_offsets_.reserve(rows + 1);
  tgt_offsets_.push_back(0);
  tgt_index_.clear();
  tgt_l_.clear();
  tgt_o_.clear();
  tgt_r_.clear();
  tgt_rma_.clear();
  src_offsets_.clear();
  src_offsets_.reserve(rows + 1);
  src_offsets_.push_back(0);
  src_index_.clear();
  src_rma_.clear();
  sum_l_.clear();
  sum_l_.reserve(rows);
  max_o_.clear();
  max_o_.reserve(rows);
  recv_l_.clear();
  recv_l_.reserve(rows);

  self_o_.assign(self_overhead.begin(), self_overhead.end());

  // Scratch permutation into (dst, src) order for the source rows.
  std::vector<std::size_t> by_dst;
  for (std::size_t s = 0; s < stages_; ++s) {
    const std::vector<CompiledEdge>& edges = stage_edges[s];
    // Target rows in the given (src, dst) order — the ascending-target
    // reference order; one pass per stage, senders grouped contiguously.
    std::size_t k = 0;
    for (std::size_t i = 0; i < p_; ++i) {
      double sum_l = 0.0;
      double max_o = 0.0;
      for (; k < edges.size() && edges[k].src == i; ++k) {
        const CompiledEdge& e = edges[k];
        OPTIBAR_REQUIRE(e.src < p_ && e.dst < p_ && e.src != e.dst,
                        "bad edge " << e.src << "->" << e.dst);
        OPTIBAR_REQUIRE(k == 0 || edges[k - 1].src < e.src ||
                            edges[k - 1].dst < e.dst,
                        "stage edges must be sorted by (src, dst) without "
                        "duplicates");
        tgt_index_.push_back(e.dst);
        tgt_l_.push_back(e.l);
        tgt_o_.push_back(e.o);
        tgt_r_.push_back(e.one_sided ? e.r : 0.0);
        tgt_rma_.push_back(e.one_sided ? 1 : 0);
        sum_l += e.l;
        max_o = std::max(max_o, e.o);
      }
      tgt_offsets_.push_back(tgt_index_.size());
      sum_l_.push_back(sum_l);
      max_o_.push_back(max_o);
    }
    OPTIBAR_REQUIRE(k == edges.size(), "stage edges not sorted by src");
    // Source rows in (dst, src) order — ascending sources per receiver.
    by_dst.resize(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      by_dst[e] = e;
    }
    std::sort(by_dst.begin(), by_dst.end(),
              [&edges](std::size_t a, std::size_t b) {
                return edges[a].dst != edges[b].dst
                           ? edges[a].dst < edges[b].dst
                           : edges[a].src < edges[b].src;
              });
    std::size_t q = 0;
    for (std::size_t j = 0; j < p_; ++j) {
      double recv_l = 0.0;
      for (; q < by_dst.size() && edges[by_dst[q]].dst == j; ++q) {
        const CompiledEdge& e = edges[by_dst[q]];
        src_index_.push_back(e.src);
        src_rma_.push_back(e.one_sided ? 1 : 0);
        if (!e.one_sided) {
          recv_l += e.l;
        }
      }
      src_offsets_.push_back(src_index_.size());
      recv_l_.push_back(recv_l);
    }
  }
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
  const std::size_t* sources = src_index_.data();
  const std::size_t* source = std::lower_bound(
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
  if (options.entry_times.empty()) {
    ws.ready.assign(p, 0.0);
  } else {
    ws.ready.assign(options.entry_times.begin(), options.entry_times.end());
  }
  ws.next.assign(p, 0.0);
  ws.batch.assign(p, 0.0);
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
      *std::max_element(ws.ready.begin(), ws.ready.end());
  out.stage_increment.clear();

  for (std::size_t s = 0; s < compiled.stage_count(); ++s) {
    const bool awaited =
        s < options.awaited_stages.size() && options.awaited_stages[s];
    const double before = *std::max_element(ws.ready.begin(), ws.ready.end());

    // A rank's own step completes after it issues its batch; receivers
    // additionally wait for every incoming batch of the stage. A put
    // edge becomes visible R(i,j) after the sender's batch (tgt_r_ is
    // exactly 0.0 on two-sided edges, so pure two-sided schedules stay
    // bit-identical).
    for (std::size_t i = 0; i < p; ++i) {
      ws.batch[i] = ws.ready[i] + compiled.batch_cost(i, s, awaited);
      ws.next[i] = ws.batch[i];
    }
    for (std::size_t i = 0; i < p; ++i) {
      const std::span<const std::size_t> targets = compiled.targets(i, s);
      const std::span<const double> rma = compiled.target_rma_latency(i, s);
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const std::size_t j = targets[k];
        ws.next[j] = std::max(ws.next[j], ws.batch[i] + rma[k]);
      }
    }
    if (egress) {
      // Analytic shared-egress serialization (see predict_reference):
      // per resource, ready time, max O and sum of L over its remote
      // messages, accumulated in (sender, target) scan order into the
      // flat dense-id arrays.
      const std::vector<std::size_t>& resource = options.egress_resource_of;
      for (std::size_t i = 0; i < p; ++i) {
        const std::size_t r = resource[i];
        const std::span<const std::size_t> targets = compiled.targets(i, s);
        const std::span<const double> l = compiled.target_latency(i, s);
        const std::span<const double> o = compiled.target_overhead(i, s);
        for (std::size_t k = 0; k < targets.size(); ++k) {
          if (r == resource[targets[k]]) {
            continue;
          }
          if (!ws.res_active[r]) {
            ws.res_active[r] = 1;
            ws.touched_resources.push_back(r);
            ws.res_ready[r] = ws.ready[i];
            ws.res_max_o[r] = 0.0;
            ws.res_sum_l[r] = 0.0;
          } else {
            ws.res_ready[r] = std::max(ws.res_ready[r], ws.ready[i]);
          }
          ws.res_max_o[r] = std::max(ws.res_max_o[r], o[k]);
          ws.res_sum_l[r] += l[k];
        }
      }
      for (std::size_t i = 0; i < p; ++i) {
        const std::size_t r = resource[i];
        for (std::size_t j : compiled.targets(i, s)) {
          if (r == resource[j]) {
            continue;
          }
          const double bound =
              ws.res_ready[r] + ws.res_max_o[r] + ws.res_sum_l[r];
          ws.next[j] = std::max(ws.next[j], bound);
        }
      }
      for (std::size_t r : ws.touched_resources) {
        ws.res_active[r] = 0;
      }
      ws.touched_resources.clear();
    }
    if (options.receiver_processing) {
      for (std::size_t j = 0; j < p; ++j) {
        ws.next[j] += compiled.recv_processing(j, s);
      }
    }
    std::swap(ws.ready, ws.next);
    const double after = *std::max_element(ws.ready.begin(), ws.ready.end());
    out.stage_increment.push_back(after - before);
  }

  out.rank_completion.assign(ws.ready.begin(), ws.ready.end());
  out.critical_path =
      *std::max_element(ws.ready.begin(), ws.ready.end()) - start_of_critical;
}

double predicted_time(const CompiledSchedule& compiled,
                      const PredictOptions& options,
                      PredictWorkspace& workspace) {
  predict_into(compiled, options, workspace, workspace.scratch);
  return workspace.scratch.critical_path;
}

}  // namespace optibar::oracle
