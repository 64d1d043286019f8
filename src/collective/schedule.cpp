#include "collective/schedule.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace optibar {

namespace {

/// Partition of [0, elem_count) induced by all nonzero edge boundaries:
/// sorted segment start offsets, with elem_count as the final sentinel.
/// Every edge range is a union of consecutive segments.
std::vector<std::size_t> segment_bounds(const CollectiveSchedule& schedule) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  bounds.push_back(schedule.elem_count());
  for (const CollectiveStage& stage : schedule.stages()) {
    for (const CollectiveEdge& e : stage) {
      if (e.count == 0) {
        continue;
      }
      bounds.push_back(e.offset);
      bounds.push_back(e.offset + e.count);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

std::size_t segment_of(const std::vector<std::size_t>& bounds,
                       std::size_t offset) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), offset);
  OPTIBAR_ASSERT(it != bounds.end() && *it == offset,
                 "offset " << offset << " is not a segment boundary");
  return static_cast<std::size_t>(it - bounds.begin());
}

/// Incoming edges of a stage grouped by receiver, each group in
/// ascending source order — the application order of both the verifier
/// and the executors. Edges are stored sorted by (src, dst), so a
/// single pass appends each receiver's sources in ascending order.
std::vector<std::vector<const CollectiveEdge*>> edges_by_receiver(
    const CollectiveStage& stage, std::size_t ranks) {
  std::vector<std::vector<const CollectiveEdge*>> incoming(ranks);
  for (const CollectiveEdge& e : stage) {
    incoming[e.dst].push_back(&e);
  }
  return incoming;
}

}  // namespace

const char* to_string(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kBroadcast:
      return "bcast";
    case CollectiveOp::kReduce:
      return "reduce";
    case CollectiveOp::kAllreduce:
      return "allreduce";
  }
  OPTIBAR_FAIL("unknown CollectiveOp");
}

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return "sum";
    case ReduceOp::kMin:
      return "min";
    case ReduceOp::kMax:
      return "max";
    case ReduceOp::kXor:
      return "xor";
  }
  OPTIBAR_FAIL("unknown ReduceOp");
}

CollectiveSchedule::CollectiveSchedule(CollectiveOp op, std::size_t ranks,
                                       std::size_t elem_count,
                                       std::size_t elem_bytes,
                                       std::size_t root)
    : op_(op),
      ranks_(ranks),
      root_(op == CollectiveOp::kAllreduce ? 0 : root),
      elem_count_(elem_count),
      elem_bytes_(elem_bytes) {
  OPTIBAR_REQUIRE(ranks_ > 0, "collective schedule needs at least one rank");
  OPTIBAR_REQUIRE(root_ < ranks_,
                  "root " << root_ << " out of range for " << ranks_
                          << " ranks");
}

const CollectiveStage& CollectiveSchedule::stage(std::size_t s) const {
  OPTIBAR_REQUIRE(s < stages_.size(),
                  "stage " << s << " out of range (" << stages_.size() << ")");
  return stages_[s];
}

void CollectiveSchedule::append_stage(CollectiveStage stage) {
  std::sort(stage.begin(), stage.end(),
            [](const CollectiveEdge& a, const CollectiveEdge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  for (std::size_t k = 0; k < stage.size(); ++k) {
    const CollectiveEdge& e = stage[k];
    OPTIBAR_REQUIRE(e.src < ranks_ && e.dst < ranks_,
                    "edge " << e.src << "->" << e.dst << " out of range for "
                            << ranks_ << " ranks");
    OPTIBAR_REQUIRE(e.src != e.dst, "self edge at rank " << e.src);
    OPTIBAR_REQUIRE(e.offset + e.count <= elem_count_,
                    "edge range [" << e.offset << ", " << e.offset + e.count
                                   << ") exceeds elem_count " << elem_count_);
    OPTIBAR_REQUIRE(k == 0 || stage[k - 1].src != e.src ||
                        stage[k - 1].dst != e.dst,
                    "duplicate edge " << e.src << "->" << e.dst
                                      << " in one stage");
  }
  stages_.push_back(std::move(stage));
}

std::size_t CollectiveSchedule::total_bytes() const {
  std::size_t bytes = 0;
  for (const CollectiveStage& stage : stages_) {
    for (const CollectiveEdge& e : stage) {
      bytes += edge_bytes(e);
    }
  }
  return bytes;
}

std::size_t CollectiveSchedule::total_edges() const {
  std::size_t edges = 0;
  for (const CollectiveStage& stage : stages_) {
    edges += stage.size();
  }
  return edges;
}

Schedule CollectiveSchedule::signal_schedule() const {
  Schedule signals(ranks_);
  for (const CollectiveStage& stage : stages_) {
    StageMatrix m(ranks_, ranks_, 0);
    for (const CollectiveEdge& e : stage) {
      m(e.src, e.dst) = 1;
    }
    signals.append_stage(std::move(m));
  }
  return signals;
}

CollectiveSchedule from_barrier(const Schedule& schedule,
                                std::size_t elem_bytes) {
  CollectiveSchedule coll(CollectiveOp::kAllreduce, schedule.ranks(),
                          /*elem_count=*/0, elem_bytes);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    CollectiveStage stage;
    for (std::size_t i = 0; i < schedule.ranks(); ++i) {
      for (std::size_t j : schedule.targets_of(i, s)) {
        stage.push_back(CollectiveEdge{i, j, 0, 0, false});
      }
    }
    coll.append_stage(std::move(stage));
  }
  return coll;
}

bool is_valid_collective(const CollectiveSchedule& schedule) {
  const std::size_t p = schedule.ranks();
  if (schedule.elem_count() == 0) {
    // Zero payload: the data dataflow is vacuous, so validity is the
    // signal pattern's knowledge propagation (the Eq. 3 view) instead —
    // broadcast: the root's signal reaches every rank; reduce: the root
    // transitively hears from every rank; allreduce: a full barrier,
    // everyone comes to know of everyone's arrival.
    std::vector<std::vector<char>> knows(p, std::vector<char>(p, 0));
    for (std::size_t r = 0; r < p; ++r) {
      knows[r][r] = 1;
    }
    for (const CollectiveStage& stage : schedule.stages()) {
      const std::vector<std::vector<char>> snapshot = knows;
      for (const CollectiveEdge& e : stage) {
        for (std::size_t r = 0; r < p; ++r) {
          knows[e.dst][r] |= snapshot[e.src][r];
        }
      }
    }
    const auto knows_all = [&](std::size_t rank) {
      for (std::size_t r = 0; r < p; ++r) {
        if (!knows[rank][r]) {
          return false;
        }
      }
      return true;
    };
    switch (schedule.op()) {
      case CollectiveOp::kBroadcast:
        for (std::size_t r = 0; r < p; ++r) {
          if (!knows[r][schedule.root()]) {
            return false;
          }
        }
        return true;
      case CollectiveOp::kReduce:
        return knows_all(schedule.root());
      case CollectiveOp::kAllreduce:
        for (std::size_t r = 0; r < p; ++r) {
          if (!knows_all(r)) {
            return false;
          }
        }
        return true;
    }
    OPTIBAR_FAIL("unknown CollectiveOp");
  }
  const std::vector<std::size_t> bounds = segment_bounds(schedule);
  const std::size_t segs = bounds.size() - 1;
  // state[rank * segs + seg] is the contribution-count vector of that
  // buffer segment: entry r counts how often rank r's input is folded
  // into it. Initially every buffer holds exactly its own input.
  std::vector<std::vector<std::uint32_t>> state(p * segs);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      state[r * segs + seg].assign(p, 0);
      state[r * segs + seg][r] = 1;
    }
  }

  for (const CollectiveStage& stage : schedule.stages()) {
    const std::vector<std::vector<std::uint32_t>> snapshot = state;
    for (const auto& incoming : edges_by_receiver(stage, p)) {
      for (const CollectiveEdge* e : incoming) {
        if (e->count == 0) {
          continue;
        }
        const std::size_t first = segment_of(bounds, e->offset);
        const std::size_t last = segment_of(bounds, e->offset + e->count);
        for (std::size_t seg = first; seg < last; ++seg) {
          const std::vector<std::uint32_t>& in =
              snapshot[e->src * segs + seg];
          std::vector<std::uint32_t>& out = state[e->dst * segs + seg];
          if (e->combine) {
            for (std::size_t r = 0; r < p; ++r) {
              out[r] += in[r];
            }
          } else {
            out = in;
          }
        }
      }
    }
  }

  const auto holds_reduction = [&](std::size_t rank) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      for (std::size_t r = 0; r < p; ++r) {
        if (state[rank * segs + seg][r] != 1) {
          return false;
        }
      }
    }
    return true;
  };
  const auto holds_root_copy = [&](std::size_t rank) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      for (std::size_t r = 0; r < p; ++r) {
        const std::uint32_t want = r == schedule.root() ? 1 : 0;
        if (state[rank * segs + seg][r] != want) {
          return false;
        }
      }
    }
    return true;
  };

  switch (schedule.op()) {
    case CollectiveOp::kBroadcast:
      for (std::size_t r = 0; r < p; ++r) {
        if (!holds_root_copy(r)) {
          return false;
        }
      }
      return true;
    case CollectiveOp::kReduce:
      return holds_reduction(schedule.root());
    case CollectiveOp::kAllreduce:
      for (std::size_t r = 0; r < p; ++r) {
        if (!holds_reduction(r)) {
          return false;
        }
      }
      return true;
  }
  OPTIBAR_FAIL("unknown CollectiveOp");
}

std::vector<Payload> execute_serial(const CollectiveSchedule& schedule,
                                    ReduceOp op,
                                    const std::vector<Payload>& inputs) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(inputs.size() == p,
                  "expected " << p << " input buffers, got " << inputs.size());
  for (const Payload& in : inputs) {
    OPTIBAR_REQUIRE(in.size() == schedule.elem_count(),
                    "input buffer has " << in.size() << " words, expected "
                                        << schedule.elem_count());
  }
  std::vector<Payload> state = inputs;
  for (const CollectiveStage& stage : schedule.stages()) {
    const std::vector<Payload> snapshot = state;
    for (const auto& incoming : edges_by_receiver(stage, p)) {
      for (const CollectiveEdge* e : incoming) {
        const Payload& in = snapshot[e->src];
        Payload& out = state[e->dst];
        for (std::size_t k = 0; k < e->count; ++k) {
          const std::size_t idx = e->offset + k;
          out[idx] =
              e->combine ? reduce_word(op, out[idx], in[idx]) : in[idx];
        }
      }
    }
  }
  return state;
}

std::vector<Payload> oracle_result(const CollectiveSchedule& schedule,
                                   ReduceOp op,
                                   const std::vector<Payload>& inputs) {
  const std::size_t p = schedule.ranks();
  OPTIBAR_REQUIRE(inputs.size() == p,
                  "expected " << p << " input buffers, got " << inputs.size());
  std::vector<Payload> result = inputs;
  if (schedule.op() == CollectiveOp::kBroadcast) {
    for (std::size_t r = 0; r < p; ++r) {
      result[r] = inputs[schedule.root()];
    }
    return result;
  }
  Payload reduced = inputs[0];
  for (std::size_t r = 1; r < p; ++r) {
    for (std::size_t k = 0; k < reduced.size(); ++k) {
      reduced[k] = reduce_word(op, reduced[k], inputs[r][k]);
    }
  }
  if (schedule.op() == CollectiveOp::kReduce) {
    result[schedule.root()] = std::move(reduced);
    return result;
  }
  for (std::size_t r = 0; r < p; ++r) {
    result[r] = reduced;
  }
  return result;
}

std::ostream& operator<<(std::ostream& os, const CollectiveSchedule& schedule) {
  os << to_string(schedule.op()) << " P=" << schedule.ranks()
     << " root=" << schedule.root() << " elems=" << schedule.elem_count()
     << "x" << schedule.elem_bytes() << "B stages="
     << schedule.stage_count() << '\n';
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    os << "  S" << s << ":";
    for (const CollectiveEdge& e : schedule.stage(s)) {
      os << ' ' << e.src << (e.combine ? "+>" : "->") << e.dst << "["
         << e.offset << ',' << e.offset + e.count << ')';
    }
    os << '\n';
  }
  return os;
}

}  // namespace optibar
