#include "collective/schedule.hpp"

#include <algorithm>
#include <utility>

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
/// ascending source order — the application order of the serial
/// interpreter and the executors. Edges are stored sorted by (src, dst),
/// so a single pass appends each receiver's sources in ascending order.
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
    // Collective stages are sorted by (src, dst) without duplicates, so
    // their edges are already a signal stage.
    Stage signal_stage(stage.size());
    for (std::size_t k = 0; k < stage.size(); ++k) {
      signal_stage[k] = Signal{static_cast<std::uint32_t>(stage[k].src),
                               static_cast<std::uint32_t>(stage[k].dst)};
    }
    signals.append_stage(std::move(signal_stage));
  }
  return signals;
}

CollectiveSchedule from_barrier(const Schedule& schedule,
                                std::size_t elem_bytes) {
  CollectiveSchedule coll(CollectiveOp::kAllreduce, schedule.ranks(),
                          /*elem_count=*/0, elem_bytes);
  for (const Stage& signals : schedule.stages()) {
    CollectiveStage stage;
    stage.reserve(signals.size());
    for (const Signal& signal : signals) {
      stage.push_back(CollectiveEdge{signal.src, signal.dst, 0, 0, false});
    }
    coll.append_stage(std::move(stage));
  }
  return coll;
}

bool is_valid_collective(const CollectiveSchedule& schedule) {
  const std::size_t p = schedule.ranks();
  const std::size_t root = schedule.root();
  // Zero payload: the data check is vacuous, so one segment stands for
  // the whole (empty) buffer and every signal carries knowledge instead.
  const bool signals_only = schedule.elem_count() == 0;
  const std::vector<std::size_t> bounds = segment_bounds(schedule);
  const std::size_t segs = signals_only ? 1 : bounds.size() - 1;
  // Slot (rank, seg) is 2 * words consecutive words: the `once` plane,
  // then the `more` plane, each a bitset over contributing ranks.
  // Initially every buffer holds exactly its own input.
  const std::size_t words = (p + 63) / 64;
  const std::size_t slot_words = 2 * words;
  const auto bit = [](std::size_t r) { return std::uint64_t{1} << (r % 64); };
  std::vector<std::uint64_t> state(p * segs * slot_words, 0);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      state[(r * segs + seg) * slot_words + r / 64] = bit(r);
    }
  }
  const auto slot = [&](std::size_t rank, std::size_t seg) {
    return state.data() + (rank * segs + seg) * slot_words;
  };
  // Segments [first, last) an edge reads and writes; empty for a signal
  // when the schedule carries data.
  const auto carried = [&](const CollectiveEdge& e) {
    if (signals_only) {
      return std::pair<std::size_t, std::size_t>{0, 1};
    }
    if (e.count == 0) {
      return std::pair<std::size_t, std::size_t>{0, 0};
    }
    return std::pair{segment_of(bounds, e.offset),
                     segment_of(bounds, e.offset + e.count)};
  };

  std::vector<std::uint64_t> staged;
  for (const CollectiveStage& stage : schedule.stages()) {
    // Reads see each sender as it was when the stage began: gather every
    // edge's source slots before any edge writes.
    staged.clear();
    for (const CollectiveEdge& e : stage) {
      const auto [first, last] = carried(e);
      const std::uint64_t* src = slot(e.src, first);
      staged.insert(staged.end(), src, src + (last - first) * slot_words);
    }
    // Stored (src, dst) order applies each receiver's edges in ascending
    // source order, as the executors do.
    const std::uint64_t* in = staged.data();
    for (const CollectiveEdge& e : stage) {
      const auto [first, last] = carried(e);
      std::uint64_t* out = slot(e.dst, first);
      for (std::size_t seg = first; seg < last;
           ++seg, in += slot_words, out += slot_words) {
        if (signals_only) {
          for (std::size_t w = 0; w < words; ++w) {
            out[w] |= in[w];
          }
        } else if (e.combine) {
          for (std::size_t w = 0; w < words; ++w) {
            out[words + w] |= in[words + w] | (out[w] & in[w]);
            out[w] |= in[w];
          }
        } else {
          std::copy(in, in + slot_words, out);
        }
      }
    }
  }

  std::vector<std::uint64_t> everyone(words, ~std::uint64_t{0});
  if (p % 64 != 0) {
    everyone.back() = bit(p) - 1;
  }
  std::vector<std::uint64_t> root_only(words, 0);
  root_only[root / 64] = bit(root);
  // Every segment of `rank` holds each rank of `want` exactly once and
  // no other rank.
  const auto holds = [&](std::size_t rank,
                         const std::vector<std::uint64_t>& want) {
    for (std::size_t seg = 0; seg < segs; ++seg) {
      const std::uint64_t* once = slot(rank, seg);
      const std::uint64_t* more = once + words;
      if (!std::equal(want.begin(), want.end(), once) ||
          std::any_of(more, more + words,
                      [](std::uint64_t w) { return w != 0; })) {
        return false;
      }
    }
    return true;
  };
  const auto knows_root = [&](std::size_t rank) {
    return (slot(rank, 0)[root / 64] & bit(root)) != 0;
  };

  switch (schedule.op()) {
    case CollectiveOp::kBroadcast:
      for (std::size_t r = 0; r < p; ++r) {
        if (signals_only ? !knows_root(r) : !holds(r, root_only)) {
          return false;
        }
      }
      return true;
    case CollectiveOp::kReduce:
      return holds(root, everyone);
    case CollectiveOp::kAllreduce:
      for (std::size_t r = 0; r < p; ++r) {
        if (!holds(r, everyone)) {
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
