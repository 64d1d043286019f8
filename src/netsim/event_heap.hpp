// Binary min-heap scheduler over typed simulation events.
//
// The zero-alloc replacement for EventQueue on the netsim hot path
// (EventQueue remains as the reference scheduler — see engine.hpp's
// simulate_reference). Two structural changes buy the throughput:
//
//   - events are a typed POD (SimEvent) dispatched through a switch in
//     the engine, not a heap-allocated std::function closure;
//   - event storage is a slab arena with a free list: pending events
//     live in reused slots, and the heap itself orders 24-byte
//     (time, seq, slot) references, so steady-state scheduling performs
//     no heap allocation at all once the slab and heap are warm.
//
// Determinism contract (the invariant everything else leans on): pop()
// returns events in exactly ascending (time, insertion-sequence) order
// — the same total order as EventQueue. Sequence numbers are unique, so
// before() is a strict total order and the heap's root is the unique
// minimum; every pop therefore takes the same event EventQueue would
// fire, whatever the heap's internal layout. No floating-point
// arithmetic on times is involved — they are only compared.
//
// reset() keeps every capacity (heap, slab, free list), so repeated
// simulations reuse all storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace optibar {

/// What a fired event does (the engine's dispatch switch).
enum class SimEventKind : std::uint8_t {
  kEnter = 0,      ///< rank `a` enters the barrier
  kInject,         ///< message `a` -> `b` of `stage` arrives (ghost?)
  kAsyncSendDone,  ///< eager-send stage token of rank `a` completes
  kFinalizeMatch,  ///< receiver processing of `a` -> `b` done (payload
                   ///< = injection time, for the trace)
  kAdvanceStage,   ///< deferred poll-tick transition of rank `a`
  kPutInject,      ///< one-sided put `a` -> `b` of `stage` hits the wire
  kPutLand,        ///< put flag `a` -> `b` becomes visible (payload =
                   ///< injection time, for the trace)
  kPutsDone,       ///< sync-mode put-batch token of rank `a` completes
};

/// One typed simulation event. Plain data: the meaning of a/b/stage/
/// payload depends on `kind` (see SimEventKind). Time and tie-break
/// sequence live in the heap's entries, not here.
struct SimEvent {
  SimEventKind kind = SimEventKind::kEnter;
  bool ghost = false;
  std::uint32_t stage = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double payload = 0.0;
};

class EventHeap {
 public:
  /// Schedule `event` at absolute virtual time `time`; must not be in
  /// the past relative to now().
  void schedule(double time, const SimEvent& event) {
    OPTIBAR_REQUIRE(time >= now_, "event scheduled in the past: " << time
                                                                  << " < "
                                                                  << now_);
    std::uint32_t slot = static_cast<std::uint32_t>(slab_.size());
    if (free_.empty()) {
      slab_.push_back(event);
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = event;
    }
    const Ref ref{time, next_seq_++, slot};
    // Sift up: move the hole from the new leaf toward the root past
    // every parent that orders after `ref`, then drop `ref` into it.
    std::size_t hole = heap_.size();
    heap_.push_back(ref);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(ref, heap_[parent])) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = ref;
  }

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Total events scheduled since the last reset() (the events/sec
  /// numerator of bench_netsim).
  std::uint64_t scheduled() const { return next_seq_; }

  /// Remove and return the earliest event (ascending (time, seq));
  /// advances now().
  SimEvent pop() {
    OPTIBAR_REQUIRE(!heap_.empty(), "pop on empty event heap");
    const Ref top = heap_.front();
    const Ref last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift down: the root is now a hole; move it toward the leaves
      // past every smaller child that orders before `last`, then drop
      // `last` into it.
      std::size_t hole = 0;
      for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n) {
          break;
        }
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) {
          ++child;
        }
        if (!before(heap_[child], last)) {
          break;
        }
        heap_[hole] = heap_[child];
        hole = child;
      }
      heap_[hole] = last;
    }
    now_ = top.time;
    const SimEvent event = slab_[top.slot];
    free_.push_back(top.slot);
    return event;
  }

  /// Drop all pending events and rewind time, keeping every capacity
  /// (heap, slab, free list).
  void reset() {
    heap_.clear();
    slab_.clear();
    free_.clear();
    now_ = 0.0;
    next_seq_ = 0;
  }

 private:
  struct Ref {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Ref& a, const Ref& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  std::vector<Ref> heap_;            ///< binary min-heap under before()
  std::vector<SimEvent> slab_;       ///< event payload arena
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace optibar
