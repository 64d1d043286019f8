// Deterministic discrete-event queue (the reference scheduler).
//
// Events fire in (time, insertion-sequence) order, so simulations are
// reproducible regardless of how ties arise. The queue is deliberately
// minimal — simulate_reference (engine.hpp) is the only remaining
// client since the hot path moved to the typed-event heap
// (event_heap.hpp), which pops in this same order, but it is generic
// enough for other virtual-time substrates.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace optibar {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedule `action` at absolute virtual time `time`; must not be in
  /// the past relative to now().
  void schedule(double time, Action action) {
    OPTIBAR_REQUIRE(time >= now_, "event scheduled in the past: " << time
                                                                  << " < "
                                                                  << now_);
    heap_.push(Entry{time, next_seq_++, std::move(action)});
  }

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Pop and run the earliest event; advances now().
  void step() {
    OPTIBAR_REQUIRE(!heap_.empty(), "step on empty event queue");
    // Move out before pop (the action may schedule new events). top()
    // is const, but moving only hollows the std::function — the
    // comparator pop() sifts with reads just time/seq, which a move
    // leaves untouched — so this avoids a heap-allocating copy of
    // every fired closure.
    Entry entry = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = entry.time;
    entry.action();
  }

  /// Run until no events remain. `max_events` guards against runaway
  /// event cascades (a simulator bug, not a user error).
  void run(std::size_t max_events = 100'000'000) {
    std::size_t executed = 0;
    while (!heap_.empty()) {
      OPTIBAR_ASSERT(executed++ < max_events,
                     "event cascade exceeded " << max_events << " events");
      step();
    }
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Action action;

    bool operator>(const Entry& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace optibar
