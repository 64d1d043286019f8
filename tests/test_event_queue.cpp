// Tests for the deterministic discrete-event queue (the reference
// scheduler) and the typed-event heap that replaced it on the hot path.
// The two must agree on the total order — ascending (time, insertion
// sequence) — which the cross-check tests below enforce under
// randomized interleaved push/pop traffic and under the 10k-rank
// tie-heavy traffic shape.
#include "netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "netsim/event_heap.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(10); });
  q.schedule(1.0, [&] { order.push_back(20); });
  q.schedule(1.0, [&] { order.push_back(30); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueue, NowAdvancesWithEvents) {
  EventQueue q;
  double seen = -1.0;
  q.schedule(5.5, [&] { seen = q.now(); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(q.now(), 5.5);
}

TEST(EventQueue, EventsMayScheduleFurtherEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(q.now());
    q.schedule(2.0, [&] { times.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(2.0, [&] {
    EXPECT_THROW(q.schedule(1.0, [] {}), Error);
  });
  q.run();
}

TEST(EventQueue, SchedulingAtNowIsAllowed) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { q.schedule(1.0, [&] { ++fired; }); });
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StepOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.step(), Error);
}

TEST(EventQueue, PendingCountsScheduledEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.step();
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunawayCascadeIsCaught) {
  EventQueue q;
  // An event that perpetually reschedules itself must trip the guard.
  std::function<void()> loop = [&] { q.schedule(q.now() + 1.0, loop); };
  q.schedule(0.0, loop);
  EXPECT_THROW(q.run(/*max_events=*/1000), Error);
}

SimEvent tagged(std::uint32_t tag) {
  SimEvent e;
  e.a = tag;
  return e;
}

TEST(EventHeap, FiresInTimeOrder) {
  EventHeap q;
  q.schedule(3.0, tagged(3));
  q.schedule(1.0, tagged(1));
  q.schedule(2.0, tagged(2));
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_EQ(q.pop().a, 3u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventHeap, TiesBreakByInsertionOrder) {
  EventHeap q;
  for (std::uint32_t i = 0; i < 100; ++i) {
    q.schedule(1.0, tagged(i));
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(q.pop().a, i);
  }
}

TEST(EventHeap, SchedulingInThePastThrows) {
  EventHeap q;
  q.schedule(2.0, tagged(0));
  q.pop();
  EXPECT_THROW(q.schedule(1.0, tagged(1)), Error);
  q.schedule(2.0, tagged(2));  // at now() is allowed
  EXPECT_EQ(q.pop().a, 2u);
}

TEST(EventHeap, PopOnEmptyThrows) {
  EventHeap q;
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventHeap, EventPayloadSurvivesSlabRecycling) {
  EventHeap q;
  SimEvent e;
  e.kind = SimEventKind::kFinalizeMatch;
  e.ghost = true;
  e.stage = 7;
  e.a = 11;
  e.b = 13;
  e.payload = 0.125;
  q.schedule(1.0, e);
  const SimEvent out = q.pop();
  EXPECT_EQ(out.kind, SimEventKind::kFinalizeMatch);
  EXPECT_TRUE(out.ghost);
  EXPECT_EQ(out.stage, 7u);
  EXPECT_EQ(out.a, 11u);
  EXPECT_EQ(out.b, 13u);
  EXPECT_DOUBLE_EQ(out.payload, 0.125);
  // The freed slot is recycled; the next event must not inherit stale
  // fields.
  q.schedule(2.0, tagged(1));
  const SimEvent next = q.pop();
  EXPECT_EQ(next.kind, SimEventKind::kEnter);
  EXPECT_FALSE(next.ghost);
  EXPECT_DOUBLE_EQ(next.payload, 0.0);
}

// The determinism property: under randomized interleaved traffic —
// bursts of pushes at clustered, tied, and spread-out times, partial
// drains in between — the event heap must pop the exact sequence
// the reference EventQueue fires. This is the total-order contract the
// engine parity rests on.
TEST(EventHeap, MatchesReferenceQueueUnderRandomTraffic) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventHeap heap;
    EventQueue ref;
    std::vector<std::uint32_t> ref_order;
    std::uint32_t next_tag = 0;
    std::vector<std::uint32_t> heap_order;
    // Random program: pushes with time offsets drawn from mixed scales
    // (dense cluster, exact ties via grid rounding, occasional long
    // jumps), separated by partial drains.
    for (int round = 0; round < 60; ++round) {
      const std::size_t pushes = 1 + static_cast<std::size_t>(
                                         rng.next_double() * 40.0);
      for (std::size_t i = 0; i < pushes; ++i) {
        double offset;
        const double pick = rng.next_double();
        if (pick < 0.4) {
          // Ties: round to a coarse grid so many events collide.
          offset = std::floor(rng.next_double() * 8.0);
        } else if (pick < 0.9) {
          offset = rng.next_double() * 3.0;
        } else {
          offset = 50.0 + rng.next_double() * 1000.0;  // far future
        }
        const double t = heap.now() + offset;
        const std::uint32_t tag = next_tag++;
        heap.schedule(t, tagged(tag));
        ref.schedule(t, [&ref_order, tag] { ref_order.push_back(tag); });
      }
      const std::size_t drains =
          static_cast<std::size_t>(rng.next_double() *
                                   static_cast<double>(heap.pending()));
      for (std::size_t i = 0; i < drains; ++i) {
        heap_order.push_back(heap.pop().a);
        ref.step();
        EXPECT_EQ(heap.now(), ref.now()) << "seed " << seed;
      }
    }
    while (!heap.empty()) {
      heap_order.push_back(heap.pop().a);
      ref.step();
    }
    EXPECT_TRUE(ref.empty());
    ASSERT_EQ(heap_order, ref_order) << "seed " << seed;
  }
}

// The 10k-rank traffic shape: every rank enters at t = 0 (10240 tied
// events), then small-spread pushes (one marginal latency ahead, up to
// 2 % jitter, some exact ties) interleave with partial drains of up to
// 60 % of the pending events. Pop for pop, the heap must match the
// reference EventQueue.
TEST(EventHeap, MatchesReferenceQueueUnderTenKTraffic) {
  constexpr std::uint32_t kRanks = 10240;
  constexpr double kLatency = 1.0e-6;
  Rng rng(kRanks);
  EventHeap heap;
  EventQueue ref;
  std::vector<std::uint32_t> heap_order;
  std::vector<std::uint32_t> ref_order;
  std::uint32_t next_tag = 0;
  const auto push = [&](double t) {
    const std::uint32_t tag = next_tag++;
    heap.schedule(t, tagged(tag));
    ref.schedule(t, [&ref_order, tag] { ref_order.push_back(tag); });
  };
  const auto pop = [&] {
    heap_order.push_back(heap.pop().a);
    ref.step();
  };
  for (std::uint32_t i = 0; i < kRanks; ++i) {
    push(0.0);
  }
  for (int round = 0; round < 80; ++round) {
    const std::size_t drains = static_cast<std::size_t>(
        rng.next_double() * 0.6 * static_cast<double>(heap.pending()));
    for (std::size_t i = 0; i < drains; ++i) {
      pop();
    }
    const std::size_t pushes =
        1 + static_cast<std::size_t>(rng.next_double() * 600.0);
    for (std::size_t i = 0; i < pushes; ++i) {
      const double jitter = rng.next_double() < 0.3
                                ? 0.0
                                : 0.02 * rng.next_double();
      push(heap.now() + kLatency * (1.0 + jitter));
    }
  }
  while (!heap.empty()) {
    pop();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(heap.now(), ref.now());
  EXPECT_EQ(heap.scheduled(), next_tag);
  ASSERT_EQ(heap_order, ref_order);
}

TEST(EventHeap, DrainsLargeBurstInOrder) {
  EventHeap q;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    q.schedule(static_cast<double>(i) * 1e-6, tagged(i));
  }
  EXPECT_EQ(q.pending(), 4096u);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    ASSERT_EQ(q.pop().a, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventHeap, FarFutureEventsPopInOrderAfterDenseCluster) {
  EventHeap q;
  // A dense nanosecond-scale cluster followed by events 15-21 orders
  // of magnitude later, pushed out of order.
  for (std::uint32_t i = 0; i < 64; ++i) {
    q.schedule(static_cast<double>(i) * 1e-9, tagged(i));
  }
  q.schedule(1e12, tagged(1000));
  q.schedule(1e6, tagged(1001));
  q.schedule(2e12, tagged(1002));
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(q.pop().a, i);
  }
  EXPECT_EQ(q.pop().a, 1001u);
  EXPECT_EQ(q.pop().a, 1000u);
  EXPECT_EQ(q.pop().a, 1002u);
  EXPECT_DOUBLE_EQ(q.now(), 2e12);
}

TEST(EventHeap, ResetRewindsTimeAndReusesStorage) {
  EventHeap q;
  for (std::uint32_t i = 0; i < 500; ++i) {
    q.schedule(static_cast<double>(i), tagged(i));
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    q.pop();
  }
  EXPECT_EQ(q.scheduled(), 500u);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.scheduled(), 0u);
  // Scheduling before the old now() is legal again after reset, and
  // order is still exact.
  q.schedule(2.0, tagged(2));
  q.schedule(1.0, tagged(1));
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_EQ(q.pop().a, 2u);
}

}  // namespace
}  // namespace optibar
