// Message-board bookkeeping of the simmpi communicator: the lock-free
// unmatched-operation count against a tally the test keeps itself, on
// seeded issend/irecv mixes with a fault plan that duplicates and drops
// messages, and the erasure of drained channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "simmpi/communicator.hpp"
#include "simmpi/fault.hpp"
#include "util/rng.hpp"

namespace optibar::simmpi {
namespace {

const char* const kFaults =
    "seed=11;drop=*>*@*:0.1;dup=*>*@*:0.2;dup=0>1@*:0.5";

// The board's matching rule replayed on counts: per channel, the sends
// and receives still queued. Fault decisions come from an injector of
// the same plan fed the same per-channel send sequence numbers.
class Tally {
 public:
  explicit Tally(const FaultPlan& plan) : injector_(plan) {}

  void send(std::size_t src, std::size_t dst, int tag) {
    Queues& q = channels_[{src, dst, tag}];
    const FaultInjector::Decision fault =
        injector_.decide(src, dst, tag, q.next_seq++);
    if (fault.drop) {
      ++dropped_;
      return;
    }
    // Ghost copies queue; the original matches a waiting receive if
    // there is one and queues otherwise.
    q.sends += fault.duplicates;
    if (q.recvs > 0) {
      --q.recvs;
    } else {
      ++q.sends;
    }
  }

  void recv(std::size_t src, std::size_t dst, int tag) {
    Queues& q = channels_[{src, dst, tag}];
    if (q.sends > 0) {
      --q.sends;
    } else {
      ++q.recvs;
    }
  }

  std::size_t unmatched() const {
    std::size_t n = 0;
    for (const auto& [key, q] : channels_) {
      n += q.sends + q.recvs;
    }
    return n;
  }

  std::size_t busy_channels() const {
    std::size_t n = 0;
    for (const auto& [key, q] : channels_) {
      n += q.sends + q.recvs > 0 ? 1 : 0;
    }
    return n;
  }

  std::size_t dropped() const { return dropped_; }

 private:
  struct Queues {
    std::size_t sends = 0;
    std::size_t recvs = 0;
    std::uint64_t next_seq = 0;
  };
  FaultInjector injector_;
  std::map<std::tuple<std::size_t, std::size_t, int>, Queues> channels_;
  std::size_t dropped_ = 0;
};

// One seeded operation on a channel whose source is drawn from
// [src_lo, src_lo + src_span) and destination from [dst_lo, dst_lo +
// dst_span), mirrored into `tally`.
void random_op(Communicator& comm, Tally& tally, Rng& rng, std::size_t src_lo,
               std::size_t src_span, std::size_t dst_lo, std::size_t dst_span) {
  const std::size_t src = src_lo + rng.next_below(src_span);
  std::size_t dst = dst_lo + rng.next_below(dst_span);
  if (dst == src) {
    dst = dst_lo + (dst - dst_lo + 1) % dst_span;
  }
  const int tag = static_cast<int>(rng.next_below(3));
  if (rng.next_below(2) == 0) {
    comm.issend(src, dst, tag);
    tally.send(src, dst, tag);
  } else {
    comm.irecv(src, dst, tag);
    tally.recv(src, dst, tag);
  }
}

TEST(BoardAccounting, UnmatchedCountFollowsEveryCallUnderFaults) {
  for (const BoardMode board : {BoardMode::kSharded, BoardMode::kGlobal}) {
    Communicator comm(4, uniform_latency(), nullptr, board);
    const FaultPlan plan = FaultPlan::parse(kFaults);
    comm.set_fault_plan(plan);
    Tally tally(plan);
    Rng rng(2027);
    for (int op = 0; op < 20000; ++op) {
      random_op(comm, tally, rng, 0, 4, 0, 4);
      ASSERT_EQ(comm.unmatched_operations(), tally.unmatched()) << "op " << op;
    }
    EXPECT_EQ(comm.dropped_messages(), tally.dropped());
    EXPECT_GT(tally.dropped(), 0u);
  }
}

TEST(BoardAccounting, FaultFreeBoardKeepsOnlyBusyChannels) {
  Communicator comm(4);
  Tally tally{FaultPlan{}};
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    random_op(comm, tally, rng, 0, 4, 0, 4);
    ASSERT_EQ(comm.unmatched_operations(), tally.unmatched()) << "op " << op;
    ASSERT_EQ(comm.channel_count(), tally.busy_channels()) << "op " << op;
  }
}

TEST(BoardAccounting, DistinctTagsDoNotAccumulateChannels) {
  // Executor tags are episode x stages + stage, so a long-lived
  // communicator sees a fresh tag per stage of every episode.
  Communicator comm(2);
  for (int tag = 0; tag < 100000; ++tag) {
    const Request recv = comm.irecv(0, 1, tag);
    const Request send = comm.issend(0, 1, tag);
    ASSERT_TRUE(recv->finished() && send->finished());
    ASSERT_EQ(comm.channel_count(), 0u) << "tag " << tag;
  }
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(BoardAccounting, FaultPlanKeepsChannelsForItsSendSequence) {
  // A resend on a channel must see the next sequence number, so a
  // board with an injector keeps drained channels.
  Communicator comm(2);
  comm.set_fault_plan(FaultPlan::parse("seed=1;drop=0>1@*:0"));
  for (int tag = 0; tag < 10; ++tag) {
    comm.irecv(0, 1, tag);
    comm.issend(0, 1, tag);
  }
  EXPECT_EQ(comm.channel_count(), 10u);
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST(BoardAccounting, ConcurrentWritersAndLockFreeReader) {
  // Each writer thread owns every channel whose source is its rank, so
  // per-channel order — and with it its own tally — is deterministic;
  // the reader polls the lock-free count while they run.
  constexpr std::size_t kWriters = 4;
  Communicator comm(2 * kWriters);
  const FaultPlan plan = FaultPlan::parse(kFaults);
  comm.set_fault_plan(plan);
  std::vector<Tally> tallies(kWriters, Tally(plan));
  constexpr int kOps = 5000;
  std::atomic<bool> done{false};
  std::size_t most = 0;
  std::thread reader([&] {
    while (!done.load()) {
      most = std::max(most, comm.unmatched_operations());
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + w);
      for (int op = 0; op < kOps; ++op) {
        random_op(comm, tallies[w], rng, w, 1, kWriters, kWriters);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true);
  reader.join();
  std::size_t expected = 0;
  std::size_t dropped = 0;
  for (const Tally& tally : tallies) {
    expected += tally.unmatched();
    dropped += tally.dropped();
  }
  EXPECT_EQ(comm.unmatched_operations(), expected);
  EXPECT_EQ(comm.dropped_messages(), dropped);
  // An operation queues at most itself plus one ghost per dup rule.
  EXPECT_LE(most, 3 * kWriters * kOps);
}

}  // namespace
}  // namespace optibar::simmpi
