// The simmpi communicator: matching engine for point-to-point signals.
//
// Exposes the minimal MPI subset the paper's barrier interpreter needs:
//   issend(dst, tag)  — nonblocking synchronized zero-byte send; the
//                       returned request completes only once the
//                       matching receive is posted (MPI_Issend, i.e.
//                       "local completion is an indication that both
//                       processes have been involved", Section III)
//   irecv(src, tag)   — nonblocking receive from a specific source
//   wait_all          — block until a set of requests completes
//
// Barrier signals carry no payload; the collective layer's messages
// carry a vector of 64-bit words. Both go through the same channels:
// the payload overloads of issend/irecv move the words from the
// sender's buffer into the receiver's sink at match time (under the
// shard mutex, sequenced before the requests are fulfilled, so the
// receiver's wait() return happens-after the sink write).
//
// The message board is *sharded by destination rank*: every channel
// (src, dst, tag) lives in the shard of its destination, each shard has
// its own mutex and condition variable, and an operation only ever
// locks the shard where its messages meet. An all-to-all stage at P
// ranks therefore contends on P independent locks instead of one
// global one. Matching stays per-channel FIFO, and every fault
// decision is a counter-based hash of the per-channel send sequence
// number (a single sending rank per channel makes that number
// thread-interleaving independent), so sharding cannot change drop /
// duplicate / delay outcomes — only where the lock lives.
// BoardMode::kGlobal collapses the board back to one shard, preserving
// the seed's single-mutex behaviour for benchmarking and parity tests.
//
// One-sided RMA board: alongside the message channels, every rank owns
// a flat array of 64-bit *flag words* other ranks write directly —
// the simmpi analogue of an MPI_Win. A word at rank r lives in
// shard_of(r), guarded by that shard's mutex like r's channels, so
// window traffic and two-sided traffic share one lock discipline and
// one condition variable per destination. rma_put is fire-and-forget
// (the sender completes locally and never learns the outcome;
// MPI_Put), while rma_fetch_add / rma_compare_and_swap are round-trip
// atomics that sleep the caller for both link traversals. Puts carry
// the same matched-vs-visible split as requests: the value is
// *arrived* the moment the call stores it (wait predicates see it),
// but *visible* only after the simulated delivery latency (rma_test
// honours it; waits sleep it out before returning). Put drops come
// from the fault plan's putdrop rules, hashed on a per-(src, dst,
// stage) put sequence number — deterministic because a single rank
// thread issues all puts of one channel in program order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "simmpi/fault.hpp"
#include "simmpi/latency_model.hpp"
#include "simmpi/payload.hpp"
#include "simmpi/request.hpp"

namespace optibar::simmpi {

/// Optional per-byte delivery cost: extra delay of a message of `bytes`
/// payload bytes from src to dst — the runtime counterpart of the
/// profile's G matrix. Null means payload size does not affect timing.
using ByteLatencyModel =
    std::function<Clock::duration(std::size_t src, std::size_t dst,
                                  std::size_t bytes)>;

/// Board sharding policy. kSharded (the default) gives every
/// destination rank its own mailbox lock; kGlobal keeps the seed's
/// one-mutex board and exists for contention benchmarks and
/// sharded-vs-global parity tests — observable behaviour is identical.
enum class BoardMode { kSharded, kGlobal };

class Communicator {
 public:
  explicit Communicator(std::size_t size,
                        LatencyModel latency = uniform_latency(),
                        ByteLatencyModel byte_latency = nullptr,
                        BoardMode board = BoardMode::kSharded);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  std::size_t size() const { return size_; }
  BoardMode board_mode() const { return board_; }

  /// Attach a fault plan: subsequent sends are subject to its drop /
  /// duplicate / delay rules (crash rules are interpreted by the
  /// executors, which know about stages). Call before any traffic —
  /// the per-channel sequence numbers that make decisions reproducible
  /// start counting at attach time, and publication to rank threads
  /// rides on the happens-before edge of spawning (or unparking) them.
  void set_fault_plan(FaultPlan plan);

  /// The attached injector, or nullptr when running fault-free.
  const FaultInjector* fault_injector() const { return injector_.get(); }

  /// Signals the fault plan has swallowed so far, summed over shards.
  std::size_t dropped_messages() const;

  /// One-sided puts the fault plan has swallowed so far (counted
  /// separately from dropped_messages — a dropped put has no send
  /// request and stalls only the receiver).
  std::size_t dropped_puts() const;

  /// Post a synchronized send of a zero-byte signal src -> dst.
  Request issend(std::size_t src, std::size_t dst, int tag);

  /// Post a synchronized send carrying `payload` (moved in); delivery
  /// is delayed by the byte-latency model, if any.
  Request issend(std::size_t src, std::size_t dst, int tag, Payload payload);

  /// Post a receive at dst for a signal from src.
  Request irecv(std::size_t src, std::size_t dst, int tag);

  /// Post a receive whose matching send's payload is moved into
  /// `*sink`. The write to `*sink` happens-before the returned
  /// request's wait() returns; `sink` must outlive the request.
  /// `keepalive` (optional) is held by the pending receive until it
  /// matches or the communicator dies — pass the owner of `*sink` when
  /// the receive may outlive the caller's frame (bounded-wait mode
  /// gives up on receives that a late sender can still match).
  Request irecv(std::size_t src, std::size_t dst, int tag, Payload* sink,
                std::shared_ptr<void> keepalive = nullptr);

  /// Wait for every request (order-independent), one request at a time.
  static void wait_all(std::span<const Request> requests);

  /// Bounded wait over a request set: true when all completed within
  /// the budget (checked jointly, not per request). On false, some
  /// requests may still be pending — the caller decides whether to keep
  /// waiting or declare the peer dead.
  static bool wait_all_for(std::span<const Request> requests,
                           Clock::duration timeout);

  /// Number of posted-but-unmatched operations (diagnostics; a correct
  /// barrier execution ends with zero). Lock-free: it sums per-shard
  /// counts that every enqueue and match keeps under its shard mutex,
  /// so it is exact once those operations happen-before the call (e.g.
  /// after the rank threads are joined) and a snapshot otherwise.
  std::size_t unmatched_operations() const;

  /// Channels the board holds (diagnostics). A channel is erased once
  /// both its queues drain, unless a fault plan is attached: the
  /// injector's per-channel send sequence must survive resends.
  std::size_t channel_count() const;

  // ---- One-sided RMA board (see the header comment) ----

  /// One awaited flag word in the waiting rank's own window: satisfied
  /// once the word holds exactly `expected`.
  struct FlagWait {
    std::size_t word = 0;
    std::uint64_t expected = 0;
  };

  /// Grow every rank's window by `words` zero-initialised flag words;
  /// returns the base index of the new region (same index at every
  /// rank, like a symmetric MPI_Win_allocate).
  std::size_t rma_allocate(std::size_t words);

  /// Memoized rma_allocate: the first call with `key` allocates
  /// `words`, later calls return the same base (and require the same
  /// size). Lets independently-constructed executors over one
  /// communicator share a window region.
  std::size_t rma_region(std::uintptr_t key, std::size_t words);

  /// Words allocated so far per rank.
  std::size_t rma_words() const;

  /// Fire-and-forget remote store of `value` into `dst`'s window at
  /// `word` (last put wins). Completes locally at once — the sender
  /// never learns whether it was delivered or dropped by a putdrop
  /// rule. `stage` feeds the fault plan's rule matching. The value
  /// becomes visible at `dst` after the one-way delivery delay.
  void rma_put(std::size_t src, std::size_t dst, std::size_t word,
               std::uint64_t value, std::size_t stage = 0);

  /// Remote atomic fetch-and-add on `dst`'s window word; returns the
  /// previous value. Round-trip: the caller sleeps out both link
  /// traversals before the old value is returned. Never dropped
  /// (atomics are acknowledged; only fire-and-forget puts race the
  /// fault plan).
  std::uint64_t rma_fetch_add(std::size_t caller, std::size_t dst,
                              std::size_t word, std::uint64_t delta);

  /// Remote atomic compare-and-swap on `dst`'s window word: stores
  /// `desired` iff the word holds `expected`; returns the previous
  /// value either way. Round-trip like rma_fetch_add.
  std::uint64_t rma_compare_and_swap(std::size_t caller, std::size_t dst,
                                     std::size_t word, std::uint64_t expected,
                                     std::uint64_t desired);

  /// Last *arrived* value of `rank`'s window word, ignoring delivery
  /// latency (diagnostics; rank-local polls should use rma_test).
  std::uint64_t rma_read(std::size_t rank, std::size_t word) const;

  /// Nonblocking visible-value probe: true once `rank`'s window word
  /// holds `expected` *and* the write's delivery latency has elapsed
  /// (the RequestState::test analogue for flags).
  bool rma_test(std::size_t rank, std::size_t word,
                std::uint64_t expected) const;

  /// Bounded park on `waiter`'s shard condvar until every flag in
  /// `waiter`'s own window has arrived, or `deadline` passes (false —
  /// some flag never written, e.g. a dropped put). On true the
  /// delivery latency of the latest flag has been slept out, mirroring
  /// wait_stage_on_until's matched-then-sleep contract.
  bool rma_wait_until(std::size_t waiter, std::span<const FlagWait> flags,
                      Clock::time_point deadline) const;

  /// One bounded progress slice of a stage: park on `waiter`'s shard
  /// condvar until every request has *matched* and every flag (there
  /// may be none) has arrived, or `deadline` passes. Every match
  /// notifies both the destination shard and the sender's shard, so a
  /// rank parked here is woken by completions of its receives *and* of
  /// its sends to other shards; all requests must belong to operations
  /// posted by `waiter`. Returns false on
  /// the deadline with something still outstanding — the caller
  /// re-slices or gives up; already-matched requests succeed even past
  /// the deadline. On true, both the requests' ready_at times and the
  /// flags' visibility times have been slept out, exactly like
  /// wait_all — so a loop of slices is observably identical to one
  /// unbounded wait, which is what makes wait(post()) bit-identical to
  /// the blocking execute().
  bool wait_stage_on_until(std::size_t waiter,
                           std::span<const Request> requests,
                           std::span<const FlagWait> flags,
                           Clock::time_point deadline) const;

 private:
  struct PendingOp {
    Request request;
    Clock::time_point posted_at;
    Payload payload;         ///< pending send: words in flight
    Payload* sink = nullptr; ///< pending recv: where to deliver them
    Clock::duration fault_delay{};  ///< delay-spike time of a pending send
    std::shared_ptr<void> keepalive;  ///< keeps *sink alive while pending
  };

  using ChannelKey = std::tuple<std::size_t, std::size_t, int>;

  struct Channel {
    std::deque<PendingOp> sends;
    std::deque<PendingOp> recvs;
    std::uint64_t next_send_seq = 0;  ///< feeds the fault injector
  };

  /// One window flag word. `value` is the last *arrived* write (wait
  /// predicates read it under the shard mutex); `visible_at` is when
  /// that write's simulated delivery latency elapses (rma_test and the
  /// post-park sleep honour it) — the flag twin of RequestState's
  /// complete / ready_at split.
  struct RmaWord {
    std::uint64_t value = 0;
    Clock::time_point visible_at{};
  };

  /// Put-sequence key (src, dst, stage): feeds the fault injector's
  /// counter-based hash, one counter per put channel.
  using PutKey = std::tuple<std::size_t, std::size_t, std::size_t>;

  /// One destination mailbox: the channels whose messages terminate at
  /// this rank, their unmatched lists, and the condvar batched waiters
  /// park on. `dropped` is per-shard and aggregated on read.
  struct Shard {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    std::map<ChannelKey, Channel> channels;
    /// Queued sends + recvs over `channels`: written under mutex with a
    /// plain load and store, read without it by unmatched_operations.
    std::atomic<std::size_t> pending{0};
    std::size_t dropped = 0;       ///< guarded by mutex
    std::size_t dropped_puts = 0;  ///< guarded by mutex
    std::map<PutKey, std::uint64_t> put_seq;  ///< guarded by mutex
  };

  std::size_t shard_of(std::size_t dst) const {
    return board_ == BoardMode::kGlobal ? 0 : dst;
  }

  void check_rank(std::size_t rank, const char* what) const;

  Clock::duration delivery_delay(std::size_t src, std::size_t dst,
                                 std::size_t payload_words) const;

  // Under the shard's mutex: account `queued` operations added to and
  // `matched` removed from its channels, and erase `channel` if that
  // left it empty and no fault injector needs its send sequence.
  void settle(Shard& shard, std::map<ChannelKey, Channel>::iterator channel,
              std::size_t queued, std::size_t matched) const;

  // Match a send against a waiting receive or enqueue it; caller holds
  // the dst shard's mutex. `op.request` may be a ghost nobody waits on
  // (duplicates). Returns true when a match fulfilled requests (the
  // caller then notifies the waiter shards after unlocking).
  bool post_send(Channel& channel, PendingOp op, std::size_t src,
                 std::size_t dst);

  // Acquire-release the shard's mutex, then notify its condvar: the
  // fence closes the missed-wakeup window against a batched waiter
  // that checked its predicate but has not yet parked. Never called
  // while holding another shard's mutex (src->dst and dst->src cycles
  // would deadlock).
  void notify_shard(std::size_t shard_index) const;

  void check_rma_word(std::size_t rank, std::size_t word, const char* what)
      const;

  std::size_t size_;
  LatencyModel latency_;
  ByteLatencyModel byte_latency_;
  BoardMode board_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // RMA board storage. rma_mutex_ guards the bump pointer and the
  // region memo; each rank's word array is read/written only under its
  // shard's mutex (rma_allocate takes rma_mutex_ first, then each
  // shard mutex in turn — never the reverse order, so no cycle).
  mutable std::mutex rma_mutex_;
  std::size_t rma_capacity_ = 0;                   ///< guarded by rma_mutex_
  std::map<std::uintptr_t, std::size_t> rma_regions_;  ///< key -> base
  std::map<std::uintptr_t, std::size_t> rma_region_words_;  ///< key -> size
  /// rma_words_[rank][word], guarded by shards_[shard_of(rank)]->mutex.
  std::vector<std::vector<RmaWord>> rma_words_;
};

}  // namespace optibar::simmpi
