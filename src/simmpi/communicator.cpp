#include "simmpi/communicator.hpp"

#include <algorithm>
#include <thread>

#include "util/error.hpp"

namespace optibar::simmpi {

Communicator::Communicator(std::size_t size, LatencyModel latency,
                           ByteLatencyModel byte_latency, BoardMode board)
    : size_(size),
      latency_(std::move(latency)),
      byte_latency_(std::move(byte_latency)),
      board_(board) {
  OPTIBAR_REQUIRE(size_ > 0, "communicator needs at least one rank");
  OPTIBAR_REQUIRE(latency_, "null latency model");
  const std::size_t shard_count = board_ == BoardMode::kGlobal ? 1 : size_;
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  rma_words_.resize(size_);
}

void Communicator::check_rank(std::size_t rank, const char* what) const {
  OPTIBAR_REQUIRE(rank < size_,
                  what << " rank " << rank << " out of range (size " << size_
                       << ")");
}

Clock::duration Communicator::delivery_delay(std::size_t src, std::size_t dst,
                                             std::size_t payload_words) const {
  Clock::duration delay = latency_(src, dst);
  if (byte_latency_ && payload_words > 0) {
    delay += byte_latency_(src, dst, payload_words * sizeof(std::uint64_t));
  }
  return delay;
}

void Communicator::set_fault_plan(FaultPlan plan) {
  // Contract: called before any traffic. Rank threads observe the
  // injector through the happens-before edge of being spawned (or
  // dispatched by a RankPool generation) after this call.
  injector_ = std::make_unique<FaultInjector>(std::move(plan));
}

std::size_t Communicator::dropped_messages() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->dropped;
  }
  return n;
}

void Communicator::notify_shard(std::size_t shard_index) const {
  Shard& shard = *shards_[shard_index];
  // Lock-release fence: a batched waiter that saw the request as
  // incomplete either still holds the shard mutex (we block until it
  // parks, atomically releasing it) or is already parked — either way
  // the notify below cannot be lost.
  { std::lock_guard<std::mutex> fence(shard.mutex); }
  shard.cv.notify_all();
}

Request Communicator::issend(std::size_t src, std::size_t dst, int tag) {
  return issend(src, dst, tag, Payload{});
}

void Communicator::settle(Shard& shard,
                          std::map<ChannelKey, Channel>::iterator channel,
                          std::size_t queued, std::size_t matched) const {
  // Only writers holding the mutex touch `pending`, so a load and a
  // store (no read-modify-write) keep it exact.
  shard.pending.store(
      shard.pending.load(std::memory_order_relaxed) + queued - matched,
      std::memory_order_relaxed);
  if (injector_ == nullptr && channel->second.sends.empty() &&
      channel->second.recvs.empty()) {
    shard.channels.erase(channel);
  }
}

bool Communicator::post_send(Channel& channel, PendingOp op, std::size_t src,
                             std::size_t dst) {
  const Clock::time_point delivered =
      op.posted_at + delivery_delay(src, dst, op.payload.size()) +
      op.fault_delay;
  if (!channel.recvs.empty()) {
    // A receive is already waiting: match immediately. The receiver sees
    // the signal after the link delay; the sender's synchronized-send
    // completion also covers the delivery (round-trip halves, Section
    // IV-A symmetry assumption). The sink write is sequenced before
    // fulfil, which the receiver's wait() synchronizes with.
    PendingOp recv = std::move(channel.recvs.front());
    channel.recvs.pop_front();
    const Clock::time_point visible = std::max(delivered, recv.posted_at);
    if (recv.sink != nullptr) {
      *recv.sink = std::move(op.payload);
    }
    recv.request->fulfil(visible);
    op.request->fulfil(visible);
    return true;
  }
  channel.sends.push_back(std::move(op));
  return false;
}

Request Communicator::issend(std::size_t src, std::size_t dst, int tag,
                             Payload payload) {
  check_rank(src, "source");
  check_rank(dst, "destination");
  OPTIBAR_REQUIRE(src != dst, "issend to self (rank " << src << ")");

  auto request = std::make_shared<RequestState>();
  const Clock::time_point now = Clock::now();

  const std::size_t shard_index = shard_of(dst);
  Shard& shard = *shards_[shard_index];
  bool matched = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.channels.try_emplace(ChannelKey{src, dst, tag}).first;
    Channel& channel = it->second;
    FaultInjector::Decision fault;
    if (injector_ != nullptr) {
      fault = injector_->decide(src, dst, tag, channel.next_send_seq++);
    }
    if (fault.drop) {
      // The message is lost in the network: it never matches a receive,
      // so the synchronized send never completes. The caller's bounded
      // wait (not this call) is what turns that into a stall report.
      ++shard.dropped;
      return request;
    }
    const Clock::duration fault_delay = std::chrono::duration_cast<
        Clock::duration>(std::chrono::duration<double>(fault.delay_seconds));
    for (std::size_t d = 0; d < fault.duplicates; ++d) {
      // Ghost copy behind the original: same payload, its own request
      // nobody waits on. It sits in the channel exactly like a stray
      // duplicate delivered by a flaky link — a later receive on the
      // same channel would consume it.
      channel.sends.push_back(PendingOp{std::make_shared<RequestState>(), now,
                                        payload, nullptr, fault_delay, {}});
    }
    PendingOp op{request, now, std::move(payload), nullptr, fault_delay, {}};
    if (fault.duplicates > 0 && channel.recvs.empty()) {
      // Keep FIFO order: the original goes ahead of its ghosts so the
      // receiver's single matching recv binds the real send.
      channel.sends.push_front(std::move(op));
    } else {
      matched = post_send(channel, std::move(op), src, dst);
    }
    // A match consumed a waiting receive instead of queueing the send.
    settle(shard, it, fault.duplicates + (matched ? 0 : 1), matched ? 1 : 0);
  }
  if (matched) {
    // Wake batched waiters: the receiver parks on dst's shard, the
    // sender on its own. Both notifies run after the shard lock above
    // is released, so no two shard mutexes are ever held at once.
    notify_shard(shard_index);
    if (shard_of(src) != shard_index) {
      notify_shard(shard_of(src));
    }
  }
  return request;
}

Request Communicator::irecv(std::size_t src, std::size_t dst, int tag) {
  return irecv(src, dst, tag, nullptr);
}

Request Communicator::irecv(std::size_t src, std::size_t dst, int tag,
                            Payload* sink,
                            std::shared_ptr<void> keepalive) {
  check_rank(src, "source");
  check_rank(dst, "destination");
  OPTIBAR_REQUIRE(src != dst, "irecv from self (rank " << dst << ")");

  auto request = std::make_shared<RequestState>();
  const Clock::time_point now = Clock::now();

  const std::size_t shard_index = shard_of(dst);
  Shard& shard = *shards_[shard_index];
  bool matched = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.channels.try_emplace(ChannelKey{src, dst, tag}).first;
    Channel& channel = it->second;
    if (!channel.sends.empty()) {
      PendingOp send = std::move(channel.sends.front());
      channel.sends.pop_front();
      const Clock::time_point delivered =
          send.posted_at + delivery_delay(src, dst, send.payload.size()) +
          send.fault_delay;
      // Delivery is never before the receive is posted.
      const Clock::time_point visible = std::max(delivered, now);
      if (sink != nullptr) {
        *sink = std::move(send.payload);
      }
      send.request->fulfil(visible);
      request->fulfil(visible);
      matched = true;
    } else {
      channel.recvs.push_back(PendingOp{request, now, Payload{}, sink,
                                        Clock::duration{},
                                        std::move(keepalive)});
    }
    settle(shard, it, matched ? 0 : 1, matched ? 1 : 0);
  }
  if (matched) {
    notify_shard(shard_index);
    if (shard_of(src) != shard_index) {
      notify_shard(shard_of(src));
    }
  }
  return request;
}

void Communicator::wait_all(std::span<const Request> requests) {
  for (const Request& request : requests) {
    OPTIBAR_REQUIRE(request != nullptr, "null request in wait_all");
    request->wait();
  }
}

bool Communicator::wait_all_for(std::span<const Request> requests,
                                Clock::duration timeout) {
  // One absolute deadline shared by every request. Requests already
  // complete succeed even with a zero (or exhausted) budget — the old
  // per-request remaining-time computation declared timeout before
  // looking at them.
  const Clock::time_point deadline = Clock::now() + timeout;
  bool all = true;
  for (const Request& request : requests) {
    OPTIBAR_REQUIRE(request != nullptr, "null request in wait_all_for");
    all = request->wait_until(deadline) && all;
  }
  return all;
}

std::size_t Communicator::dropped_puts() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->dropped_puts;
  }
  return n;
}

void Communicator::check_rma_word(std::size_t rank, std::size_t word,
                                  const char* what) const {
  check_rank(rank, what);
  // rma_capacity_ only grows, and any word index a caller can hold came
  // from an rma_allocate that returned after the growth — reading it
  // under rma_mutex_ is enough for a sanity gate.
  std::lock_guard<std::mutex> lock(rma_mutex_);
  OPTIBAR_REQUIRE(word < rma_capacity_,
                  "RMA word " << word << " out of range (window has "
                              << rma_capacity_ << " words)");
}

std::size_t Communicator::rma_allocate(std::size_t words) {
  OPTIBAR_REQUIRE(words > 0, "rma_allocate of zero words");
  // Hold rma_mutex_ across the whole growth so concurrent allocations
  // serialize and every rank's array reaches the new capacity before
  // the base index escapes. Lock order: rma_mutex_ then one shard
  // mutex at a time (RMA data ops take only shard mutexes, so no
  // reverse order exists).
  std::lock_guard<std::mutex> lock(rma_mutex_);
  const std::size_t base = rma_capacity_;
  rma_capacity_ += words;
  for (std::size_t r = 0; r < size_; ++r) {
    std::lock_guard<std::mutex> shard_lock(shards_[shard_of(r)]->mutex);
    rma_words_[r].resize(rma_capacity_);
  }
  return base;
}

std::size_t Communicator::rma_region(std::uintptr_t key, std::size_t words) {
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    const auto it = rma_regions_.find(key);
    if (it != rma_regions_.end()) {
      OPTIBAR_REQUIRE(rma_region_words_[key] == words,
                      "rma_region key reused with size "
                          << words << " (was " << rma_region_words_[key]
                          << ")");
      return it->second;
    }
  }
  // Allocate outside the memo lock (rma_allocate retakes rma_mutex_);
  // racing allocators for the same key are resolved first-wins below.
  const std::size_t base = rma_allocate(words);
  std::lock_guard<std::mutex> lock(rma_mutex_);
  const auto [it, inserted] = rma_regions_.try_emplace(key, base);
  if (inserted) {
    rma_region_words_[key] = words;
  }
  return it->second;
}

std::size_t Communicator::rma_words() const {
  std::lock_guard<std::mutex> lock(rma_mutex_);
  return rma_capacity_;
}

void Communicator::rma_put(std::size_t src, std::size_t dst, std::size_t word,
                           std::uint64_t value, std::size_t stage) {
  check_rma_word(dst, word, "put destination");
  check_rank(src, "put source");
  OPTIBAR_REQUIRE(src != dst, "rma_put to self (rank " << src << ")");
  const Clock::time_point now = Clock::now();
  const std::size_t shard_index = shard_of(dst);
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (injector_ != nullptr) {
      const std::uint64_t seq = shard.put_seq[PutKey{src, dst, stage}]++;
      if (injector_->decide_put(src, dst, stage, seq)) {
        // The write is lost on the wire. The sender already completed
        // locally (fire-and-forget), so only the receiver — whose flag
        // stays unset — can observe the fault, via its bounded wait.
        ++shard.dropped_puts;
        return;
      }
    }
    RmaWord& w = rma_words_[dst][word];
    w.value = value;  // last put wins
    w.visible_at = now + delivery_delay(src, dst, 0);
  }
  // Wake a receiver parked on its shard condvar awaiting this flag.
  notify_shard(shard_index);
}

std::uint64_t Communicator::rma_fetch_add(std::size_t caller, std::size_t dst,
                                          std::size_t word,
                                          std::uint64_t delta) {
  check_rma_word(dst, word, "fetch_add destination");
  check_rank(caller, "fetch_add caller");
  const Clock::time_point now = Clock::now();
  const Clock::duration one_way =
      caller == dst ? Clock::duration{} : delivery_delay(caller, dst, 0);
  std::uint64_t old = 0;
  const std::size_t shard_index = shard_of(dst);
  {
    std::lock_guard<std::mutex> lock(shards_[shard_index]->mutex);
    RmaWord& w = rma_words_[dst][word];
    old = w.value;
    w.value = old + delta;
    w.visible_at = std::max(w.visible_at, now + one_way);
  }
  notify_shard(shard_index);
  // Round trip: the caller blocks until the result travels back.
  const Clock::time_point done = now + one_way + one_way;
  if (done > Clock::now()) {
    std::this_thread::sleep_until(done);
  }
  return old;
}

std::uint64_t Communicator::rma_compare_and_swap(std::size_t caller,
                                                 std::size_t dst,
                                                 std::size_t word,
                                                 std::uint64_t expected,
                                                 std::uint64_t desired) {
  check_rma_word(dst, word, "compare_and_swap destination");
  check_rank(caller, "compare_and_swap caller");
  const Clock::time_point now = Clock::now();
  const Clock::duration one_way =
      caller == dst ? Clock::duration{} : delivery_delay(caller, dst, 0);
  std::uint64_t old = 0;
  const std::size_t shard_index = shard_of(dst);
  {
    std::lock_guard<std::mutex> lock(shards_[shard_index]->mutex);
    RmaWord& w = rma_words_[dst][word];
    old = w.value;
    if (old == expected) {
      w.value = desired;
      w.visible_at = std::max(w.visible_at, now + one_way);
    }
  }
  notify_shard(shard_index);
  const Clock::time_point done = now + one_way + one_way;
  if (done > Clock::now()) {
    std::this_thread::sleep_until(done);
  }
  return old;
}

std::uint64_t Communicator::rma_read(std::size_t rank,
                                     std::size_t word) const {
  check_rma_word(rank, word, "read");
  std::lock_guard<std::mutex> lock(shards_[shard_of(rank)]->mutex);
  return rma_words_[rank][word].value;
}

bool Communicator::rma_test(std::size_t rank, std::size_t word,
                            std::uint64_t expected) const {
  check_rma_word(rank, word, "test");
  std::lock_guard<std::mutex> lock(shards_[shard_of(rank)]->mutex);
  const RmaWord& w = rma_words_[rank][word];
  return w.value == expected && w.visible_at <= Clock::now();
}

bool Communicator::rma_wait_until(std::size_t waiter,
                                  std::span<const FlagWait> flags,
                                  Clock::time_point deadline) const {
  return wait_stage_on_until(waiter, {}, flags, deadline);
}

bool Communicator::wait_stage_on_until(std::size_t waiter,
                                       std::span<const Request> requests,
                                       std::span<const FlagWait> flags,
                                       Clock::time_point deadline) const {
  check_rank(waiter, "waiter");
  for (const Request& request : requests) {
    OPTIBAR_REQUIRE(request != nullptr, "null request in wait_stage_on_until");
  }
  Shard& shard = *shards_[shard_of(waiter)];
  Clock::time_point flags_visible{};
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    // Flags live in the waiter's own window, i.e. in exactly the shard
    // whose mutex we hold and whose condvar every put to this rank
    // notifies — so one park on this condvar covers requests and flags.
    const std::vector<RmaWord>& words = rma_words_[waiter];
    for (const FlagWait& f : flags) {
      OPTIBAR_REQUIRE(f.word < words.size(),
                      "flag word " << f.word << " out of range");
    }
    const auto arrived = [&] {
      return std::all_of(requests.begin(), requests.end(),
                         [](const Request& r) { return r->finished(); }) &&
             std::all_of(flags.begin(), flags.end(), [&](const FlagWait& f) {
               return words[f.word].value == f.expected;
             });
    };
    if (!shard.cv.wait_until(lock, deadline, arrived)) {
      return false;
    }
    for (const FlagWait& f : flags) {
      flags_visible = std::max(flags_visible, words[f.word].visible_at);
    }
  }
  // Everything matched/arrived within the slice; sleep out the
  // simulated delivery latencies (may run past the deadline — latency
  // is simulated time the episode pays regardless of slicing).
  for (const Request& request : requests) {
    request->wait();
  }
  if (flags_visible > Clock::now()) {
    std::this_thread::sleep_until(flags_visible);
  }
  return true;
}

std::size_t Communicator::unmatched_operations() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->pending.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t Communicator::channel_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->channels.size();
  }
  return n;
}

}  // namespace optibar::simmpi
