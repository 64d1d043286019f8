#include "simmpi/staged_executor.hpp"

#include <algorithm>
#include <climits>
#include <memory>
#include <new>
#include <span>
#include <thread>

#include "rma/layout.hpp"
#include "util/error.hpp"

namespace optibar::simmpi {

namespace {

/// What one rank's stage posts: reservation sizes and whether any
/// receive carries words (a signal-only stage needs no inbox).
struct StageShape {
  std::size_t sends = 0;  ///< two-sided outgoing edges
  std::size_t recvs = 0;  ///< two-sided incoming edges
  std::size_t flags = 0;  ///< one-sided incoming edges
  bool payload = false;
};

StageShape shape_of(const StageEdges& edges) {
  StageShape shape;
  for (const StagedEdge& edge : edges.out) {
    shape.sends += edge.put ? 0 : 1;
  }
  for (const StagedEdge& edge : edges.in) {
    (edge.put ? shape.flags : shape.recvs) += 1;
    shape.payload = shape.payload || edge.count > 0;
  }
  return shape;
}

// Post `edge`'s synchronized send carrying its sub-range of the buffer
// as it is now — the snapshot rule. A signal edge carries nothing.
Request send_edge(RankContext& ctx, const StagedEdge& edge, int tag,
                  const Payload* buffer) {
  if (edge.count == 0) {
    return ctx.issend(edge.peer, tag);
  }
  const auto first = buffer->begin() + static_cast<std::ptrdiff_t>(edge.offset);
  return ctx.issend(edge.peer, tag,
                    Payload(first, first + static_cast<std::ptrdiff_t>(
                                                edge.count)));
}

// Post `edge`'s receive; payload edges land in `*sink`.
Request recv_edge(RankContext& ctx, const StagedEdge& edge, int tag,
                  Payload* sink, std::shared_ptr<void> keepalive = nullptr) {
  if (edge.count == 0) {
    return ctx.irecv(edge.peer, tag);
  }
  return ctx.irecv(edge.peer, tag, sink, std::move(keepalive));
}

// Apply a completed stage's received words, in ascending source order
// (the incoming list's order).
void apply_stage(const StageEdges& edges, std::span<const Payload> inbox,
                 ReduceOp op, Payload& buffer) {
  for (std::size_t k = 0; k < edges.in.size(); ++k) {
    const StagedEdge& edge = edges.in[k];
    const Payload& in = inbox[k];
    OPTIBAR_ASSERT(in.size() == edge.count,
                   "received " << in.size() << " words, expected "
                               << edge.count);
    for (std::size_t i = 0; i < edge.count; ++i) {
      std::uint64_t& word = buffer[edge.offset + i];
      word = edge.combine ? reduce_word(op, word, in[i]) : in[i];
    }
  }
}

// The run_once entry points take one buffer per rank, or none on
// signal-only executors.
void check_buffers(const std::vector<Payload>* buffers, std::size_t p) {
  if (buffers != nullptr) {
    OPTIBAR_REQUIRE(buffers->size() == p, "expected " << p
                                                      << " input buffers, got "
                                                      << buffers->size());
  }
}

Payload* buffer_of(std::vector<Payload>* buffers, std::size_t rank) {
  return buffers != nullptr ? &(*buffers)[rank] : nullptr;
}

// The slot the receiver with stage incoming list `in` gave its put
// edge from `src` (the list ascends by source).
std::size_t receiver_slot(const std::vector<StagedEdge>& in,
                          std::size_t src) {
  const auto it = std::lower_bound(
      in.begin(), in.end(), src, [](const StagedEdge& edge, std::size_t peer) {
        return edge.peer < peer;
      });
  OPTIBAR_ASSERT(it != in.end() && it->peer == src && it->put,
                 "put edge from rank " << src
                                       << " has no one-sided incoming end");
  return it->slot;
}

}  // namespace

/// The in-flight state of one rank's episode: this header followed, in
/// the same allocation, by fixed-capacity arrays of requests, flag waits
/// and inbox payloads sized from the rank's RankCapacity. Stages reuse
/// the arrays; nothing grows after post().
struct StagedExecutor::EpisodeHandle::State {
  RankCapacity capacity;
  RankContext* ctx = nullptr;
  Payload* buffer = nullptr;  ///< null on signal-only executors
  ReduceOp op = ReduceOp::kSum;
  int episode = 0;
  std::size_t stage = 0;     ///< stage whose ops are in flight
  std::size_t rma_base = 0;  ///< this executor's window region base
  Request* requests = nullptr;  ///< the current stage's two-sided ops
  std::size_t request_count = 0;
  Communicator::FlagWait* flags = nullptr;  ///< its awaited one-sided flags
  std::size_t flag_count = 0;
  /// Landing zone of a payload stage's receives, indexed like the
  /// stage's incoming edges; live only while inbox_live.
  Payload* inbox = nullptr;
  bool inbox_live = false;

  std::span<const Request> live_requests() const {
    return {requests, request_count};
  }
  std::span<const Communicator::FlagWait> live_flags() const {
    return {flags, flag_count};
  }

  static State* create(const RankCapacity& capacity) {
    // Every element type is pointer-aligned, so the arrays pack back to
    // back after the header.
    static_assert(alignof(Request) <= alignof(State) &&
                  alignof(Communicator::FlagWait) <= alignof(Request) &&
                  alignof(Payload) <= alignof(Communicator::FlagWait));
    auto* raw = static_cast<unsigned char*>(::operator new(
        sizeof(State) + capacity.requests * sizeof(Request) +
        capacity.flags * sizeof(Communicator::FlagWait) +
        capacity.inbox * sizeof(Payload)));
    auto* state = new (raw) State{.capacity = capacity};
    unsigned char* at = raw + sizeof(State);
    state->requests = static_cast<Request*>(static_cast<void*>(at));
    std::uninitialized_value_construct_n(state->requests, capacity.requests);
    at += capacity.requests * sizeof(Request);
    state->flags = static_cast<Communicator::FlagWait*>(static_cast<void*>(at));
    std::uninitialized_value_construct_n(state->flags, capacity.flags);
    at += capacity.flags * sizeof(Communicator::FlagWait);
    state->inbox = static_cast<Payload*>(static_cast<void*>(at));
    std::uninitialized_value_construct_n(state->inbox, capacity.inbox);
    return state;
  }

  static void destroy(State* state) {
    std::destroy_n(state->requests, state->capacity.requests);
    std::destroy_n(state->flags, state->capacity.flags);
    std::destroy_n(state->inbox, state->capacity.inbox);
    state->~State();
    ::operator delete(static_cast<void*>(state));
  }
};

void StagedExecutor::EpisodeHandle::release() {
  if (state_ != 0 && state_ != kFinished) {
    State::destroy(state());
    state_ = 0;
  }
}

StagedExecutor::StagedExecutor(Table table, std::size_t stages,
                               std::size_t elem_count,
                               const ExecutorOptions& options)
    : table_(std::move(table)),
      stages_(stages),
      elem_count_(elem_count),
      options_(options) {
  options_.validate();
  const std::size_t p = table_.size();
  for (const std::vector<StageEdges>& rank : table_) {
    OPTIBAR_ASSERT(rank.size() == stages_, "edge table is not rank x stage");
  }
  const auto check_edge = [&](const StagedEdge& edge) {
    OPTIBAR_ASSERT(edge.peer < p, "edge peer " << edge.peer
                                               << " out of range");
    OPTIBAR_ASSERT(edge.offset + edge.count <= elem_count_,
                   "edge range exceeds the " << elem_count_ << "-word buffer");
  };
  // One stage-major pass: number each receiver's one-sided in-edges in
  // (stage, source) order, then stamp every put's sender end with the
  // receiver's ordinal. The busiest receiver sizes the window.
  std::vector<std::size_t> in_puts(p, 0);
  for (std::size_t s = 0; s < stages_; ++s) {
    for (std::size_t r = 0; r < p; ++r) {
      std::vector<StagedEdge>& in = table_[r][s].in;
      for (std::size_t k = 0; k < in.size(); ++k) {
        check_edge(in[k]);
        OPTIBAR_ASSERT(k == 0 || in[k - 1].peer < in[k].peer,
                       "incoming edges not in strictly ascending source "
                       "order");
        if (in[k].put) {
          in[k].slot = in_puts[r]++;
        }
      }
    }
    for (std::size_t r = 0; r < p; ++r) {
      for (StagedEdge& edge : table_[r][s].out) {
        check_edge(edge);
        if (edge.put) {
          edge.slot = receiver_slot(table_[edge.peer][s].in, r);
        }
      }
    }
  }
  for (const std::size_t count : in_puts) {
    window_slots_ = std::max(window_slots_, count);
  }
  capacity_.resize(p);
  for (std::size_t r = 0; r < p; ++r) {
    for (const StageEdges& edges : table_[r]) {
      const StageShape shape = shape_of(edges);
      RankCapacity& capacity = capacity_[r];
      capacity.requests =
          std::max(capacity.requests, shape.sends + shape.recvs);
      capacity.flags = std::max(capacity.flags, shape.flags);
      if (shape.payload) {
        capacity.inbox = std::max(capacity.inbox, edges.in.size());
      }
    }
  }
  if (options_.shared_pool != nullptr) {
    OPTIBAR_REQUIRE(options_.shared_pool->size() >= p,
                    "shared pool has " << options_.shared_pool->size()
                                       << " workers, schedule needs " << p);
  } else if (options_.mode == ExecutionMode::kPersistentPool) {
    pool_ = std::make_unique<RankPool>(p);
  }
}

void StagedExecutor::run_episode(Communicator& comm,
                                 const RankFunction& fn) const {
  if (options_.shared_pool != nullptr) {
    run_ranks(*options_.shared_pool, comm, fn);
  } else if (pool_ != nullptr) {
    run_ranks(*pool_, comm, fn);
  } else {
    run_ranks(comm, fn);
  }
}

void StagedExecutor::check_context(const RankContext& ctx,
                                   const Payload* buffer) const {
  OPTIBAR_REQUIRE(ctx.rank() < table_.size(),
                  "rank out of range for this executor");
  OPTIBAR_REQUIRE(ctx.size() == table_.size(),
                  "communicator size " << ctx.size()
                                       << " != schedule rank count "
                                       << table_.size());
  const std::size_t words = buffer != nullptr ? buffer->size() : 0;
  OPTIBAR_REQUIRE(words == elem_count_,
                  "buffer has " << words << " words, expected "
                                << elem_count_);
}

void StagedExecutor::check_episode(int episode) const {
  // Every stage's tag must fit in int; the extremes are the first and
  // last stage. Computed wide, so the check itself cannot overflow.
  const long long first =
      static_cast<long long>(episode) * static_cast<long long>(stages_);
  const long long last = first + static_cast<long long>(stages_) - 1;
  OPTIBAR_REQUIRE(first >= INT_MIN && last <= INT_MAX,
                  "episode " << episode << " overflows the tag space: tags "
                             << first << ".." << last << " of its "
                             << stages_ << " stages do not fit in int");
}

int StagedExecutor::tag(int episode, std::size_t stage) const {
  // Tag = (episode, stage) so repeated episodes cannot cross-match;
  // check_episode() ran at post time, so this cannot overflow.
  return episode * static_cast<int>(stages_) + static_cast<int>(stage);
}

std::size_t StagedExecutor::rma_base(RankContext& ctx, int episode) const {
  OPTIBAR_REQUIRE(episode >= 0,
                  "one-sided schedules need non-negative episode numbers "
                  "(the epoch double-buffering is keyed on them)");
  return ctx.communicator().rma_region(
      reinterpret_cast<std::uintptr_t>(this),
      rma::words_per_rank(window_slots_));
}

std::size_t StagedExecutor::flag_word(std::size_t base, int episode,
                                      const StagedEdge& edge) const {
  return base + rma::word_index(static_cast<std::size_t>(episode), edge.slot,
                                window_slots_);
}

void StagedExecutor::issue_puts(RankContext& ctx, const StageEdges& edges,
                                std::size_t stage, int episode,
                                std::size_t base) const {
  // The flag lands in the peer's window at the slot the peer numbered
  // for this edge; the region base is symmetric across ranks.
  for (const StagedEdge& edge : edges.out) {
    if (edge.put) {
      ctx.rma_put(edge.peer, flag_word(base, episode, edge),
                  rma::flag_value(static_cast<std::size_t>(episode)), stage);
    }
  }
}

void StagedExecutor::begin_stage(EpisodeHandle& handle,
                                 std::size_t stage) const {
  if (stage == stages_) {
    // A finished handle owns no heap storage, like a request MPI_Test
    // freed on completion.
    handle.release();
    handle.state_ = EpisodeHandle::kFinished;
    return;
  }
  EpisodeHandle::State& state = *handle.state();
  state.stage = stage;
  RankContext& ctx = *state.ctx;
  const StageEdges& edges = table_[ctx.rank()][stage];
  const StageShape shape = shape_of(edges);
  const int t = tag(state.episode, stage);
  // The previous stage's requests are complete; drop their shared state.
  for (std::size_t k = 0; k < state.request_count; ++k) {
    state.requests[k].reset();
  }
  state.request_count = 0;
  // Sends, then puts, then recvs — the op order the blocking path has
  // always used; reordering would break wait(post()) == execute().
  // Puts are outbound like sends but complete locally at issue and
  // produce no request.
  for (const StagedEdge& edge : edges.out) {
    if (!edge.put) {
      state.requests[state.request_count++] =
          send_edge(ctx, edge, t, state.buffer);
    }
  }
  state.flag_count = 0;
  if (window_slots_ > 0) {
    issue_puts(ctx, edges, stage, state.episode, state.rma_base);
    for (const StagedEdge& edge : edges.in) {
      if (edge.put) {
        state.flags[state.flag_count++] = Communicator::FlagWait{
            flag_word(state.rma_base, state.episode, edge),
            rma::flag_value(static_cast<std::size_t>(state.episode))};
      }
    }
  }
  state.inbox_live = shape.payload;
  for (std::size_t k = 0; k < edges.in.size(); ++k) {
    if (shape.payload) {
      state.inbox[k].clear();  // a signal edge of the stage lands nothing
    }
    if (!edges.in[k].put) {
      state.requests[state.request_count++] = recv_edge(
          ctx, edges.in[k], t, shape.payload ? &state.inbox[k] : nullptr);
    }
  }
}

void StagedExecutor::advance(EpisodeHandle& handle) const {
  EpisodeHandle::State& state = *handle.state();
  if (state.inbox_live) {
    const StageEdges& edges = table_[state.ctx->rank()][state.stage];
    apply_stage(edges, {state.inbox, edges.in.size()}, state.op,
                *state.buffer);
  }
  begin_stage(handle, state.stage + 1);
}

StagedExecutor::EpisodeHandle StagedExecutor::post(RankContext& ctx,
                                                   int episode,
                                                   Payload* buffer,
                                                   ReduceOp op) const {
  check_context(ctx, buffer);
  check_episode(episode);
  EpisodeHandle handle;
  if (stages_ == 0) {
    handle.state_ = EpisodeHandle::kFinished;
    return handle;
  }
  EpisodeHandle::State* state =
      EpisodeHandle::State::create(capacity_[ctx.rank()]);
  handle.state_ = reinterpret_cast<std::uintptr_t>(state);
  state->ctx = &ctx;
  state->buffer = buffer;
  state->op = op;
  state->episode = episode;
  if (window_slots_ > 0) {
    state->rma_base = rma_base(ctx, episode);
  }
  begin_stage(handle, 0);
  return handle;
}

bool StagedExecutor::test(EpisodeHandle& handle) const {
  if (handle.done()) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.state_ != 0, "test() on an empty handle");
  for (;;) {
    const EpisodeHandle::State& state = *handle.state();
    for (const Request& request : state.live_requests()) {
      if (!request->test()) {
        return false;
      }
    }
    for (const Communicator::FlagWait& flag : state.live_flags()) {
      if (!state.ctx->rma_test(flag.word, flag.expected)) {
        return false;
      }
    }
    advance(handle);
    if (handle.done()) {
      return true;
    }
  }
}

void StagedExecutor::wait(EpisodeHandle& handle) const {
  if (handle.done()) {
    return;
  }
  OPTIBAR_REQUIRE(handle.state_ != 0, "wait() on an empty handle");
  while (!handle.done()) {
    // One bounded progress slice: park on this rank's shard condvar
    // until the stage's requests matched and flags arrived, or the
    // slice expires; then advance a stage or park again.
    const EpisodeHandle::State& state = *handle.state();
    if (state.ctx->wait_stage_until(state.live_requests(), state.live_flags(),
                                    Clock::now() + options_.progress_slice)) {
      advance(handle);
    }
  }
}

void StagedExecutor::execute(RankContext& ctx, int episode, Payload* buffer,
                             ReduceOp op) const {
  EpisodeHandle handle = post(ctx, episode, buffer, op);
  wait(handle);
}

void StagedExecutor::begin_stage_resilient(ResilientEpisodeHandle& handle,
                                           std::size_t stage) const {
  RankStall& mine = handle.report_->per_rank[handle.ctx_->rank()];
  if (stage == stages_) {
    mine.stage_reached = stages_;
    handle.done_ = true;
    std::vector<ResilientEpisodeHandle::SendOp>().swap(handle.sends_);
    std::vector<ResilientEpisodeHandle::RecvOp>().swap(handle.recvs_);
    std::vector<ResilientEpisodeHandle::FlagOp>().swap(handle.flags_);
    handle.inbox_.reset();
    return;
  }
  handle.stage_ = stage;
  mine.stage_reached = stage;
  if (stage >= handle.crash_at_) {
    mine.crashed = true;
    handle.failed_ = true;
    return;
  }
  RankContext& ctx = *handle.ctx_;
  const StageEdges& edges = table_[ctx.rank()][stage];
  const StageShape shape = shape_of(edges);
  const int t = tag(handle.episode_, stage);
  handle.sends_.clear();
  handle.sends_.reserve(shape.sends);
  for (const StagedEdge& edge : edges.out) {
    if (!edge.put) {
      handle.sends_.push_back(ResilientEpisodeHandle::SendOp{
          &edge, {send_edge(ctx, edge, t, handle.buffer_)}});
    }
  }
  handle.flags_.clear();
  if (window_slots_ > 0) {
    // Puts complete at issue — nothing joins sends_, nothing retries:
    // the fire-and-forget sender never learns of a putdrop, so only
    // the receiver's flag wait can stall.
    issue_puts(ctx, edges, stage, handle.episode_, handle.rma_base_);
    handle.flags_.reserve(shape.flags);
    for (const StagedEdge& edge : edges.in) {
      if (edge.put) {
        handle.flags_.push_back(ResilientEpisodeHandle::FlagOp{
            edge.peer, flag_word(handle.rma_base_, handle.episode_, edge)});
      }
    }
  }
  handle.inbox_.reset();
  if (shape.payload) {
    handle.inbox_ = std::make_shared<std::vector<Payload>>(edges.in.size());
  }
  handle.recvs_.clear();
  handle.recvs_.reserve(shape.recvs);
  for (std::size_t k = 0; k < edges.in.size(); ++k) {
    const StagedEdge& edge = edges.in[k];
    if (!edge.put) {
      handle.recvs_.push_back(ResilientEpisodeHandle::RecvOp{
          edge.peer,
          recv_edge(ctx, edge, t,
                    shape.payload ? &(*handle.inbox_)[k] : nullptr,
                    handle.inbox_)});
    }
  }
  handle.attempt_ = 0;
  handle.budget_ = handle.options_.stage_deadline(stage);
  handle.consumed_ = Clock::duration::zero();
}

StagedExecutor::ResilientEpisodeHandle StagedExecutor::post_resilient(
    RankContext& ctx, const ResilienceOptions& options, StallReport& report,
    int episode, Payload* buffer, ReduceOp op) const {
  check_context(ctx, buffer);
  check_episode(episode);
  OPTIBAR_REQUIRE(report.per_rank.size() == table_.size() &&
                      report.stages == stages_,
                  "StallReport not reset for this executor");
  ResilientEpisodeHandle handle;
  handle.ctx_ = &ctx;
  handle.report_ = &report;
  handle.options_ = options;
  handle.buffer_ = buffer;
  handle.op_ = op;
  handle.episode_ = episode;
  if (window_slots_ > 0) {
    handle.rma_base_ = rma_base(ctx, episode);
  }
  const FaultInjector* faults = ctx.communicator().fault_injector();
  handle.crash_at_ = faults != nullptr ? faults->crash_stage(ctx.rank())
                                       : FaultInjector::kNoCrash;
  begin_stage_resilient(handle, 0);
  return handle;
}

void StagedExecutor::progress_resilient(ResilientEpisodeHandle& handle,
                                        Clock::duration slice) const {
  const Clock::time_point slice_end = Clock::now() + slice;
  RankContext& ctx = *handle.ctx_;
  RankStall& mine = handle.report_->per_rank[ctx.rank()];
  const std::uint64_t expected_flag =
      rma::flag_value(static_cast<std::size_t>(handle.episode_));
  while (!handle.done_ && !handle.failed_) {
    // Wait the stage against min(slice left, budget left): the deadline
    // budget is charged by the time actually spent inside progress,
    // never by the compute a polling caller does in between.
    const Clock::time_point t0 = Clock::now();
    const Clock::duration remaining =
        std::max(Clock::duration::zero(), handle.budget_ - handle.consumed_);
    Clock::time_point deadline = t0 + remaining;
    if (deadline > slice_end) {
      deadline = std::max(slice_end, t0);
    }
    bool all_done = true;
    for (ResilientEpisodeHandle::SendOp& send : handle.sends_) {
      for (const Request& request : send.attempts) {
        send.done = send.done || request->wait_until(deadline);
      }
      all_done = all_done && send.done;
    }
    for (ResilientEpisodeHandle::RecvOp& recv : handle.recvs_) {
      if (!recv.done && recv.request->wait_until(deadline)) {
        recv.done = true;
        mine.delivered.push_back(
            SignalEdge{handle.stage_, recv.src, ctx.rank()});
      }
      all_done = all_done && recv.done;
    }
    if (!handle.flags_.empty()) {
      // One combined bounded park for the stage's outstanding flags,
      // then per-flag visible probes so a partial arrival (e.g. one
      // dropped put among several) marks what did land.
      std::vector<Communicator::FlagWait> waits;
      for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
        if (!flag.done) {
          waits.push_back(Communicator::FlagWait{flag.word, expected_flag});
        }
      }
      if (!waits.empty()) {
        ctx.wait_stage_until({}, waits, deadline);
        for (ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
          if (!flag.done && ctx.rma_test(flag.word, expected_flag)) {
            flag.done = true;
            mine.delivered.push_back(
                SignalEdge{handle.stage_, flag.src, ctx.rank()});
          }
        }
      }
      for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
        all_done = all_done && flag.done;
      }
    }
    handle.consumed_ += Clock::now() - t0;
    if (all_done) {
      // Stage complete: apply incoming words exactly like the plain
      // lifecycle, then enter the next stage.
      if (handle.inbox_ != nullptr) {
        apply_stage(table_[ctx.rank()][handle.stage_], *handle.inbox_,
                    handle.op_, *handle.buffer_);
      }
      begin_stage_resilient(handle, handle.stage_ + 1);
      if (Clock::now() >= slice_end) {
        return;
      }
      continue;
    }
    if (handle.consumed_ >= handle.budget_) {
      if (handle.attempt_ >= handle.options_.max_retries) {
        for (const ResilientEpisodeHandle::SendOp& send : handle.sends_) {
          if (!send.done) {
            mine.pending_send_to.push_back(send.edge->peer);
          }
        }
        for (const ResilientEpisodeHandle::RecvOp& recv : handle.recvs_) {
          if (!recv.done) {
            mine.pending_recv_from.push_back(recv.src);
          }
        }
        for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
          if (!flag.done) {
            mine.pending_put_from.push_back(flag.src);
          }
        }
        handle.failed_ = true;
        return;
      }
      // Resend every unacked synchronized send: a fresh message with a
      // fresh fault draw, so a lossy (not dead) link can still let it
      // through. The buffer is untouched until the stage completes, so
      // the resend re-reads identical words. Receives are not reposted
      // — the original stays armed.
      const int t = tag(handle.episode_, handle.stage_);
      for (ResilientEpisodeHandle::SendOp& send : handle.sends_) {
        if (!send.done) {
          send.attempts.push_back(
              send_edge(ctx, *send.edge, t, handle.buffer_));
        }
      }
      ++handle.attempt_;
      handle.budget_ = std::chrono::duration_cast<Clock::duration>(
          handle.budget_ * handle.options_.retry_backoff);
      handle.consumed_ = Clock::duration::zero();
    }
    if (Clock::now() >= slice_end) {
      return;
    }
  }
}

bool StagedExecutor::test(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "test() on an empty handle");
  progress_resilient(handle, Clock::duration::zero());
  return handle.done();
}

bool StagedExecutor::wait(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return handle.succeeded();
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "wait() on an empty handle");
  while (!handle.done()) {
    progress_resilient(handle, options_.progress_slice);
  }
  return handle.succeeded();
}

bool StagedExecutor::execute_resilient(RankContext& ctx,
                                       const ResilienceOptions& options,
                                       StallReport& report, int episode,
                                       Payload* buffer, ReduceOp op) const {
  ResilientEpisodeHandle handle =
      post_resilient(ctx, options, report, episode, buffer, op);
  return wait(handle);
}

std::vector<std::chrono::nanoseconds> StagedExecutor::run_once(
    LatencyModel latency, ByteLatencyModel byte_latency,
    std::vector<Payload>* buffers, ReduceOp op,
    const std::vector<std::chrono::nanoseconds>& entry_delays) const {
  const std::size_t p = table_.size();
  check_buffers(buffers, p);
  if (!entry_delays.empty()) {
    OPTIBAR_REQUIRE(entry_delays.size() == p, "entry_delays size mismatch");
  }
  std::vector<std::chrono::nanoseconds> exits(p);
  Communicator comm(p, std::move(latency), std::move(byte_latency));
  const Clock::time_point start = Clock::now();
  run_episode(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    if (!entry_delays.empty() && entry_delays[r].count() > 0) {
      std::this_thread::sleep_for(entry_delays[r]);
    }
    execute(ctx, 0, buffer_of(buffers, r), op);
    exits[r] = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  });
  OPTIBAR_ASSERT(comm.unmatched_operations() == 0,
                 "episode left unmatched operations on the communicator");
  return exits;
}

StallReport StagedExecutor::run_once_resilient(
    const ResilienceOptions& options, const FaultPlan& faults,
    LatencyModel latency, ByteLatencyModel byte_latency,
    std::vector<Payload>* buffers, ReduceOp op) const {
  const std::size_t p = table_.size();
  check_buffers(buffers, p);
  StallReport report;
  report.reset(p, stages_);
  Communicator comm(p, std::move(latency), std::move(byte_latency));
  if (!faults.empty()) {
    comm.set_fault_plan(faults);
  }
  run_episode(comm, [&](RankContext& ctx) {
    if (execute_resilient(ctx, options, report, 0,
                          buffer_of(buffers, ctx.rank()), op)) {
      report.per_rank[ctx.rank()].finished = true;
    }
  });
  report.finalize();
  return report;
}

}  // namespace optibar::simmpi
