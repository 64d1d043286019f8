// The production netsim engine: binary-heap scheduling over typed
// SimEvents, CompiledSchedule CSR adjacency, and all mutable state in a
// reusable SimWorkspace. Bit-identical to engine_reference.cpp — the
// two engines make the same scheduling calls in the same order, so
// insertion sequence numbers, pop order, and the RNG stream coincide
// exactly (test_netsim_parity enforces this across every option).
#include "netsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace optibar {

double SimResult::barrier_time() const {
  OPTIBAR_REQUIRE(!completion.empty(), "empty SimResult");
  OPTIBAR_REQUIRE(!deadlocked, "barrier_time of a deadlocked run");
  const double latest_exit =
      *std::max_element(completion.begin(), completion.end());
  const double latest_entry = *std::max_element(entry.begin(), entry.end());
  return latest_exit - latest_entry;
}

double SimResult::completion_time() const {
  OPTIBAR_REQUIRE(!completion.empty(), "empty SimResult");
  OPTIBAR_REQUIRE(!deadlocked, "completion_time of a deadlocked run");
  return *std::max_element(completion.begin(), completion.end());
}

namespace {

/// One simulation run over a caller-owned workspace. The protocol logic
/// is a line-for-line mirror of ReferenceSimulation (engine_reference.cpp)
/// with three mechanical substitutions: typed events dispatched through
/// a switch instead of std::function closures, compiled CSR spans
/// instead of per-stage sources_of/targets_of vectors, and the SoA
/// buffered-message pool instead of nested vectors. Because every
/// queue_.schedule call happens at the same point in the same order,
/// the (time, seq) pop order — and with it the RNG stream and every
/// double in the result — is bit-identical to the reference.
template <class Costs>
class Engine {
 public:
  using RankState = SimWorkspace::RankState;
  static constexpr std::uint32_t kNil = SimWorkspace::kNil;
  static constexpr std::size_t kMaxEvents = 100'000'000;

  Engine(const CompiledSchedule& compiled, const Costs& profile,
         const SimOptions& options, SimWorkspace& ws, SimResult& out)
      : compiled_(compiled),
        profile_(profile),
        options_(options),
        ws_(ws),
        out_(out),
        p_(compiled.ranks()),
        stages_(compiled.stage_count()),
        rng_(options.seed) {
    OPTIBAR_REQUIRE(profile_.ranks() == p_, "profile/schedule rank mismatch");
    if (!options_.faults.empty()) {
      injector_.emplace(options_.faults);
    }
    ws_.halted.assign(p_, 0);
    OPTIBAR_REQUIRE(options_.jitter >= 0.0, "negative jitter");
    OPTIBAR_REQUIRE(options_.spike_probability >= 0.0 &&
                        options_.spike_probability <= 1.0,
                    "spike_probability outside [0,1]");
    ws_.recv_busy.assign(p_, 0.0);
    if (!options_.egress_resource_of.empty()) {
      OPTIBAR_REQUIRE(options_.egress_resource_of.size() == p_,
                      "egress_resource_of size mismatch");
      std::size_t max_resource = 0;
      for (std::size_t res : options_.egress_resource_of) {
        max_resource = std::max(max_resource, res);
      }
      ws_.egress_busy.assign(max_resource + 1, 0.0);
    }
    out_.completion.assign(p_, 0.0);
    out_.entry.assign(p_, 0.0);
    if (!options_.entry_times.empty()) {
      OPTIBAR_REQUIRE(options_.entry_times.size() == p_,
                      "entry_times size mismatch");
      out_.entry.assign(options_.entry_times.begin(),
                        options_.entry_times.end());
    }
    if (!options_.compute_after_post.empty()) {
      OPTIBAR_REQUIRE(options_.compute_after_post.size() == p_,
                      "compute_after_post size mismatch");
      OPTIBAR_REQUIRE(options_.progress_poll_interval > 0.0,
                      "compute_after_post needs a positive "
                      "progress_poll_interval");
      for (const double c : options_.compute_after_post) {
        OPTIBAR_REQUIRE(c >= 0.0, "negative compute_after_post");
      }
    }
    out_.trace.clear();
    out_.deadlocked = false;
    out_.stuck_ranks.clear();
    ws_.states.assign(p_, RankState{});
    ws_.queue.reset();
    // Buffered-message pool: empty chains, bump allocator rewound.
    ws_.buf_head.assign(compiled_.row_count(), kNil);
    ws_.buf_tail.assign(compiled_.row_count(), kNil);
    ws_.buf_src.clear();
    ws_.buf_injected.clear();
    ws_.buf_ghost.clear();
    ws_.buf_put.clear();
    ws_.buf_next.clear();
  }

  void run() {
    ws_.crashed.assign(p_, 0);
    for (std::size_t rank : options_.crashed_ranks) {
      OPTIBAR_REQUIRE(rank < p_, "crashed rank " << rank << " out of range");
      ws_.crashed[rank] = 1;
    }
    for (std::size_t i = 0; i < p_; ++i) {
      // Crash-at-stage-0 is the legacy "died before the call" case.
      if (ws_.crashed[i] != 0 || crash_stage(i) == 0) {
        ws_.halted[i] = 1;
        continue;
      }
      SimEvent event;
      event.kind = SimEventKind::kEnter;
      event.a = static_cast<std::uint32_t>(i);
      ws_.queue.schedule(out_.entry[i], event);
    }
    std::size_t executed = 0;
    while (!ws_.queue.empty()) {
      OPTIBAR_ASSERT(executed++ < kMaxEvents,
                     "event cascade exceeded " << kMaxEvents << " events");
      dispatch(ws_.queue.pop());
    }
    for (std::size_t i = 0; i < p_; ++i) {
      if (ws_.states[i].done != 0) {
        continue;
      }
      // Without injected faults an unfinished rank is an engine bug.
      OPTIBAR_ASSERT(!options_.crashed_ranks.empty() ||
                         !options_.faults.empty(),
                     "rank " << i << " never completed: simulator deadlock");
      out_.deadlocked = true;
      out_.stuck_ranks.push_back(i);
      out_.completion[i] = std::numeric_limits<double>::infinity();
    }
  }

 private:
  void dispatch(const SimEvent& event) {
    const double now = ws_.queue.now();
    switch (event.kind) {
      case SimEventKind::kEnter:
        enter_barrier(event.a, now);
        return;
      case SimEventKind::kInject:
        on_inject(event.a, event.b, event.stage, now, event.ghost);
        return;
      case SimEventKind::kAsyncSendDone: {
        RankState& sender = ws_.states[event.a];
        OPTIBAR_ASSERT(sender.stage == event.stage, "stale async-send token");
        OPTIBAR_ASSERT(sender.sends_pending == 1, "async token misuse");
        sender.sends_pending = 0;
        maybe_complete_stage(event.a, now);
        return;
      }
      case SimEventKind::kFinalizeMatch:
        finalize_match(event.a, event.b, event.stage, now, event.payload);
        return;
      case SimEventKind::kAdvanceStage:
        // The target stage is read at fire time, exactly like the
        // reference closure does.
        enter_stage(event.a, ws_.states[event.a].stage + 1, now);
        return;
      case SimEventKind::kPutInject:
        on_put_inject(event.a, event.b, event.stage, now);
        return;
      case SimEventKind::kPutLand:
        on_put_land(event.a, event.b, event.stage, now, event.payload);
        return;
      case SimEventKind::kPutsDone: {
        RankState& sender = ws_.states[event.a];
        OPTIBAR_ASSERT(sender.stage == event.stage, "stale put-batch token");
        OPTIBAR_ASSERT(sender.sends_pending > 0, "put token misuse");
        --sender.sends_pending;
        maybe_complete_stage(event.a, now);
        return;
      }
    }
  }

  /// One stochastic cost contribution: base scaled by jitter and
  /// occasionally hit by a background-load spike.
  double perturb(double base) {
    double value = base;
    if (options_.jitter > 0.0) {
      const double factor = 1.0 + options_.jitter * rng_.next_normal();
      value *= std::max(0.05, factor);
    }
    if (options_.spike_probability > 0.0 &&
        rng_.next_double() < options_.spike_probability) {
      value += options_.spike_scale * base;
    }
    return value;
  }

  /// Payload (or other caller-supplied) surcharge of one message; 0
  /// without a hook, keeping every base cost — and the RNG stream —
  /// identical to the pure signalling model.
  double extra_cost(std::size_t stage, std::size_t src,
                    std::size_t dst) const {
    return options_.extra_message_cost
               ? options_.extra_message_cost(stage, src, dst)
               : 0.0;
  }

  /// Stage at which `rank` halts under the fault plan, or kNoCrash.
  std::size_t crash_stage(std::size_t rank) const {
    return injector_ ? injector_->crash_stage(rank)
                     : FaultInjector::kNoCrash;
  }

  void schedule_inject(double time, std::size_t src, std::size_t dst,
                       std::size_t stage, bool ghost) {
    SimEvent event;
    event.kind = SimEventKind::kInject;
    event.ghost = ghost;
    event.stage = static_cast<std::uint32_t>(stage);
    event.a = static_cast<std::uint32_t>(src);
    event.b = static_cast<std::uint32_t>(dst);
    ws_.queue.schedule(time, event);
  }

  void enter_barrier(std::size_t rank, double now) {
    ws_.states[rank].entered = 1;
    enter_stage(rank, 0, now);
  }

  void enter_stage(std::size_t rank, std::size_t stage, double now) {
    RankState& st = ws_.states[rank];
    st.stage = static_cast<std::uint32_t>(stage);
    if (stage == stages_) {
      st.done = 1;
      out_.completion[rank] = now;
      return;
    }
    if (stage >= crash_stage(rank)) {
      // The rank dies on stage entry: nothing of this stage is sent or
      // matched, and inbound messages to the corpse are discarded at
      // on_inject. Synchronized senders to it then stall — the Eq. 3
      // guarantee seen from the failure side.
      ws_.halted[rank] = 1;
      return;
    }

    // CSR spans of the (rank, stage) row: the zero-alloc replacement
    // for the reference's per-call sources_of/targets_of vectors.
    // target_overhead/target_latency hold the same O(rank,dst)/
    // L(rank,dst) doubles the profile would return, aligned with
    // targets.
    const std::size_t row = compiled_.row(rank, stage);
    const std::span<const CompiledSchedule::Rank> targets =
        compiled_.targets(row);
    const std::span<const double> target_l = compiled_.target_latency(row);
    const std::span<const double> target_o = compiled_.target_overhead(row);
    const std::span<const std::uint8_t> target_put =
        compiled_.target_one_sided(row);
    std::size_t put_count = 0;
    for (const std::uint8_t put : target_put) {
      put_count += (put != 0) ? 1 : 0;
    }
    st.recvs_pending =
        static_cast<std::uint32_t>(compiled_.sources(row).size());
    // Synchronized puts are fire-and-forget: the whole put batch is one
    // pending unit that completes at its last injection (kPutsDone),
    // never waiting on matches. put_count == 0 reduces to the classic
    // formula exactly.
    st.sends_pending = static_cast<std::uint32_t>(
        options_.synchronous_sends
            ? targets.size() - put_count + (put_count > 0 ? 1 : 0)
            : (targets.empty() ? 0 : 1));

    // Serial injection: first message pays O, the rest pay L each
    // (exactly the quantity the Section IV-A L benchmark measures).
    // Put edges share these slots — target_overhead already holds their
    // effective (local) startup O(rank,rank).
    double inject = now;
    for (std::size_t idx = 0; idx < targets.size(); ++idx) {
      const std::size_t dst = targets[idx];
      const double base = (idx == 0 ? target_o[idx] : target_l[idx]) +
                          extra_cost(stage, rank, dst);
      inject += perturb(base);
      if (target_put[idx] != 0) {
        // One-sided edge: the put leaves the NIC here; a putdrop fault
        // loses the flag write in flight (the sender, complete at
        // injection, never learns — only the receiver stalls).
        if (injector_ && injector_->decide_put(rank, dst, stage, /*seq=*/0)) {
          continue;
        }
        SimEvent event;
        event.kind = SimEventKind::kPutInject;
        event.stage = static_cast<std::uint32_t>(stage);
        event.a = static_cast<std::uint32_t>(rank);
        event.b = static_cast<std::uint32_t>(dst);
        ws_.queue.schedule(inject, event);
        continue;
      }
      FaultInjector::Decision fault;
      if (injector_) {
        fault = injector_->decide(rank, dst, static_cast<int>(stage),
                                  /*seq=*/0);
      }
      inject += fault.delay_seconds;
      if (fault.drop) {
        // Lost in the network after injection: the sender paid NIC
        // time, the receiver never hears it, and in synchronized mode
        // the sender's stage never completes.
        continue;
      }
      schedule_inject(inject, rank, dst, stage, /*ghost=*/false);
      for (std::size_t d = 0; d < fault.duplicates; ++d) {
        // Ghost copy: consumes an extra injection slot and receiver
        // processing, but has no protocol effect.
        inject += perturb(target_l[idx] + extra_cost(stage, rank, dst));
        schedule_inject(inject, rank, dst, stage, /*ghost=*/true);
      }
    }
    if (!options_.synchronous_sends && !targets.empty()) {
      // Async mode: the send side of the stage completes at the last
      // injection, independent of matching.
      SimEvent event;
      event.kind = SimEventKind::kAsyncSendDone;
      event.stage = static_cast<std::uint32_t>(stage);
      event.a = static_cast<std::uint32_t>(rank);
      ws_.queue.schedule(inject, event);
    }
    if (options_.synchronous_sends && put_count > 0) {
      // The put batch's local completion token (see sends_pending above).
      SimEvent event;
      event.kind = SimEventKind::kPutsDone;
      event.stage = static_cast<std::uint32_t>(stage);
      event.a = static_cast<std::uint32_t>(rank);
      ws_.queue.schedule(inject, event);
    }

    // Messages that arrived before we entered this stage match now.
    // The chain is walked via pre-read next links: a match can re-enter
    // the engine and grow the pool (reallocating the SoA vectors), but
    // never appends to this chain — completing this stage requires
    // consuming these very messages first.
    std::uint32_t node = ws_.buf_head[row];
    while (node != kNil) {
      const std::uint32_t next = ws_.buf_next[node];
      const std::size_t src = ws_.buf_src[node];
      const double injected = ws_.buf_injected[node];
      if (ws_.buf_put[node] != 0) {
        // A flag that landed in the window before we got here: visible
        // immediately on stage entry, no completion processing.
        finalize_put(src, rank, stage, now, injected);
      } else {
        const bool ghost = ws_.buf_ghost[node] != 0;
        match(src, rank, stage, now, injected, ghost);
      }
      node = next;
    }
    ws_.buf_head[row] = kNil;
    ws_.buf_tail[row] = kNil;

    maybe_complete_stage(rank, now);
  }

  void on_inject(std::size_t src, std::size_t dst, std::size_t stage,
                 double now, bool ghost) {
    // Shared-egress contention: a remote-bound message must acquire the
    // sender's egress resource; if busy, retry when it frees up.
    if (!options_.egress_resource_of.empty() &&
        options_.egress_resource_of[src] != options_.egress_resource_of[dst]) {
      const std::size_t resource = options_.egress_resource_of[src];
      if (ws_.egress_busy[resource] > now) {
        schedule_inject(ws_.egress_busy[resource], src, dst, stage, ghost);
        return;
      }
      ws_.egress_busy[resource] =
          now + perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    }
    if (ws_.halted[dst] != 0) {
      return;  // delivered to a corpse: silently discarded
    }
    RankState& receiver = ws_.states[dst];
    if (receiver.entered != 0 && receiver.stage == stage) {
      match(src, dst, stage, now, now, ghost);
      return;
    }
    // The receiver cannot be past this stage: completing it requires
    // matching this very message (ghosts carry no such obligation —
    // the real copy already did).
    OPTIBAR_ASSERT(ghost || receiver.entered == 0 || receiver.stage < stage,
                   "receiver " << dst << " advanced past stage " << stage
                               << " with unmatched inbound message");
    if (ghost && receiver.entered != 0 && receiver.stage > stage) {
      return;  // stale ghost: the stage is over, nothing left to occupy
    }
    buffer_message(src, dst, stage, now, ghost, /*put=*/false);
  }

  /// Append to the FIFO chain of dst's row in `stage` in the SoA pool.
  void buffer_message(std::size_t src, std::size_t dst, std::size_t stage,
                      double injected, bool ghost, bool put) {
    const std::size_t row = compiled_.row(dst, stage);
    const std::uint32_t node = static_cast<std::uint32_t>(ws_.buf_src.size());
    ws_.buf_src.push_back(static_cast<std::uint32_t>(src));
    ws_.buf_injected.push_back(injected);
    ws_.buf_ghost.push_back(ghost ? 1 : 0);
    ws_.buf_put.push_back(put ? 1 : 0);
    ws_.buf_next.push_back(kNil);
    if (ws_.buf_tail[row] == kNil) {
      ws_.buf_head[row] = node;
    } else {
      ws_.buf_next[ws_.buf_tail[row]] = node;
    }
    ws_.buf_tail[row] = node;
  }

  /// A one-sided put hits the wire: acquire the sender's egress
  /// resource like any remote message, then land the flag write
  /// R(src,dst) later — the remote-write delivery latency, in place of
  /// the two-sided match-plus-processing path.
  void on_put_inject(std::size_t src, std::size_t dst, std::size_t stage,
                     double now) {
    if (!options_.egress_resource_of.empty() &&
        options_.egress_resource_of[src] != options_.egress_resource_of[dst]) {
      const std::size_t resource = options_.egress_resource_of[src];
      if (ws_.egress_busy[resource] > now) {
        SimEvent event;
        event.kind = SimEventKind::kPutInject;
        event.stage = static_cast<std::uint32_t>(stage);
        event.a = static_cast<std::uint32_t>(src);
        event.b = static_cast<std::uint32_t>(dst);
        ws_.queue.schedule(ws_.egress_busy[resource], event);
        return;
      }
      ws_.egress_busy[resource] =
          now + perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    }
    SimEvent event;
    event.kind = SimEventKind::kPutLand;
    event.stage = static_cast<std::uint32_t>(stage);
    event.a = static_cast<std::uint32_t>(src);
    event.b = static_cast<std::uint32_t>(dst);
    event.payload = now;
    ws_.queue.schedule(now + perturb(profile_.r(src, dst)), event);
  }

  /// The flag write became visible in the receiver's window. Unlike a
  /// two-sided arrival there is no completion processing and no sender
  /// to notify — the receiver either observes it now (at stage) or
  /// finds it on stage entry (buffered).
  void on_put_land(std::size_t src, std::size_t dst, std::size_t stage,
                   double now, double injected) {
    if (ws_.halted[dst] != 0) {
      return;  // written into a corpse's window: never observed
    }
    RankState& receiver = ws_.states[dst];
    if (receiver.entered != 0 && receiver.stage == stage) {
      finalize_put(src, dst, stage, now, injected);
      return;
    }
    // Completing the stage requires observing this very flag, so the
    // receiver cannot be past it (puts have no ghost copies).
    OPTIBAR_ASSERT(receiver.entered == 0 || receiver.stage < stage,
                   "receiver " << dst << " advanced past stage " << stage
                               << " with an unobserved flag");
    buffer_message(src, dst, stage, injected, /*ghost=*/false, /*put=*/true);
  }

  /// The receiver observed a one-sided flag: pure protocol effect —
  /// no receiver CPU time, and no sender decrement (the put completed
  /// locally at injection).
  void finalize_put(std::size_t src, std::size_t dst, std::size_t stage,
                    double now, double injected) {
    if (options_.record_trace) {
      out_.trace.push_back(MessageTrace{stage, src, dst, injected, now});
    }
    RankState& receiver = ws_.states[dst];
    OPTIBAR_ASSERT(receiver.recvs_pending > 0,
                   "unexpected flag " << src << "->" << dst << " in stage "
                                      << stage);
    --receiver.recvs_pending;
    maybe_complete_stage(dst, now);
  }

  /// A message has arrived (or was found buffered at stage entry): run
  /// it through the receiver's serial completion processing, then
  /// finalize the match once processing is done. Ghost copies consume
  /// the processing time but never affect the protocol state.
  void match(std::size_t src, std::size_t dst, std::size_t stage, double now,
             double injected, bool ghost = false) {
    if (!options_.receiver_processing) {
      if (!ghost) {
        finalize_match(src, dst, stage, now, injected);
      }
      return;
    }
    const double done =
        std::max(now, ws_.recv_busy[dst]) +
        perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    ws_.recv_busy[dst] = done;
    if (ghost) {
      return;
    }
    SimEvent event;
    event.kind = SimEventKind::kFinalizeMatch;
    event.stage = static_cast<std::uint32_t>(stage);
    event.a = static_cast<std::uint32_t>(src);
    event.b = static_cast<std::uint32_t>(dst);
    event.payload = injected;
    ws_.queue.schedule(done, event);
  }

  void finalize_match(std::size_t src, std::size_t dst, std::size_t stage,
                      double now, double injected) {
    if (options_.record_trace) {
      out_.trace.push_back(MessageTrace{stage, src, dst, injected, now});
    }
    RankState& receiver = ws_.states[dst];
    OPTIBAR_ASSERT(receiver.recvs_pending > 0,
                   "unexpected message " << src << "->" << dst << " in stage "
                                         << stage);
    --receiver.recvs_pending;
    maybe_complete_stage(dst, now);

    if (options_.synchronous_sends) {
      RankState& sender = ws_.states[src];
      OPTIBAR_ASSERT(sender.stage == stage && sender.sends_pending > 0,
                     "match for sender " << src
                                         << " in unexpected stage state");
      --sender.sends_pending;
      maybe_complete_stage(src, now);
    }
  }

  /// When the nonblocking-progress model is on and `rank` is still
  /// inside its post-entry compute window, barrier progress only
  /// happens at the rank's poll ticks: return the first tick at or
  /// after `now` (capped at the end of the window, where the rank
  /// blocks in wait() and progress is immediate). `now` otherwise.
  double progress_time(std::size_t rank, double now) const {
    if (options_.compute_after_post.empty() ||
        options_.progress_poll_interval <= 0.0) {
      return now;
    }
    const double entry = out_.entry[rank];
    const double busy_until = entry + options_.compute_after_post[rank];
    if (now >= busy_until) {
      return now;
    }
    const double poll = options_.progress_poll_interval;
    double tick = entry + std::ceil((now - entry) / poll) * poll;
    if (tick < now) {
      tick += poll;  // floating-point guard: the tick may not precede now
    }
    return std::min(tick, busy_until);
  }

  void maybe_complete_stage(std::size_t rank, double now) {
    RankState& st = ws_.states[rank];
    if (st.done != 0 || st.recvs_pending > 0 || st.sends_pending > 0) {
      return;
    }
    const double at = progress_time(rank, now);
    if (at > now) {
      // Host-driven progress: the prerequisites are in, but the rank is
      // computing and only notices at its next handle poll. Nothing can
      // re-trigger this stage meanwhile (both pending counts are zero),
      // so exactly one deferred transition is ever scheduled.
      SimEvent event;
      event.kind = SimEventKind::kAdvanceStage;
      event.a = static_cast<std::uint32_t>(rank);
      ws_.queue.schedule(at, event);
      return;
    }
    enter_stage(rank, st.stage + 1, now);
  }

  const CompiledSchedule& compiled_;
  const Costs& profile_;
  const SimOptions& options_;
  SimWorkspace& ws_;
  SimResult& out_;
  std::size_t p_;
  std::size_t stages_;
  Rng rng_;
  std::optional<FaultInjector> injector_;
};

}  // namespace

void simulate_compiled_into(const CompiledSchedule& compiled,
                            const TopologyProfile& profile,
                            const SimOptions& options,
                            SimWorkspace& workspace, SimResult& out) {
  Engine<TopologyProfile>(compiled, profile, options, workspace, out).run();
}

void simulate_compiled_into(const CompiledSchedule& compiled,
                            const TiledProfile& profile,
                            const SimOptions& options,
                            SimWorkspace& workspace, SimResult& out) {
  Engine<TiledProfile>(compiled, profile, options, workspace, out).run();
}

void simulate_into(const Schedule& schedule, const TopologyProfile& profile,
                   const SimOptions& options, SimWorkspace& workspace,
                   SimResult& out) {
  OPTIBAR_REQUIRE(profile.ranks() == schedule.ranks(),
                  "profile/schedule rank mismatch");
  workspace.compiled.compile(schedule, profile);
  simulate_compiled_into(workspace.compiled, profile, options, workspace, out);
}

SimResult simulate(const Schedule& schedule, const TopologyProfile& profile,
                   const SimOptions& options) {
  thread_local SimWorkspace workspace;
  SimResult out;
  simulate_into(schedule, profile, options, workspace, out);
  return out;
}

namespace {

/// Run body(0..n-1), fanning out across `pool` when it helps. Bodies
/// write to index-owned slots, so results never depend on the width.
void for_each_rep(std::size_t n, ThreadPool* pool,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && pool->width() > 1 && n > 1) {
    pool->parallel_for(n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    body(i);
  }
}

}  // namespace

double simulate_mean_time(const Schedule& schedule,
                          const TopologyProfile& profile,
                          const SimOptions& options, std::size_t repetitions,
                          ThreadPool* pool) {
  OPTIBAR_REQUIRE(repetitions > 0, "repetitions must be positive");
  // Compile once, simulate many: the compiled adjacency is read-only
  // and shared across the pool. Each repetition derives its seed from
  // the index alone and writes its own slot; the sum below runs in
  // index order. Both together make the mean bit-identical at any pool
  // width.
  const CompiledSchedule compiled(schedule, profile);
  std::vector<double> times(repetitions);
  for_each_rep(repetitions, pool, [&](std::size_t rep) {
    thread_local SimWorkspace workspace;
    thread_local SimResult result;
    thread_local SimOptions rep_options;
    rep_options = options;
    rep_options.seed = options.seed + 0x9E3779B9ULL * (rep + 1);
    simulate_compiled_into(compiled, profile, rep_options, workspace, result);
    times[rep] = result.barrier_time();
  });
  double total = 0.0;
  for (double t : times) {
    total += t;
  }
  return total / static_cast<double>(repetitions);
}

std::vector<std::size_t> node_egress_resources(const MachineSpec& machine,
                                               const Mapping& mapping) {
  std::vector<std::size_t> resources(mapping.size());
  for (std::size_t rank = 0; rank < mapping.size(); ++rank) {
    resources[rank] = machine.location(mapping.core_of(rank)).node;
  }
  return resources;
}

double WorkloadResult::mean_barrier_time() const {
  OPTIBAR_REQUIRE(!episode_barrier_times.empty(), "empty workload result");
  double total = 0.0;
  for (double t : episode_barrier_times) {
    total += t;
  }
  return total / static_cast<double>(episode_barrier_times.size());
}

double WorkloadResult::total_wait() const {
  double total = 0.0;
  for (double w : rank_wait_total) {
    total += w;
  }
  return total;
}

namespace {

/// simulate_workload against an already-compiled schedule, reusing the
/// caller's workspace across episodes (and across whole workload runs
/// in simulate_workload_reps).
WorkloadResult run_workload(const CompiledSchedule& compiled,
                            const TopologyProfile& profile,
                            const WorkloadOptions& options,
                            SimWorkspace& workspace) {
  OPTIBAR_REQUIRE(options.episodes > 0, "workload needs at least one episode");
  OPTIBAR_REQUIRE(options.compute_mean >= 0.0 && options.compute_stddev >= 0.0,
                  "compute parameters must be non-negative");
  OPTIBAR_REQUIRE(options.sim.entry_times.empty(),
                  "workload owns the entry times; leave sim.entry_times empty");
  const std::size_t p = compiled.ranks();
  Rng rng(options.sim.seed ^ 0xB5297A4D3F84D5A9ULL);

  WorkloadResult result;
  result.rank_wait_total.assign(p, 0.0);
  std::vector<double> completion(p, 0.0);
  SimOptions sim = options.sim;  // one copy, reused every episode
  sim.entry_times.resize(p);
  SimResult episode_result;
  for (std::size_t episode = 0; episode < options.episodes; ++episode) {
    sim.seed = options.sim.seed + 0x9E3779B9ULL * (episode + 1);
    for (std::size_t rank = 0; rank < p; ++rank) {
      const double compute = std::max(
          0.0, rng.normal(options.compute_mean, options.compute_stddev));
      sim.entry_times[rank] = completion[rank] + compute;
    }
    simulate_compiled_into(compiled, profile, sim, workspace, episode_result);
    result.episode_barrier_times.push_back(episode_result.barrier_time());
    for (std::size_t rank = 0; rank < p; ++rank) {
      result.rank_wait_total[rank] +=
          episode_result.completion[rank] - episode_result.entry[rank];
    }
    completion = episode_result.completion;
  }
  result.makespan =
      *std::max_element(completion.begin(), completion.end());
  return result;
}

/// Reusable state of one paired overlap episode: the workspace, both
/// run results, the per-run option copy, and the shared compute draws.
/// One per thread (thread_local at the call sites).
struct OverlapScratch {
  SimWorkspace ws;
  SimResult blocking_run;
  SimResult nonblocking_run;
  SimOptions run_options;
  std::vector<double> compute;
};

/// simulate_overlap against an already-compiled schedule with caller-
/// owned scratch; allocation-free once the scratch is warm.
OverlapResult run_overlap(const CompiledSchedule& compiled,
                          const TopologyProfile& profile,
                          const OverlapOptions& options,
                          OverlapScratch& scratch) {
  OPTIBAR_REQUIRE(options.compute_seconds >= 0.0 &&
                      options.compute_stddev >= 0.0,
                  "compute parameters must be non-negative");
  OPTIBAR_REQUIRE(options.overlap_ratio >= 0.0 &&
                      options.overlap_ratio <= 1.0,
                  "overlap_ratio outside [0,1]");
  OPTIBAR_REQUIRE(options.poll_interval > 0.0,
                  "poll_interval must be positive");
  OPTIBAR_REQUIRE(options.sim.entry_times.empty() &&
                      options.sim.compute_after_post.empty() &&
                      options.sim.progress_poll_interval == 0.0,
                  "the overlap runner owns entry times and progress "
                  "polling; leave them empty in sim");
  const std::size_t p = compiled.ranks();

  // One set of compute draws shared by both runs: the comparison is
  // paired, so the difference isolates overlap, not draw luck.
  Rng rng(options.sim.seed ^ 0xA0761D6478BD642FULL);
  scratch.compute.resize(p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    scratch.compute[rank] = std::max(
        0.0, rng.normal(options.compute_seconds, options.compute_stddev));
  }

  // Blocking reference: every rank finishes all its compute, then calls
  // the barrier.
  SimOptions& run = scratch.run_options;
  run = options.sim;
  run.entry_times.assign(scratch.compute.begin(), scratch.compute.end());
  simulate_compiled_into(compiled, profile, run, scratch.ws,
                         scratch.blocking_run);

  // Nonblocking: post after the non-overlapped fraction, compute the
  // rest while polling the handle.
  run.entry_times.resize(p);
  run.compute_after_post.resize(p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    run.entry_times[rank] =
        (1.0 - options.overlap_ratio) * scratch.compute[rank];
    run.compute_after_post[rank] =
        options.overlap_ratio * scratch.compute[rank];
  }
  run.progress_poll_interval = options.poll_interval;
  simulate_compiled_into(compiled, profile, run, scratch.ws,
                         scratch.nonblocking_run);

  OverlapResult result;
  result.blocking_completion = scratch.blocking_run.completion_time();
  result.nonblocking_completion = scratch.nonblocking_run.completion_time();
  for (std::size_t rank = 0; rank < p; ++rank) {
    const double busy_until =
        scratch.nonblocking_run.entry[rank] + run.compute_after_post[rank];
    result.exposed_wait =
        std::max(result.exposed_wait,
                 scratch.nonblocking_run.completion[rank] - busy_until);
  }
  result.saved =
      result.blocking_completion - result.nonblocking_completion;
  const double span = scratch.blocking_run.barrier_time();
  if (span > 0.0) {
    result.overlap_efficiency =
        std::clamp(result.saved / span, 0.0, 1.0);
  }
  return result;
}

}  // namespace

WorkloadResult simulate_workload(const Schedule& schedule,
                                 const TopologyProfile& profile,
                                 const WorkloadOptions& options) {
  thread_local SimWorkspace workspace;
  OPTIBAR_REQUIRE(profile.ranks() == schedule.ranks(),
                  "profile/schedule rank mismatch");
  workspace.compiled.compile(schedule, profile);
  return run_workload(workspace.compiled, profile, options, workspace);
}

OverlapResult simulate_overlap(const Schedule& schedule,
                               const TopologyProfile& profile,
                               const OverlapOptions& options) {
  thread_local OverlapScratch scratch;
  OPTIBAR_REQUIRE(profile.ranks() == schedule.ranks(),
                  "profile/schedule rank mismatch");
  scratch.ws.compiled.compile(schedule, profile);
  return run_overlap(scratch.ws.compiled, profile, options, scratch);
}

OverlapResult simulate_overlap_mean(const Schedule& schedule,
                                    const TopologyProfile& profile,
                                    const OverlapOptions& options,
                                    std::size_t repetitions,
                                    ThreadPool* pool) {
  OPTIBAR_REQUIRE(repetitions > 0, "repetitions must be positive");
  // Rep 0 keeps the caller's seed (one rep degenerates to
  // simulate_overlap); index-owned slots keep the mean pool-width
  // invariant, like every seeded mean in this engine.
  const CompiledSchedule compiled(schedule, profile);
  std::vector<OverlapResult> results(repetitions);
  for_each_rep(repetitions, pool, [&](std::size_t rep) {
    thread_local OverlapScratch scratch;
    thread_local OverlapOptions rep_options;
    rep_options = options;
    rep_options.sim.seed = options.sim.seed + 0xD1B54A32D192ED03ULL * rep;
    results[rep] = run_overlap(compiled, profile, rep_options, scratch);
  });
  OverlapResult mean;
  for (const OverlapResult& r : results) {
    mean.blocking_completion += r.blocking_completion;
    mean.nonblocking_completion += r.nonblocking_completion;
    mean.exposed_wait += r.exposed_wait;
    mean.saved += r.saved;
    mean.overlap_efficiency += r.overlap_efficiency;
  }
  const double n = static_cast<double>(repetitions);
  mean.blocking_completion /= n;
  mean.nonblocking_completion /= n;
  mean.exposed_wait /= n;
  mean.saved /= n;
  mean.overlap_efficiency /= n;
  return mean;
}

std::vector<WorkloadResult> simulate_workload_reps(
    const Schedule& schedule, const TopologyProfile& profile,
    const WorkloadOptions& options, std::size_t repetitions,
    ThreadPool* pool) {
  OPTIBAR_REQUIRE(repetitions > 0, "repetitions must be positive");
  // Episodes inside one workload are sequential (episode e enters when
  // e-1 completed), but whole workload runs are independent given
  // their seed — the parallel grain. Rep 0 keeps the caller's seed so
  // a single-rep call degenerates to simulate_workload exactly.
  const CompiledSchedule compiled(schedule, profile);
  std::vector<WorkloadResult> results(repetitions);
  for_each_rep(repetitions, pool, [&](std::size_t rep) {
    thread_local SimWorkspace workspace;
    thread_local WorkloadOptions rep_options;
    rep_options = options;
    rep_options.sim.seed =
        options.sim.seed + 0xD1B54A32D192ED03ULL * rep;
    results[rep] = run_workload(compiled, profile, rep_options, workspace);
  });
  return results;
}

}  // namespace optibar
