// The original netsim engine, retained verbatim as the parity oracle
// for the event-heap engine in engine.cpp (the predict_reference
// pattern): std::function closures on a binary-heap EventQueue,
// per-stage adjacency vectors from Schedule::sources_of/targets_of,
// and triple-nested buffered-message vectors. Deliberately NOT
// optimized — its value is that test_netsim_parity can diff the
// production engine against it bit for bit across every option
// (jitter, spikes, contention, faults, overlap model, traces).
#include "netsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "netsim/event_queue.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {

namespace {

/// Per-rank execution state inside the event loop.
struct RankState {
  std::size_t stage = 0;        ///< stage currently being executed
  bool entered = false;         ///< has the rank entered the barrier yet
  std::size_t recvs_pending = 0;
  std::size_t sends_pending = 0;  ///< unmatched sends (sync) or 0/1 token (async)
  bool done = false;
};

struct BufferedMessage {
  std::size_t src = 0;
  double injected = 0.0;
  bool ghost = false;  ///< duplicate copy: occupies time, no protocol effect
  bool put = false;    ///< one-sided flag awaiting the receiver's entry
};

class ReferenceSimulation {
 public:
  ReferenceSimulation(const Schedule& schedule, const TopologyProfile& profile,
                      const SimOptions& options)
      : schedule_(schedule),
        profile_(profile),
        options_(options),
        p_(schedule.ranks()),
        rng_(options.seed),
        states_(p_),
        buffered_(schedule.stage_count(),
                  std::vector<std::vector<BufferedMessage>>(p_)) {
    OPTIBAR_REQUIRE(profile_.ranks() == p_, "profile/schedule rank mismatch");
    if (!options_.faults.empty()) {
      injector_.emplace(options_.faults);
    }
    halted_.assign(p_, false);
    OPTIBAR_REQUIRE(options_.jitter >= 0.0, "negative jitter");
    OPTIBAR_REQUIRE(options_.spike_probability >= 0.0 &&
                        options_.spike_probability <= 1.0,
                    "spike_probability outside [0,1]");
    recv_busy_.assign(p_, 0.0);
    if (!options_.egress_resource_of.empty()) {
      OPTIBAR_REQUIRE(options_.egress_resource_of.size() == p_,
                      "egress_resource_of size mismatch");
      std::size_t max_resource = 0;
      for (std::size_t res : options_.egress_resource_of) {
        max_resource = std::max(max_resource, res);
      }
      egress_busy_.assign(max_resource + 1, 0.0);
    }
    result_.completion.assign(p_, 0.0);
    result_.entry.assign(p_, 0.0);
    if (!options_.entry_times.empty()) {
      OPTIBAR_REQUIRE(options_.entry_times.size() == p_,
                      "entry_times size mismatch");
      result_.entry = options_.entry_times;
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
  }

  SimResult run() {
    std::vector<bool> crashed(p_, false);
    for (std::size_t rank : options_.crashed_ranks) {
      OPTIBAR_REQUIRE(rank < p_, "crashed rank " << rank << " out of range");
      crashed[rank] = true;
    }
    for (std::size_t i = 0; i < p_; ++i) {
      // Crash-at-stage-0 is the legacy "died before the call" case.
      if (crashed[i] || crash_stage(i) == 0) {
        halted_[i] = true;
        continue;
      }
      const double t = result_.entry[i];
      queue_.schedule(t, [this, i, t] { enter_barrier(i, t); });
    }
    queue_.run();
    for (std::size_t i = 0; i < p_; ++i) {
      if (states_[i].done) {
        continue;
      }
      // Without injected faults an unfinished rank is an engine bug.
      OPTIBAR_ASSERT(!options_.crashed_ranks.empty() ||
                         !options_.faults.empty(),
                     "rank " << i << " never completed: simulator deadlock");
      result_.deadlocked = true;
      result_.stuck_ranks.push_back(i);
      result_.completion[i] = std::numeric_limits<double>::infinity();
    }
    return std::move(result_);
  }

 private:
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

  void enter_barrier(std::size_t rank, double now) {
    states_[rank].entered = true;
    enter_stage(rank, 0, now);
  }

  void enter_stage(std::size_t rank, std::size_t stage, double now) {
    RankState& st = states_[rank];
    st.stage = stage;
    if (stage == schedule_.stage_count()) {
      st.done = true;
      result_.completion[rank] = now;
      return;
    }
    if (stage >= crash_stage(rank)) {
      // The rank dies on stage entry: nothing of this stage is sent or
      // matched, and inbound messages to the corpse are discarded at
      // on_inject. Synchronized senders to it then stall — the Eq. 3
      // guarantee seen from the failure side.
      halted_[rank] = true;
      return;
    }

    const std::vector<std::size_t> sources = schedule_.sources_of(rank, stage);
    const std::vector<std::size_t> targets = schedule_.targets_of(rank, stage);
    std::size_t put_count = 0;
    for (const std::size_t dst : targets) {
      put_count += schedule_.one_sided(stage, rank, dst) ? 1 : 0;
    }
    st.recvs_pending = sources.size();
    // Synchronized puts are fire-and-forget: the whole put batch is one
    // pending unit that completes at its last injection, never waiting
    // on matches. put_count == 0 reduces to the classic formula exactly.
    st.sends_pending =
        options_.synchronous_sends
            ? targets.size() - put_count + (put_count > 0 ? 1 : 0)
            : (targets.empty() ? 0 : 1);

    // Serial injection: first message pays O, the rest pay L each
    // (exactly the quantity the Section IV-A L benchmark measures).
    // Put edges share these slots, with the local startup O(rank,rank)
    // in place of the rendezvous O(rank,dst).
    double inject = now;
    for (std::size_t idx = 0; idx < targets.size(); ++idx) {
      const std::size_t dst = targets[idx];
      const bool put = schedule_.one_sided(stage, rank, dst);
      const double base = (idx == 0 ? profile_.o(rank, put ? rank : dst)
                                    : profile_.l(rank, dst)) +
                          extra_cost(stage, rank, dst);
      inject += perturb(base);
      if (put) {
        // One-sided edge: the put leaves the NIC here; a putdrop fault
        // loses the flag write in flight (the sender, complete at
        // injection, never learns — only the receiver stalls).
        if (injector_ && injector_->decide_put(rank, dst, stage,
                                               /*seq=*/0)) {
          continue;
        }
        queue_.schedule(inject, [this, rank, dst, stage] {
          on_put_inject(rank, dst, stage, queue_.now());
        });
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
      queue_.schedule(inject, [this, rank, dst, stage] {
        on_inject(rank, dst, stage, queue_.now(), /*ghost=*/false);
      });
      for (std::size_t d = 0; d < fault.duplicates; ++d) {
        // Ghost copy: consumes an extra injection slot and receiver
        // processing, but has no protocol effect.
        inject += perturb(profile_.l(rank, dst) +
                          extra_cost(stage, rank, dst));
        queue_.schedule(inject, [this, rank, dst, stage] {
          on_inject(rank, dst, stage, queue_.now(), /*ghost=*/true);
        });
      }
    }
    if (!options_.synchronous_sends && !targets.empty()) {
      // Async mode: the send side of the stage completes at the last
      // injection, independent of matching.
      queue_.schedule(inject, [this, rank, stage] {
        RankState& sender = states_[rank];
        OPTIBAR_ASSERT(sender.stage == stage, "stale async-send token");
        OPTIBAR_ASSERT(sender.sends_pending == 1, "async token misuse");
        sender.sends_pending = 0;
        maybe_complete_stage(rank, queue_.now());
      });
    }
    if (options_.synchronous_sends && put_count > 0) {
      // The put batch's local completion token (see sends_pending above).
      queue_.schedule(inject, [this, rank, stage] {
        RankState& sender = states_[rank];
        OPTIBAR_ASSERT(sender.stage == stage, "stale put-batch token");
        OPTIBAR_ASSERT(sender.sends_pending > 0, "put token misuse");
        --sender.sends_pending;
        maybe_complete_stage(rank, queue_.now());
      });
    }

    // Messages that arrived before we entered this stage match now.
    for (const BufferedMessage& msg : buffered_[stage][rank]) {
      if (msg.put) {
        // A flag that landed in the window before we got here: visible
        // immediately on stage entry, no completion processing.
        finalize_put(msg.src, rank, stage, now, msg.injected);
      } else {
        match(msg.src, rank, stage, now, msg.injected, msg.ghost);
      }
    }
    buffered_[stage][rank].clear();

    maybe_complete_stage(rank, now);
  }

  void on_inject(std::size_t src, std::size_t dst, std::size_t stage,
                 double now, bool ghost) {
    // Shared-egress contention: a remote-bound message must acquire the
    // sender's egress resource; if busy, retry when it frees up.
    if (!options_.egress_resource_of.empty() &&
        options_.egress_resource_of[src] != options_.egress_resource_of[dst]) {
      const std::size_t resource = options_.egress_resource_of[src];
      if (egress_busy_[resource] > now) {
        queue_.schedule(egress_busy_[resource],
                        [this, src, dst, stage, ghost] {
                          on_inject(src, dst, stage, queue_.now(), ghost);
                        });
        return;
      }
      egress_busy_[resource] =
          now + perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    }
    if (halted_[dst]) {
      return;  // delivered to a corpse: silently discarded
    }
    RankState& receiver = states_[dst];
    if (receiver.entered && receiver.stage == stage) {
      match(src, dst, stage, now, now, ghost);
      return;
    }
    // The receiver cannot be past this stage: completing it requires
    // matching this very message (ghosts carry no such obligation —
    // the real copy already did).
    OPTIBAR_ASSERT(ghost || !receiver.entered || receiver.stage < stage,
                   "receiver " << dst << " advanced past stage " << stage
                               << " with unmatched inbound message");
    if (ghost && receiver.entered && receiver.stage > stage) {
      return;  // stale ghost: the stage is over, nothing left to occupy
    }
    buffered_[stage][dst].push_back(BufferedMessage{src, now, ghost, false});
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
      if (egress_busy_[resource] > now) {
        queue_.schedule(egress_busy_[resource], [this, src, dst, stage] {
          on_put_inject(src, dst, stage, queue_.now());
        });
        return;
      }
      egress_busy_[resource] =
          now + perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    }
    const double injected = now;
    queue_.schedule(now + perturb(profile_.r(src, dst)),
                    [this, src, dst, stage, injected] {
                      on_put_land(src, dst, stage, queue_.now(), injected);
                    });
  }

  /// The flag write became visible in the receiver's window. Unlike a
  /// two-sided arrival there is no completion processing and no sender
  /// to notify — the receiver either observes it now (at stage) or
  /// finds it on stage entry (buffered).
  void on_put_land(std::size_t src, std::size_t dst, std::size_t stage,
                   double now, double injected) {
    if (halted_[dst]) {
      return;  // written into a corpse's window: never observed
    }
    RankState& receiver = states_[dst];
    if (receiver.entered && receiver.stage == stage) {
      finalize_put(src, dst, stage, now, injected);
      return;
    }
    // Completing the stage requires observing this very flag, so the
    // receiver cannot be past it (puts have no ghost copies).
    OPTIBAR_ASSERT(!receiver.entered || receiver.stage < stage,
                   "receiver " << dst << " advanced past stage " << stage
                               << " with an unobserved flag");
    buffered_[stage][dst].push_back(
        BufferedMessage{src, injected, false, true});
  }

  /// The receiver observed a one-sided flag: pure protocol effect —
  /// no receiver CPU time, and no sender decrement (the put completed
  /// locally at injection).
  void finalize_put(std::size_t src, std::size_t dst, std::size_t stage,
                    double now, double injected) {
    if (options_.record_trace) {
      result_.trace.push_back(MessageTrace{stage, src, dst, injected, now});
    }
    RankState& receiver = states_[dst];
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
        std::max(now, recv_busy_[dst]) +
        perturb(profile_.l(src, dst) + extra_cost(stage, src, dst));
    recv_busy_[dst] = done;
    if (ghost) {
      return;
    }
    queue_.schedule(done, [this, src, dst, stage, injected] {
      finalize_match(src, dst, stage, queue_.now(), injected);
    });
  }

  void finalize_match(std::size_t src, std::size_t dst, std::size_t stage,
                      double now, double injected) {
    if (options_.record_trace) {
      result_.trace.push_back(MessageTrace{stage, src, dst, injected, now});
    }
    RankState& receiver = states_[dst];
    OPTIBAR_ASSERT(receiver.recvs_pending > 0,
                   "unexpected message " << src << "->" << dst << " in stage "
                                         << stage);
    --receiver.recvs_pending;
    maybe_complete_stage(dst, now);

    if (options_.synchronous_sends) {
      RankState& sender = states_[src];
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
    const double entry = result_.entry[rank];
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
    RankState& st = states_[rank];
    if (st.done || st.recvs_pending > 0 || st.sends_pending > 0) {
      return;
    }
    const double at = progress_time(rank, now);
    if (at > now) {
      // Host-driven progress: the prerequisites are in, but the rank is
      // computing and only notices at its next handle poll. Nothing can
      // re-trigger this stage meanwhile (both pending counts are zero),
      // so exactly one deferred transition is ever scheduled.
      queue_.schedule(at, [this, rank] {
        enter_stage(rank, states_[rank].stage + 1, queue_.now());
      });
      return;
    }
    enter_stage(rank, st.stage + 1, now);
  }

  const Schedule& schedule_;
  const TopologyProfile& profile_;
  const SimOptions& options_;
  std::size_t p_;
  Rng rng_;
  EventQueue queue_;
  std::optional<FaultInjector> injector_;
  std::vector<bool> halted_;  ///< crashed (at stage 0 or later)
  std::vector<RankState> states_;
  std::vector<double> recv_busy_;
  std::vector<double> egress_busy_;
  std::vector<std::vector<std::vector<BufferedMessage>>> buffered_;
  SimResult result_;
};

}  // namespace

SimResult simulate_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const SimOptions& options) {
  return ReferenceSimulation(schedule, profile, options).run();
}

}  // namespace optibar
