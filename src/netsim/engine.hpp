// Discrete-event execution of barrier schedules.
//
// This engine stands in for "measured execution time" on the paper's
// physical clusters. It executes a Schedule message by message against a
// ground-truth TopologyProfile, with a *finer* model than the Eq. 1/2
// predictor uses — which is precisely why predicted and measured curves
// differ in Figures 5-8 while sharing their shape:
//
//   - a sender's messages within a stage are injected serially (NIC
//     occupancy): the first at start + O(i,j0), each subsequent one L
//     later, mirroring what the L benchmark of Section IV-A measures;
//   - synchronized-send semantics (MPI_Issend, Section III): a message
//     only *matches* once the receiver has entered the stage, and the
//     sender's stage does not complete until all its sends have matched;
//   - optional multiplicative per-message noise and rare background-load
//     spikes (the paper ran under per-node-exclusive but otherwise shared
//     conditions, Section IV-B);
//   - one-sided (RMA put) edges, where the schedule tags them
//     (Signal::one_sided): the put shares the sender's serial
//     injection and egress slots like any signal, but its startup is the
//     local O(i,i) and it lands as a remote flag write R(src,dst) after
//     clearing the NIC — no receiver-side completion processing, and in
//     synchronized mode the whole put batch completes locally at its
//     last injection (fire-and-forget) instead of waiting for matches.
//     Untagged schedules take the two-sided paths untouched, RNG stream
//     included.
//
// Execution is event-driven over virtual time and fully deterministic
// for a fixed seed.
//
// Two implementations share this contract bit for bit:
//
//   simulate()           — the production engine: binary min-heap
//                          scheduler over typed SimEvents
//                          (event_heap.hpp), CompiledSchedule CSR
//                          adjacency spans instead of per-stage
//                          sources_of/targets_of vectors, and all
//                          mutable state in a reusable SimWorkspace,
//                          so steady-state simulation performs zero
//                          heap allocations (the PredictWorkspace
//                          discipline of compiled_schedule.hpp).
//   simulate_reference() — the original closure-over-priority-queue
//                          engine, kept verbatim as the parity oracle
//                          (the predict_reference pattern). Every
//                          result — completion vectors, traces, stall
//                          diagnostics, RNG streams — is bit-identical
//                          between the two (test_netsim_parity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "barrier/compiled_schedule.hpp"
#include "barrier/schedule.hpp"
#include "netsim/event_heap.hpp"
#include "profile/tiled_profile.hpp"
#include "simmpi/fault.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "topology/profile.hpp"

namespace optibar {

class ThreadPool;  // util/thread_pool.hpp

struct SimOptions {
  /// Synchronized-send coupling (MPI_Issend). Disable to model eager
  /// fire-and-forget sends.
  bool synchronous_sends = true;

  /// Serial receive-completion processing: each incoming message
  /// occupies the receiver for its marginal latency L(src,dst) after
  /// arrival (see cost_model.hpp for why both engines model this).
  /// Disable for a free-receive model (bench_ablation_model).
  bool receiver_processing = true;

  /// Relative standard deviation of per-message multiplicative jitter on
  /// each O/L contribution; 0 disables noise entirely.
  double jitter = 0.0;

  /// Probability that a message hits a background-load spike, and the
  /// spike magnitude as a multiple of the message's base cost.
  double spike_probability = 0.0;
  double spike_scale = 10.0;

  /// Per-rank barrier entry times (seconds); empty = all enter at 0.
  /// Used for the paper's delay-injection correctness check (Section VI).
  std::vector<double> entry_times;

  /// Optional shared-egress contention (one of the "terms for further
  /// phenomena" Section VI-A says would be needed for absolute
  /// accuracy): egress_resource_of[rank] assigns each rank an egress
  /// resource, typically its node's NIC. A message whose endpoints sit
  /// on different resources occupies the sender's resource for its
  /// marginal latency, so concurrent remote messages from co-located
  /// ranks serialize — this is what punishes high-fan-out algorithms
  /// (dissemination) on commodity GbE nodes. Empty disables.
  std::vector<std::size_t> egress_resource_of;

  /// Optional extra per-message cost in seconds, added to the message's
  /// base cost wherever the engine charges it (serial injection, shared
  /// egress occupancy, receiver processing) and perturbed together with
  /// it. The collective layer uses this to price payload bytes
  /// (bytes * G(src,dst)); null leaves the pure signalling model — and
  /// the RNG stream — bit-identical.
  std::function<double(std::size_t stage, std::size_t src, std::size_t dst)>
      extra_message_cost;

  /// Nonblocking-progress (MPI_Ibarrier) model: after entering the
  /// barrier — which now models *posting* the handle —
  /// rank r computes for compute_after_post[r] seconds of application
  /// work and only drives barrier progress when it polls the handle,
  /// every progress_poll_interval seconds since its entry. A stage
  /// transition whose prerequisites complete inside the compute window
  /// is deferred to the rank's next poll tick (host-driven progress:
  /// nothing advances while the host is not in the library); once the
  /// window ends the rank blocks in wait() and transitions are
  /// immediate again. Leaving compute_after_post empty or the poll
  /// interval at 0 disables the model and keeps every result — and the
  /// RNG stream — bit-identical to the blocking engine.
  std::vector<double> compute_after_post;
  double progress_poll_interval = 0.0;

  /// Record a per-message trace (inject/match times) for diagnostics.
  bool record_trace = false;

  /// Failure injection: these ranks never enter the barrier (process
  /// death before the call). A correct barrier must then deadlock — no
  /// surviving rank may exit (that is the Eq. 3 guarantee seen from the
  /// failure side). The engine reports the stuck ranks instead of
  /// treating the hang as an internal error.
  std::vector<std::size_t> crashed_ranks;

  /// The shared fault model (simmpi/fault.hpp), interpreted on virtual
  /// time: drop rules lose the message after injection (a synchronized
  /// sender then never completes the stage), duplicate rules deliver an
  /// occupancy-only ghost copy (extra NIC and receiver-processing time,
  /// no protocol effect), delay rules push the injection later, and
  /// crash rules halt a rank on entering the given stage — crash at
  /// stage 0 is exactly the legacy crashed_ranks semantics, and putdrop
  /// rules lose a one-sided flag write after injection (the receiver
  /// waits forever; the sender, complete at injection, never learns).
  /// Rule tags are matched against the stage index. An empty plan
  /// leaves the RNG stream — and thus every result — bit-identical.
  FaultPlan faults;

  std::uint64_t seed = 1;
};

/// One recorded message (record_trace only).
struct MessageTrace {
  std::size_t stage = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  double injected = 0.0;  ///< when the message left the sender
  double matched = 0.0;   ///< when the receiver matched it
};

struct SimResult {
  /// Virtual time at which each rank left the barrier; infinity for
  /// ranks that never completed (crash-injection runs).
  std::vector<double> completion;
  /// Entry time of each rank (copy of options or zeros).
  std::vector<double> entry;
  std::vector<MessageTrace> trace;

  /// True when at least one rank never left the barrier (only possible
  /// with fault injection — crashed_ranks or a non-empty SimOptions
  /// fault plan; anything else is an engine invariant error).
  bool deadlocked = false;
  /// The ranks that never completed, ascending (crashed ranks plus
  /// everyone transitively blocked on them).
  std::vector<std::size_t> stuck_ranks;

  /// The measured barrier cost: latest exit minus latest entry — the
  /// span during which at least one rank is blocked purely by the
  /// barrier's signalling. Throws when the run deadlocked.
  double barrier_time() const;
  /// Latest exit time. Throws when the run deadlocked.
  double completion_time() const;
};

/// Reusable simulation state: the compiled adjacency, the event heap
/// (event slab + (time, seq) heap), dense per-rank state, and the
/// buffered-message pool. One workspace per thread; every member is
/// reset with capacity kept, so repeated simulate_into calls are
/// allocation-free once the largest (ranks, stages, events) shape has
/// been seen. The contents between calls are meaningless — only the
/// capacities carry over.
struct SimWorkspace {
  /// Marks an empty buffered-message chain / free pool slot.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Per-rank protocol state (dense array, one slot per rank).
  struct RankState {
    std::uint32_t stage = 0;
    std::uint8_t entered = 0;
    std::uint8_t done = 0;
    std::uint32_t recvs_pending = 0;
    std::uint32_t sends_pending = 0;
  };

  CompiledSchedule compiled;  ///< rebound by simulate_into (grow-only)
  EventHeap queue;

  std::vector<RankState> states;
  std::vector<std::uint8_t> halted;   ///< crashed (at stage 0 or later)
  std::vector<std::uint8_t> crashed;  ///< pre-entry crash scratch
  std::vector<double> recv_busy;
  std::vector<double> egress_busy;

  // Buffered-message pool: struct-of-arrays slab, bump-allocated per
  // run, threaded into one FIFO chain per receiving row. Entry r of
  // buf_head/buf_tail is the compiled schedule's row r (the receiver's
  // row in the message's stage); buf_next links nodes in arrival order
  // (the order stage entry must drain them in).
  std::vector<std::uint32_t> buf_head;
  std::vector<std::uint32_t> buf_tail;
  std::vector<std::uint32_t> buf_src;
  std::vector<double> buf_injected;
  std::vector<std::uint8_t> buf_ghost;
  std::vector<std::uint8_t> buf_put;  ///< 1 = buffered one-sided flag
  std::vector<std::uint32_t> buf_next;
};

/// Execute `schedule` once. Requires schedule.is_barrier() callers can
/// check separately; the engine itself only requires well-formed stages.
SimResult simulate(const Schedule& schedule, const TopologyProfile& profile,
                   const SimOptions& options = {});

/// The original engine (std::function events on a binary-heap
/// EventQueue, per-stage adjacency vectors), kept as the bit-identical
/// oracle for simulate(). Cold path: use only for parity testing and
/// as the baseline of bench_netsim.
SimResult simulate_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const SimOptions& options = {});

/// simulate() into caller-owned storage: compiles `schedule` into
/// `workspace.compiled` (grow-only) and writes the result into `out`,
/// reusing both. Zero allocations once workspace and out are warm.
void simulate_into(const Schedule& schedule, const TopologyProfile& profile,
                   const SimOptions& options, SimWorkspace& workspace,
                   SimResult& out);

/// Innermost entry point: run against an already-compiled schedule
/// (compile once, simulate many — what every repetition loop below
/// does). `compiled` must have been built against a profile with the
/// same rank count.
void simulate_compiled_into(const CompiledSchedule& compiled,
                            const TopologyProfile& profile,
                            const SimOptions& options,
                            SimWorkspace& workspace, SimResult& out);

/// Same, but reading per-message costs straight from a tiled profile —
/// the engine is templated over the cost source internally, so at
/// 10k ranks no dense O/L/R matrices ever exist. Bit-identical to the
/// dense overload when the tiled accessors agree with a dense profile.
void simulate_compiled_into(const CompiledSchedule& compiled,
                            const TiledProfile& profile,
                            const SimOptions& options,
                            SimWorkspace& workspace, SimResult& out);

/// Mean barrier_time over `repetitions` runs with derived seeds — the
/// netsim analogue of the paper's 25-repetition means. Repetitions are
/// independent (each derives its own seed from `options.seed` and the
/// repetition index) and fan out across `pool` when one is given; the
/// per-rep results are accumulated in repetition order, so the mean is
/// bit-identical at any pool width, including none.
double simulate_mean_time(const Schedule& schedule,
                          const TopologyProfile& profile,
                          const SimOptions& options, std::size_t repetitions,
                          ThreadPool* pool = nullptr);

/// Build the egress resource map "one NIC per node" for a placement:
/// resource_of[rank] = node hosting the rank.
std::vector<std::size_t> node_egress_resources(const MachineSpec& machine,
                                               const Mapping& mapping);

/// A bulk-synchronous workload: `episodes` rounds of (per-rank compute,
/// barrier). Compute times draw from a normal distribution truncated at
/// zero — the skew between ranks is what the barrier absorbs, and what
/// makes repeated-barrier cost differ from the all-enter-at-once case.
struct WorkloadOptions {
  std::size_t episodes = 10;
  double compute_mean = 1e-4;    ///< seconds of compute per rank per round
  double compute_stddev = 1e-5;  ///< per-rank, per-round skew
  SimOptions sim;                ///< engine options for every episode
};

struct WorkloadResult {
  /// Barrier span (latest exit - latest entry) of each episode.
  std::vector<double> episode_barrier_times;
  /// Per-rank wait: barrier exit minus own entry, accumulated over all
  /// episodes — the synchronization overhead an application perceives.
  std::vector<double> rank_wait_total;
  /// Virtual time at which the whole workload finished.
  double makespan = 0.0;

  double mean_barrier_time() const;
  double total_wait() const;
};

/// Simulate the bulk-synchronous workload: episode e's entry times are
/// episode e-1's completions plus fresh compute draws.
WorkloadResult simulate_workload(const Schedule& schedule,
                                 const TopologyProfile& profile,
                                 const WorkloadOptions& options = {});

/// The overlap workload family: one episode of per-rank compute
/// interleaved with barrier progress, run twice — blocking (all compute
/// before the barrier call) and nonblocking (a fraction of the compute
/// placed *after* the post, with handle polls every poll_interval) —
/// so the two completion times isolate what communication/computation
/// overlap buys on a given schedule and topology.
struct OverlapOptions {
  /// Total application compute per rank per episode (seconds), and the
  /// per-rank skew (normal draw truncated at zero, like the workload).
  double compute_seconds = 1e-3;
  double compute_stddev = 0.0;

  /// Fraction of each rank's compute placed after the post, in [0,1]:
  /// 0 degenerates to the blocking run, 1 posts immediately and
  /// overlaps everything.
  double overlap_ratio = 1.0;

  /// How often a computing rank polls its handle (seconds); barrier
  /// progress during the compute window happens only at these ticks.
  double poll_interval = 5e-5;

  /// Base engine options (seed, jitter, faults...). entry_times,
  /// compute_after_post, and progress_poll_interval must be left
  /// empty/zero — the overlap runner owns them.
  SimOptions sim;
};

struct OverlapResult {
  /// Latest exit over ranks of the blocking run (compute, then barrier).
  double blocking_completion = 0.0;
  /// Latest exit of the nonblocking run (post, compute, wait).
  double nonblocking_completion = 0.0;
  /// Worst exposed wait of the nonblocking run: completion minus end of
  /// own compute window, maxed over ranks — the barrier cost the
  /// application still perceives after overlap.
  double exposed_wait = 0.0;
  /// blocking_completion - nonblocking_completion (can be slightly
  /// negative when poll latency outweighs the overlappable span).
  double saved = 0.0;
  /// saved / blocking barrier span, clamped to [0,1]: the fraction of
  /// the barrier the overlap hid.
  double overlap_efficiency = 0.0;
};

/// One overlap episode (both runs share the per-rank compute draws and
/// the engine seed, so the comparison is paired). Deterministic for a
/// fixed seed.
OverlapResult simulate_overlap(const Schedule& schedule,
                               const TopologyProfile& profile,
                               const OverlapOptions& options = {});

/// Mean over `repetitions` paired overlap episodes; rep 0 uses the
/// options verbatim (one rep equals simulate_overlap), later reps
/// derive fresh seeds. Reps fan out across `pool` into index-owned
/// slots — pool width never changes the result.
OverlapResult simulate_overlap_mean(const Schedule& schedule,
                                    const TopologyProfile& profile,
                                    const OverlapOptions& options,
                                    std::size_t repetitions,
                                    ThreadPool* pool = nullptr);

/// `repetitions` independent workload runs. Rep 0 uses the options
/// verbatim (so element 0 equals simulate_workload); each later rep
/// derives a fresh seed from `options.sim.seed` and its index. Reps
/// fan out across `pool` when one is given and land in index-owned
/// slots, so the result vector is invariant to pool width — the
/// thread-count-invariance contract of every seeded mean in this
/// engine.
std::vector<WorkloadResult> simulate_workload_reps(
    const Schedule& schedule, const TopologyProfile& profile,
    const WorkloadOptions& options, std::size_t repetitions,
    ThreadPool* pool = nullptr);

}  // namespace optibar
