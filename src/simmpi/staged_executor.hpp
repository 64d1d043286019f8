// The staged-edge executor core: the one interpreter behind
// ScheduleExecutor (barriers) and CollectiveExecutor (collectives).
//
// Section VI's interpreter is one loop: each rank walks the stages,
// issues the stage's signals and awaits them. A barrier is a
// zero-payload collective (from_barrier), so one loop serves both. Per
// rank and stage the core holds one outgoing and one incoming edge
// list. An edge names its peer, the payload sub-range it carries
// (count 0: a pure signal that moves no words) and its transport: a
// synchronized issend/irecv pair, or a one-sided put of a flag word
// into the receiver's window (src/rma/layout.hpp slot layout,
// double-buffered so back-to-back episodes need no reset barrier).
// The constructor numbers each rank's one-sided in-edges in (stage,
// source) order and stamps that ordinal on both ends of the edge as
// its window slot, so the window holds 2 x the largest one-sided
// in-degree words per rank. The views translate their schedules into
// this table and forward.
//
// Execution is handle-based (the MPI_Ibarrier / MPI_Iallreduce
// lifecycle):
//
//   EpisodeHandle h = core.post(ctx, episode);  // issue stage 0
//   while (!core.test(h)) { compute(); }        // poll, overlap compute
//   // or: core.wait(h);                        // finish in slices
//
// Stage issue posts sends, then puts, then recvs. Outgoing words are
// copied out of the buffer at stage entry, before anything of the stage
// lands (the snapshot rule); received words are applied in ascending
// source order once the whole stage completed, so a valid collective is
// bit-exact against execute_serial(). wait() parks on the rank's shard
// condvar in bounded progress slices (ExecutorOptions::progress_slice);
// a loop of slices consumes the same matches as one unbounded park, so
// execute() is literally wait(post()).
//
// The resilient lifecycle (resilience.hpp) runs the same stages with
// per-stage deadlines charged by elapsed progress time, bounded resends
// of unacked Issends (re-read from the buffer, which is untouched until
// the stage completes), crash faults, and a StallReport instead of a
// hang.
//
// Tags are episode * stages + stage, so repeated episodes cannot
// cross-match; post() rejects an episode whose tags would overflow int.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simmpi/executor_options.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/resilience.hpp"
#include "simmpi/runtime.hpp"

namespace optibar::simmpi {

/// One edge of one rank's stage, seen from that rank.
struct StagedEdge {
  std::size_t peer = 0;    ///< destination (outgoing) or source (incoming)
  std::size_t offset = 0;  ///< first buffer word of the carried sub-range
  std::size_t count = 0;   ///< words carried; 0 = pure signal
  bool combine = false;    ///< incoming: reduce into the buffer, else overwrite
  bool put = false;        ///< one-sided flag put instead of issend/irecv
  /// Put edges: the receiver's window slot, its ordinal among its
  /// one-sided in-edges in (stage, source) order. Set by the executor.
  std::size_t slot = 0;
};

/// One rank's stage.
struct StageEdges {
  std::vector<StagedEdge> out;  ///< issue order within each transport
  std::vector<StagedEdge> in;   ///< ascending source: the apply order
};

class StagedExecutor {
 public:
  /// table[rank][stage].
  using Table = std::vector<std::vector<StageEdges>>;

  /// One in-flight episode of one rank. Move-only and pointer-sized: the
  /// handle owns one allocation, made by post(), that holds the rank's
  /// in-flight state — the current stage's requests, awaited flags and
  /// payload inbox, sized once from the rank's largest stage — and frees
  /// it when the episode finishes. A buffer passed to post() is
  /// transformed in place and must stay alive (at a stable address)
  /// until the episode is done.
  class EpisodeHandle {
   public:
    EpisodeHandle() = default;
    EpisodeHandle(EpisodeHandle&& other) noexcept
        : state_(std::exchange(other.state_, 0)) {}
    EpisodeHandle& operator=(EpisodeHandle&& other) noexcept {
      if (this != &other) {
        release();
        state_ = std::exchange(other.state_, 0);
      }
      return *this;
    }
    EpisodeHandle(const EpisodeHandle&) = delete;
    EpisodeHandle& operator=(const EpisodeHandle&) = delete;
    ~EpisodeHandle() { release(); }

    /// True once every stage completed.
    bool done() const { return state_ == kFinished; }

   private:
    friend class StagedExecutor;
    struct State;
    static constexpr std::uintptr_t kFinished = 1;

    State* state() const { return reinterpret_cast<State*>(state_); }
    /// Free the in-flight state, if any; the handle keeps its done flag.
    void release();

    /// 0: empty (never posted); kFinished: done, nothing owned;
    /// otherwise the address of the in-flight State.
    std::uintptr_t state_ = 0;
  };

  /// One in-flight bounded-wait episode. Deadlines are charged by
  /// *elapsed progress time*: only the time spent inside test()/wait()
  /// counts against the stage budget, so a rank that computes between
  /// polls does not burn its deadline. Driven by the blocking wait(),
  /// progress time equals wall time.
  class ResilientEpisodeHandle {
   public:
    ResilientEpisodeHandle() = default;
    ResilientEpisodeHandle(ResilientEpisodeHandle&&) = default;
    ResilientEpisodeHandle& operator=(ResilientEpisodeHandle&&) = default;
    ResilientEpisodeHandle(const ResilientEpisodeHandle&) = delete;
    ResilientEpisodeHandle& operator=(const ResilientEpisodeHandle&) = delete;

    /// True once the episode reached a terminal state (completed,
    /// crashed, or gave up).
    bool done() const { return done_ || failed_; }
    /// True when the episode completed every stage.
    bool succeeded() const { return done_; }
    /// True when the episode crashed or exhausted its retries; the
    /// rank's row of the report records where and on whom.
    bool stalled() const { return failed_; }

   private:
    friend class StagedExecutor;
    /// A send may have several in-flight attempts (resends); it is
    /// complete when any attempt matched.
    struct SendOp {
      const StagedEdge* edge;
      std::vector<Request> attempts;
      bool done = false;
    };
    struct RecvOp {
      std::size_t src;
      Request request;
      bool done = false;
    };
    /// An awaited one-sided flag. Nothing to retry: the *sender*
    /// completed at issue and never learns of a drop, so on exhaustion
    /// the receiver reports pending_put_from.
    struct FlagOp {
      std::size_t src;
      std::size_t word;
      bool done = false;
    };

    RankContext* ctx_ = nullptr;
    StallReport* report_ = nullptr;  ///< caller-owned, must outlive handle
    ResilienceOptions options_;
    Payload* buffer_ = nullptr;
    ReduceOp op_ = ReduceOp::kSum;
    int episode_ = 0;
    std::size_t crash_at_ = 0;
    std::size_t stage_ = 0;
    std::vector<SendOp> sends_;
    std::vector<RecvOp> recvs_;
    std::vector<FlagOp> flags_;
    /// Shared with the communicator (keepalive): a late sender can still
    /// deliver into storage that outlives a given-up receive. Null on
    /// signal-only stages.
    std::shared_ptr<std::vector<Payload>> inbox_;
    std::size_t rma_base_ = 0;
    std::size_t attempt_ = 0;
    Clock::duration budget_{};    ///< current attempt's deadline budget
    Clock::duration consumed_{};  ///< progress time charged so far
    bool done_ = false;
    bool failed_ = false;
  };

  /// `table` holds `stages` StageEdges per rank, each incoming list in
  /// ascending source order; post() requires a buffer of `elem_count`
  /// words (none when 0). Put edges get their window slots here, and
  /// options.validate() runs here. With ExecutionMode::kPersistentPool
  /// (and no shared_pool) the core owns a RankPool of ranks() parked
  /// workers; with options.shared_pool set, episodes dispatch on that
  /// pool.
  StagedExecutor(Table table, std::size_t stages, std::size_t elem_count,
                 const ExecutorOptions& options);

  std::size_t ranks() const { return table_.size(); }
  std::size_t stage_count() const { return stages_; }
  const ExecutorOptions& options() const { return options_; }
  /// The edge table, with window slots stamped.
  const Table& table() const { return table_; }

  /// Issue stage 0 of one episode and return without waiting.
  /// `episode` distinguishes repeated invocations in the tag space.
  EpisodeHandle post(RankContext& ctx, int episode, Payload* buffer = nullptr,
                     ReduceOp op = ReduceOp::kSum) const;

  /// Nonblocking probe: advance through every stage whose requests and
  /// flags all completed; returns whether the episode is done.
  bool test(EpisodeHandle& handle) const;

  /// Drive the episode to completion in bounded progress slices.
  void wait(EpisodeHandle& handle) const;

  /// Exactly wait(post(...)).
  void execute(RankContext& ctx, int episode, Payload* buffer = nullptr,
               ReduceOp op = ReduceOp::kSum) const;

  /// Post one bounded-wait episode. `report` must have been
  /// reset(ranks(), stage_count()) and outlive the handle; each rank
  /// writes only its own row, so rank threads may share one report.
  ResilientEpisodeHandle post_resilient(RankContext& ctx,
                                        const ResilienceOptions& options,
                                        StallReport& report, int episode,
                                        Payload* buffer = nullptr,
                                        ReduceOp op = ReduceOp::kSum) const;

  /// One zero-width progress slice; returns handle.done().
  bool test(ResilientEpisodeHandle& handle) const;

  /// Drive to a terminal state; true when every stage completed.
  bool wait(ResilientEpisodeHandle& handle) const;

  /// Exactly wait(post_resilient(...)).
  bool execute_resilient(RankContext& ctx, const ResilienceOptions& options,
                         StallReport& report, int episode,
                         Payload* buffer = nullptr,
                         ReduceOp op = ReduceOp::kSum) const;

  /// One episode (number 0) across all ranks of a fresh communicator.
  /// `buffers` (ranks() of them, or null when elem_count is 0) are
  /// transformed in place. Each rank first sleeps its entry delay, if
  /// any; returns each rank's exit time relative to the common start.
  std::vector<std::chrono::nanoseconds> run_once(
      LatencyModel latency, ByteLatencyModel byte_latency,
      std::vector<Payload>* buffers, ReduceOp op,
      const std::vector<std::chrono::nanoseconds>& entry_delays = {}) const;

  /// One bounded-wait episode across all ranks of a fresh communicator
  /// with `faults` attached; returns the finalized report. Never hangs
  /// and never leaks rank threads. Stalled ranks keep their buffers at
  /// the last completed stage.
  StallReport run_once_resilient(const ResilienceOptions& options,
                                 const FaultPlan& faults, LatencyModel latency,
                                 ByteLatencyModel byte_latency,
                                 std::vector<Payload>* buffers,
                                 ReduceOp op) const;

 private:
  void check_context(const RankContext& ctx, const Payload* buffer) const;
  void check_episode(int episode) const;
  int tag(int episode, std::size_t stage) const;

  // Lazily attach this executor's window region on ctx's communicator
  // (memoized per communicator, keyed on `this`) and return its base.
  // Only on executors with one-sided edges, whose episodes must then be
  // distinct and non-negative (the epoch double-buffering contract).
  std::size_t rma_base(RankContext& ctx, int episode) const;
  // Window word (region `base`) of put edge `edge`'s flag.
  std::size_t flag_word(std::size_t base, int episode,
                        const StagedEdge& edge) const;
  // Issue the stage's one-sided flag puts.
  void issue_puts(RankContext& ctx, const StageEdges& edges,
                  std::size_t stage, int episode, std::size_t base) const;

  // Spawn threads or dispatch a pool generation, per the options.
  void run_episode(Communicator& comm, const RankFunction& fn) const;

  // Issue stage `stage` into the handle, or mark it done past the last.
  void begin_stage(EpisodeHandle& handle, std::size_t stage) const;
  // Same for a resilient episode: honour crash faults, arm the budget.
  void begin_stage_resilient(ResilientEpisodeHandle& handle,
                             std::size_t stage) const;
  // The current stage completed: apply its received words, then issue
  // the next stage.
  void advance(EpisodeHandle& handle) const;
  // One bounded progress slice of a resilient episode: wait the stage
  // against min(slice, remaining budget), charge the elapsed time, then
  // advance / retry / give up.
  void progress_resilient(ResilientEpisodeHandle& handle,
                          Clock::duration slice) const;

  /// The most any stage of one rank posts: requests (two-sided sends
  /// plus receives), awaited flags, and inbox slots (payload executors).
  struct RankCapacity {
    std::size_t requests = 0;
    std::size_t flags = 0;
    std::size_t inbox = 0;
  };

  Table table_;
  std::vector<RankCapacity> capacity_;  ///< per rank, sizes post()'s state
  std::size_t stages_ = 0;
  std::size_t elem_count_ = 0;
  ExecutorOptions options_;
  /// Window slots per rank: the largest one-sided in-degree (0: no
  /// put edge anywhere, no window).
  std::size_t window_slots_ = 0;
  std::unique_ptr<RankPool> pool_;  ///< owned kPersistentPool only
};

}  // namespace optibar::simmpi
