// Rank-thread runtime.
//
// run_ranks gives each rank a RankContext bound to a shared
// Communicator and runs the rank function once per rank, propagating
// the first exception thrown by any rank. Two execution vehicles share
// that contract:
//
//   run_ranks(comm, fn)        — spawn one thread per rank, join them
//                                (the in-process analogue of mpirun
//                                over the paper's affinity-pinned
//                                processes);
//   run_ranks(pool, comm, fn)  — dispatch one generation of a
//                                persistent RankPool (rank_pool.hpp),
//                                paying no thread creation per episode.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "simmpi/communicator.hpp"
#include "simmpi/rank_pool.hpp"

namespace optibar::simmpi {

/// Per-rank view handed to the rank function: carries the rank id and
/// forwards to the shared communicator.
class RankContext {
 public:
  RankContext(Communicator& comm, std::size_t rank)
      : comm_(&comm), rank_(rank) {}

  std::size_t rank() const { return rank_; }
  std::size_t size() const { return comm_->size(); }

  Request issend(std::size_t dst, int tag) {
    return comm_->issend(rank_, dst, tag);
  }
  Request issend(std::size_t dst, int tag, Payload payload) {
    return comm_->issend(rank_, dst, tag, std::move(payload));
  }
  Request irecv(std::size_t src, int tag) {
    return comm_->irecv(src, rank_, tag);
  }
  Request irecv(std::size_t src, int tag, Payload* sink,
                std::shared_ptr<void> keepalive = nullptr) {
    return comm_->irecv(src, rank_, tag, sink, std::move(keepalive));
  }
  static void wait_all(std::span<const Request> requests) {
    Communicator::wait_all(requests);
  }

  /// One-sided flag store into `dst`'s window (fire-and-forget;
  /// Communicator::rma_put). `stage` feeds fault-plan matching.
  void rma_put(std::size_t dst, std::size_t word, std::uint64_t value,
               std::size_t stage) {
    comm_->rma_put(rank_, dst, word, value, stage);
  }

  /// Nonblocking probe of this rank's own window word.
  bool rma_test(std::size_t word, std::uint64_t expected) const {
    return comm_->rma_test(rank_, word, expected);
  }

  /// Combined bounded wait of a mixed-transport stage: this rank's
  /// requests plus awaited flags in its own window
  /// (Communicator::wait_stage_on_until).
  bool wait_stage_until(std::span<const Request> requests,
                        std::span<const Communicator::FlagWait> flags,
                        Clock::time_point deadline) const {
    return comm_->wait_stage_on_until(rank_, requests, flags, deadline);
  }

  Communicator& communicator() { return *comm_; }

 private:
  Communicator* comm_;
  std::size_t rank_;
};

using RankFunction = std::function<void(RankContext&)>;

/// Run `fn` once per rank on `comm.size()` fresh threads. Blocks until
/// all ranks return; rethrows the first rank exception after joining
/// all threads (so no thread is leaked on failure).
void run_ranks(Communicator& comm, const RankFunction& fn);

/// Run `fn` once per rank as one generation of `pool` (no thread
/// creation). Requires pool.size() >= comm.size(); workers beyond the
/// communicator width stay parked. Same completion and exception
/// contract as the spawning overload.
void run_ranks(RankPool& pool, Communicator& comm, const RankFunction& fn);

/// Convenience: build a communicator of `ranks` ranks with the given
/// latency model and run `fn`.
void run_ranks(std::size_t ranks, const RankFunction& fn,
               LatencyModel latency = uniform_latency());

}  // namespace optibar::simmpi
