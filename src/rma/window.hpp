// Window: the public one-sided RMA surface over a simmpi Communicator.
//
// A Window is the simmpi analogue of an MPI_Win: a symmetric region of
// `slots` flag words per rank (double-buffered internally, so the
// backing allocation is 2 * slots words), with fire-and-forget put,
// round-trip fetch_add / compare_and_swap, nonblocking test and a
// bounded park-until-arrived wait. The storage itself lives on the
// Communicator's sharded RMA board (communicator.hpp) — the Window
// only owns the slot arithmetic (src/rma/layout.hpp) and the epoch
// double-buffering contract:
//
//   * episode e uses buffer parity e % 2 and writes flag_value(e)
//     = e + 1;
//   * back-to-back episodes need no reset barrier — see layout.hpp for
//     the distance-2 argument;
//   * a slot may be awaited by exactly one rank (its owner); any rank
//     may put into it. Puts to the same slot in the same episode
//     follow last-put-wins (barrier schedules never do this: the
//     executors use the receiver's in-edge ordinal as the slot, so
//     each slot belongs to one (stage, source) put edge).
//
// Executors do not link this library — they drive the Communicator
// board directly through layout.hpp — so Window exists for tests,
// benches and library users that want one-sided signalling without
// hand-rolling indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rma/layout.hpp"
#include "simmpi/communicator.hpp"

namespace optibar::rma {

class Window {
 public:
  /// Allocate a fresh double-buffered region of `slots` words per rank
  /// on `comm`'s RMA board. `comm` must outlive the Window.
  Window(simmpi::Communicator& comm, std::size_t slots);

  /// Attach to (or first-create) the shared region identified by
  /// `key` — the memoized form executors use so several Windows over
  /// one communicator can address the same flags.
  Window(simmpi::Communicator& comm, std::uintptr_t key, std::size_t slots);

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  std::size_t slots() const { return slots_; }
  std::size_t base() const { return base_; }

  /// Absolute board index of `slot` in `episode`'s epoch buffer.
  std::size_t word_of(std::size_t episode, std::size_t slot) const {
    return base_ + word_index(episode, slot, slots_);
  }

  /// The flag value episode `episode` signals with (layout.hpp).
  static std::uint64_t flag_value(std::size_t episode);

  /// Fire-and-forget: store episode `episode`'s flag into `dst`'s copy
  /// of `slot`. `stage` feeds fault-plan putdrop matching.
  void put(std::size_t src, std::size_t dst, std::size_t episode,
           std::size_t slot, std::size_t stage = 0);

  /// Fire-and-forget raw store (collectives and tests that carry a
  /// value instead of an episode flag).
  void put_value(std::size_t src, std::size_t dst, std::size_t episode,
                 std::size_t slot, std::uint64_t value, std::size_t stage = 0);

  /// Round-trip atomics on `dst`'s copy of `slot` (never dropped).
  std::uint64_t fetch_add(std::size_t caller, std::size_t dst,
                          std::size_t episode, std::size_t slot,
                          std::uint64_t delta);
  std::uint64_t compare_and_swap(std::size_t caller, std::size_t dst,
                                 std::size_t episode, std::size_t slot,
                                 std::uint64_t expected, std::uint64_t desired);

  /// Last arrived value of the caller's own copy of `slot` (ignores
  /// delivery latency — diagnostics; poll with test()).
  std::uint64_t read(std::size_t rank, std::size_t episode,
                     std::size_t slot) const;

  /// True once `rank`'s copy of `slot` visibly holds episode
  /// `episode`'s flag (delivery latency elapsed).
  bool test(std::size_t rank, std::size_t episode, std::size_t slot) const;

  /// The FlagWait a bounded stage wait passes to
  /// Communicator::wait_stage_on_until for this slot.
  simmpi::Communicator::FlagWait wait_for(std::size_t episode,
                                          std::size_t slot) const {
    return {word_of(episode, slot), flag_value(episode)};
  }

  /// Bounded park until every slot in `slots` holds episode
  /// `episode`'s flag at `rank`, or `deadline` (false: some flag never
  /// arrived — e.g. a dropped put). Delivery latency is slept out on
  /// success.
  bool wait(std::size_t rank, std::size_t episode,
            std::span<const std::size_t> slots,
            simmpi::Clock::time_point deadline) const;

 private:
  simmpi::Communicator& comm_;
  std::size_t slots_;
  std::size_t base_;
};

}  // namespace optibar::rma
