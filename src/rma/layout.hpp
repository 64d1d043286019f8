// Window slot arithmetic for one-sided barrier signalling.
//
// A one-sided signal i -> j in stage s of episode e is a remote store
// of a *flag value* into a well-known word of j's window; j learns of
// the signal by polling (or parking on) that word, never by posting a
// receive. The layout below fixes where that word lives and what value
// it carries, and is shared — header-only, no library dependency — by
// the simmpi executors (which write flags through the Communicator's
// native RMA board), the Window wrapper (src/rma/window.hpp), and the
// tests that assert on raw board state.
//
// A window of `slots` slots holds two *epoch buffers* of `slots` words
// per rank:
//
//   word(e, slot) = (e % 2) * slots  +  slot
//
// and the flag written for episode e is flag_value(e) = e + 1 (zero —
// the freshly-allocated state — therefore never matches any episode).
// The executors number each receiver's one-sided in-edges in (stage,
// source) order and use that ordinal as the edge's slot, so `slots` is
// the largest one-sided in-degree of any rank.
//
// Double buffering is what makes back-to-back episodes need no reset
// barrier between them. A slot belongs to exactly one (stage, source)
// put edge of its receiver, so within one parity nothing but that edge
// ever writes it. The value it can hold when episode e reuses the
// buffer is therefore the one episode e-2 wrote there, and
// flag_value(e-2) != flag_value(e), so a poll for episode e can never
// be satisfied by leftover state. Why distance 2 suffices: a rank can
// only start episode e+2 after every rank finished e+1 (the barrier
// semantics of e+1), which in turn required every rank to have entered
// e+1, which required every rank to have *finished* e — so by the time
// any rank writes episode-(e+2) flags into the e-parity buffer, no
// rank is still reading episode-e flags from it. Adjacent episodes
// overlap (a fast rank may be in e+1 while a slow one drains e), which
// is exactly why they use different parities.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optibar::rma {

/// Words each rank's window needs for `slots` slots: two epoch
/// buffers of `slots` flag words.
constexpr std::size_t words_per_rank(std::size_t slots) { return 2 * slots; }

/// Window-relative index of `slot` in episode `episode`'s epoch buffer
/// of a `slots`-slot window.
constexpr std::size_t word_index(std::size_t episode, std::size_t slot,
                                 std::size_t slots) {
  return (episode % 2) * slots + slot;
}

/// The value a put of episode `episode` stores; distinct from the
/// zero-initialised state and from the other parity's last tenant
/// (episode - 2), which is what makes epoch reuse reset-free.
constexpr std::uint64_t flag_value(std::size_t episode) {
  return static_cast<std::uint64_t>(episode) + 1;
}

}  // namespace optibar::rma
