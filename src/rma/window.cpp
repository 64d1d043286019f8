#include "rma/window.hpp"

#include <vector>

#include "util/error.hpp"

namespace optibar::rma {

Window::Window(simmpi::Communicator& comm, std::size_t slots)
    : comm_(comm),
      slots_(slots),
      base_(comm.rma_allocate(words_per_rank(slots))) {
  OPTIBAR_REQUIRE(slots > 0, "window needs at least one slot");
}

Window::Window(simmpi::Communicator& comm, std::uintptr_t key,
               std::size_t slots)
    : comm_(comm),
      slots_(slots),
      base_(comm.rma_region(key, words_per_rank(slots))) {
  OPTIBAR_REQUIRE(slots > 0, "window needs at least one slot");
}

std::uint64_t Window::flag_value(std::size_t episode) {
  return rma::flag_value(episode);
}

void Window::put(std::size_t src, std::size_t dst, std::size_t episode,
                 std::size_t slot, std::size_t stage) {
  put_value(src, dst, episode, slot, flag_value(episode), stage);
}

void Window::put_value(std::size_t src, std::size_t dst, std::size_t episode,
                       std::size_t slot, std::uint64_t value,
                       std::size_t stage) {
  OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
  comm_.rma_put(src, dst, word_of(episode, slot), value, stage);
}

std::uint64_t Window::fetch_add(std::size_t caller, std::size_t dst,
                                std::size_t episode, std::size_t slot,
                                std::uint64_t delta) {
  OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
  return comm_.rma_fetch_add(caller, dst, word_of(episode, slot), delta);
}

std::uint64_t Window::compare_and_swap(std::size_t caller, std::size_t dst,
                                       std::size_t episode, std::size_t slot,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
  return comm_.rma_compare_and_swap(caller, dst, word_of(episode, slot),
                                    expected, desired);
}

std::uint64_t Window::read(std::size_t rank, std::size_t episode,
                           std::size_t slot) const {
  OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
  return comm_.rma_read(rank, word_of(episode, slot));
}

bool Window::test(std::size_t rank, std::size_t episode,
                  std::size_t slot) const {
  OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
  return comm_.rma_test(rank, word_of(episode, slot), flag_value(episode));
}

bool Window::wait(std::size_t rank, std::size_t episode,
                  std::span<const std::size_t> slots,
                  simmpi::Clock::time_point deadline) const {
  std::vector<simmpi::Communicator::FlagWait> flags;
  flags.reserve(slots.size());
  for (std::size_t slot : slots) {
    OPTIBAR_REQUIRE(slot < slots_, "slot " << slot << " out of range");
    flags.push_back(wait_for(episode, slot));
  }
  return comm_.rma_wait_until(rank, flags, deadline);
}

}  // namespace optibar::rma
