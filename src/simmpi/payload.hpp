// Message payloads and the word reductions applied to them.
//
// A payload is a vector of 64-bit words (the collective layer's element
// type); a pure signal carries none. The reduction operators are exactly
// associative and commutative (sum wraps mod 2^64), so every bracketing
// of a reduction is bit-identical and a correct schedule is bit-exact
// against a serial oracle whatever order its combines run in.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace optibar::simmpi {

using Payload = std::vector<std::uint64_t>;

enum class ReduceOp {
  kSum,
  kMin,
  kMax,
  kXor,
};

/// Apply a reduction operator to two words.
inline std::uint64_t reduce_word(ReduceOp op, std::uint64_t a,
                                 std::uint64_t b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;  // wraps mod 2^64: exact and associative
    case ReduceOp::kMin:
      return a < b ? a : b;
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kXor:
      return a ^ b;
  }
  OPTIBAR_FAIL("unknown ReduceOp");
}

}  // namespace optibar::simmpi
