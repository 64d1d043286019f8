#include "barrier/algorithms.hpp"

#include "util/error.hpp"

namespace optibar {

namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t bits = 0;
  std::size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

std::size_t floor_pow2(std::size_t n) {
  std::size_t v = 1;
  while (v * 2 <= n) {
    v <<= 1;
  }
  return v;
}

/// The signal i -> j, two-sided.
Signal signal(std::size_t i, std::size_t j) {
  return Signal{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)};
}

}  // namespace

const char* to_string(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kLinear:
      return "linear";
    case AlgorithmKind::kDissemination:
      return "dissemination";
    case AlgorithmKind::kTree:
      return "tree";
    case AlgorithmKind::kKAryTree:
      return "kary-tree";
    case AlgorithmKind::kHeapTree:
      return "heap-tree";
    case AlgorithmKind::kPairwiseExchange:
      return "pairwise-exchange";
    case AlgorithmKind::kRadixDissemination:
      return "radix-dissemination";
    case AlgorithmKind::kRing:
      return "ring";
  }
  OPTIBAR_FAIL("unknown AlgorithmKind");
}

Schedule linear_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "linear_arrival of zero ranks");
  Schedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  Stage gather;
  for (std::size_t i = 1; i < ranks; ++i) {
    gather.push_back(signal(i, 0));
  }
  s.append_stage(std::move(gather));
  return s;
}

Schedule linear_barrier(std::size_t ranks) {
  const Schedule arrival = linear_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

Schedule dissemination_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "dissemination_arrival of zero ranks");
  Schedule s(ranks);
  const std::size_t stages = ceil_log2(ranks);
  for (std::size_t st = 0; st < stages; ++st) {
    Stage m;
    const std::size_t offset = std::size_t{1} << st;
    for (std::size_t i = 0; i < ranks; ++i) {
      m.push_back(signal(i, (i + offset) % ranks));
    }
    s.append_stage(std::move(m));
  }
  return s;
}

Schedule dissemination_barrier(std::size_t ranks) {
  return dissemination_arrival(ranks);
}

Schedule tree_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "tree_arrival of zero ranks");
  Schedule s(ranks);
  const std::size_t stages = ceil_log2(ranks);
  for (std::size_t st = 0; st < stages; ++st) {
    Stage m;
    const std::size_t half = std::size_t{1} << st;
    const std::size_t full = half << 1;
    for (std::size_t i = half; i < ranks; i += full) {
      // Senders are the ranks whose index is an odd multiple of 2^st;
      // they fold into the even multiple below them (recursive pairing).
      m.push_back(signal(i, i - half));
    }
    s.append_stage(std::move(m));
  }
  return s;
}

Schedule tree_barrier(std::size_t ranks) {
  const Schedule arrival = tree_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

Schedule kary_tree_arrival(std::size_t ranks, std::size_t arity) {
  OPTIBAR_REQUIRE(ranks > 0, "kary_tree_arrival of zero ranks");
  OPTIBAR_REQUIRE(arity >= 2, "kary tree arity must be >= 2, got " << arity);
  Schedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  // Heap layout: parent(i) = (i-1)/arity. Compute each rank's depth.
  std::vector<std::size_t> depth(ranks, 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 1; i < ranks; ++i) {
    depth[i] = depth[(i - 1) / arity] + 1;
    max_depth = std::max(max_depth, depth[i]);
  }
  // Deepest level signals first so parents accumulate complete subtrees.
  for (std::size_t d = max_depth; d >= 1; --d) {
    Stage m;
    for (std::size_t i = 1; i < ranks; ++i) {
      if (depth[i] == d) {
        m.push_back(signal(i, (i - 1) / arity));
      }
    }
    s.append_stage(std::move(m));
  }
  return s;
}

Schedule kary_tree_barrier(std::size_t ranks, std::size_t arity) {
  const Schedule arrival = kary_tree_arrival(ranks, arity);
  return arrival.concatenated(arrival.transposed_reversed());
}

Schedule heap_tree_arrival(std::size_t ranks) {
  return kary_tree_arrival(ranks, 2);
}

Schedule heap_tree_barrier(std::size_t ranks) {
  return kary_tree_barrier(ranks, 2);
}

Schedule pairwise_exchange_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "pairwise_exchange_arrival of zero ranks");
  Schedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  const std::size_t m = floor_pow2(ranks);
  // Fold the excess ranks [m, ranks) into their partners below.
  if (ranks > m) {
    Stage fold;
    for (std::size_t i = m; i < ranks; ++i) {
      fold.push_back(signal(i, i - m));
    }
    s.append_stage(std::move(fold));
  }
  // Symmetric exchange among the power-of-two subset.
  for (std::size_t bit = 1; bit < m; bit <<= 1) {
    Stage x;
    for (std::size_t i = 0; i < m; ++i) {
      x.push_back(signal(i, i ^ bit));
    }
    s.append_stage(std::move(x));
  }
  // Unfold: release the excess ranks.
  if (ranks > m) {
    Stage unfold;
    for (std::size_t i = m; i < ranks; ++i) {
      unfold.push_back(signal(i - m, i));
    }
    s.append_stage(std::move(unfold));
  }
  return s;
}

Schedule pairwise_exchange_barrier(std::size_t ranks) {
  return pairwise_exchange_arrival(ranks);
}

Schedule radix_dissemination_arrival(std::size_t ranks, std::size_t radix) {
  OPTIBAR_REQUIRE(ranks > 0, "radix_dissemination_arrival of zero ranks");
  OPTIBAR_REQUIRE(radix >= 2, "dissemination radix must be >= 2, got " << radix);
  Schedule s(ranks);
  if (ranks == 1) {
    return s;
  }
  // ceil(log_radix(ranks)) stages: the smallest m with radix^m >= ranks.
  std::size_t power = 1;
  std::size_t stages = 0;
  while (power < ranks) {
    // power * radix cannot overflow for any sane rank count, but guard
    // the loop variable anyway.
    OPTIBAR_ASSERT(power <= (std::size_t{1} << 62) / radix,
                   "radix power overflow");
    power *= radix;
    ++stages;
  }
  power = 1;
  for (std::size_t st = 0; st < stages; ++st) {
    Stage m;
    for (std::size_t j = 1; j < radix; ++j) {
      const std::size_t offset = (j * power) % ranks;
      if (offset == 0) {
        continue;  // a whole-ring hop is a no-op
      }
      for (std::size_t i = 0; i < ranks; ++i) {
        m.push_back(signal(i, (i + offset) % ranks));
      }
    }
    normalize_stage(m);  // offsets coinciding mod P signal once
    s.append_stage(std::move(m));
    power *= radix;
  }
  return s;
}

Schedule radix_dissemination_barrier(std::size_t ranks, std::size_t radix) {
  return radix_dissemination_arrival(ranks, radix);
}

Schedule ring_arrival(std::size_t ranks) {
  OPTIBAR_REQUIRE(ranks > 0, "ring_arrival of zero ranks");
  Schedule s(ranks);
  // Token descends P-1 -> ... -> 0 so knowledge funnels into rank 0,
  // matching the convention of the other hierarchical arrival phases.
  for (std::size_t st = 0; st + 1 < ranks; ++st) {
    const std::size_t sender = ranks - 1 - st;
    s.append_stage({signal(sender, sender - 1)});
  }
  return s;
}

Schedule ring_barrier(std::size_t ranks) {
  const Schedule arrival = ring_arrival(ranks);
  return arrival.concatenated(arrival.transposed_reversed());
}

std::vector<ComponentAlgorithm> paper_algorithms() {
  return {
      {"linear", AlgorithmKind::kLinear,
       [](std::size_t n) { return linear_arrival(n); }, false},
      {"dissemination", AlgorithmKind::kDissemination,
       [](std::size_t n) { return dissemination_arrival(n); }, true},
      {"tree", AlgorithmKind::kTree,
       [](std::size_t n) { return tree_arrival(n); }, false},
  };
}

std::vector<ComponentAlgorithm> extended_algorithms() {
  std::vector<ComponentAlgorithm> algos = paper_algorithms();
  algos.push_back({"kary4-tree", AlgorithmKind::kKAryTree,
                   [](std::size_t n) { return kary_tree_arrival(n, 4); },
                   false});
  algos.push_back({"heap-tree", AlgorithmKind::kHeapTree,
                   [](std::size_t n) { return heap_tree_arrival(n); }, false});
  algos.push_back({"pairwise-exchange", AlgorithmKind::kPairwiseExchange,
                   [](std::size_t n) { return pairwise_exchange_arrival(n); },
                   true});
  algos.push_back({"radix4-dissemination", AlgorithmKind::kRadixDissemination,
                   [](std::size_t n) {
                     return radix_dissemination_arrival(n, 4);
                   },
                   true});
  return algos;
}

}  // namespace optibar
