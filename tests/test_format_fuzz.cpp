// Deterministic mutation fuzzer over every on-disk format. Seeded from
// the format_fixtures inputs, each mutant is one to three of: bit
// flips, byte splices from another fixture, and a header count
// rewritten to a format cap, one past it, -1 or 2^64 - 1. Every mutant
// must load or throw IoError, and no single allocation during a load
// may outgrow the input: one scanner chunk plus a fixed multiple of
// the bytes read. (Under AddressSanitizer, ctest also caps allocations
// with max_allocation_size_mb.)
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "format_fixtures.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/scanner.hpp"

namespace {

// Largest single operator-new request since the last reset.
std::atomic<std::size_t> g_largest{0};

void note(std::size_t size) {
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace optibar {
namespace {

using fixtures::Format;

constexpr std::uint64_t kSeed = 0x0F0F2027;
constexpr int kMutantsPerFixture = 300;
// Bytes of allocation allowed per input byte: the widest thing a loader
// builds per byte read is a vector slot (a record, a tile, a double)
// at doubling capacity.
constexpr std::size_t kBytesPerInputByte = 32;

struct Token {
  std::size_t begin;
  std::size_t size;
};

std::vector<Token> tokens_of(const std::string& text) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) {
      out.push_back({begin, i - begin});
    }
  }
  return out;
}

bool is_count_tag(const std::string& tag) {
  static const std::vector<std::string> tags = {
      "P",     "stages", "clusters", "classes", "ranks", "entries",
      "subset", "elems", "root",     "tile",    "entry"};
  for (const std::string& t : tags) {
    if (tag == t) {
      return true;
    }
  }
  // A collective stage line: S<k> <edge count>.
  return tag.size() > 1 && tag[0] == 'S' &&
         tag.find_first_not_of("0123456789", 1) == std::string::npos;
}

// Rewrites one count that follows a header tag (any all-digit token if
// the text has no header left) to a cap, one past a cap, -1 or 2^64-1.
void inflate_count(std::string& text, Rng& rng) {
  static const char* const kValues[] = {
      "8192",  "8193",    "65536",   "65537", "100000",
      "100001", "1048576", "1048577", "-1",    "18446744073709551615"};
  const std::vector<Token> tokens = tokens_of(text);
  std::vector<Token> counts;
  std::vector<Token> digits;
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const std::string tok = text.substr(tokens[k].begin, tokens[k].size);
    if (tok.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    digits.push_back(tokens[k]);
    if (k > 0 &&
        is_count_tag(text.substr(tokens[k - 1].begin, tokens[k - 1].size))) {
      counts.push_back(tokens[k]);
    }
  }
  const std::vector<Token>& pool = counts.empty() ? digits : counts;
  if (pool.empty()) {
    return;
  }
  const Token t = pool[rng.next_below(pool.size())];
  text.replace(t.begin, t.size, kValues[rng.next_below(std::size(kValues))]);
}

std::string mutate(std::string text, const std::vector<std::string>& donors,
                   Rng& rng) {
  const std::size_t steps = 1 + rng.next_below(3);
  for (std::size_t s = 0; s < steps; ++s) {
    switch (rng.next_below(3)) {
      case 0:  // bit flips
        for (std::size_t f = 1 + rng.next_below(4); f > 0 && !text.empty();
             --f) {
          text[rng.next_below(text.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1: {  // splice a byte range of a donor over a range of the text
        const std::string& donor = donors[rng.next_below(donors.size())];
        if (donor.empty()) {
          break;
        }
        const std::size_t from = rng.next_below(donor.size());
        const std::size_t len = 1 + rng.next_below(donor.size() - from);
        const std::size_t at = rng.next_below(text.size() + 1);
        const std::size_t cut = rng.next_below(text.size() - at + 1);
        text.replace(at, cut, donor, from, len);
        break;
      }
      default:
        inflate_count(text, rng);
        break;
    }
  }
  return text;
}

void load(Format format, std::istream& is) {
  switch (format) {
    case Format::kProfile:
      TopologyProfile::load(is);
      return;
    case Format::kTiledProfile:
      TiledProfile::load(is);
      return;
    case Format::kSchedule:
      load_schedule(is);
      return;
    case Format::kCollective:
      load_collective(is);
      return;
    case Format::kPlanStore:
      load_plan_store(is, fixtures::kStoreRanks);
      return;
  }
}

TEST(FormatFuzz, EveryMutantLoadsOrThrowsIoErrorWithinItsInput) {
  const std::vector<fixtures::Fixture> seeds = fixtures::hardening_fixtures();
  std::vector<std::string> donors;
  for (const fixtures::Fixture& seed : seeds) {
    donors.push_back(seed.text);
  }
  Rng rng(kSeed);
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (const fixtures::Fixture& seed : seeds) {
    for (int m = 0; m < kMutantsPerFixture; ++m) {
      const std::string mutant = mutate(seed.text, donors, rng);
      std::istringstream is(mutant);
      g_largest.store(0);
      try {
        load(seed.format, is);
        ++loaded;
      } catch (const IoError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << to_string(seed.format) << " mutant " << m
                      << " threw a non-IoError: " << e.what() << "\n"
                      << mutant.substr(0, 300);
      }
      const std::size_t largest = g_largest.load();
      EXPECT_LE(largest,
                Scanner::kChunkBytes + kBytesPerInputByte * mutant.size())
          << to_string(seed.format) << " mutant " << m << " of "
          << mutant.size() << " bytes allocated " << largest << " at once\n"
          << mutant.substr(0, 300);
    }
  }
  // Both outcomes must be well represented, or the mutations are too
  // mild (all load) or too wild (none get past the magic line).
  EXPECT_GT(loaded, 20u);
  EXPECT_GT(refused, 1000u);
}

}  // namespace
}  // namespace optibar
