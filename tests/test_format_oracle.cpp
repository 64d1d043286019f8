// Pins the number grammar of the shared Scanner against the loaders it
// replaced (tests/format_oracle.*, the istream >> versions kept
// verbatim): on every format_fixtures input and truncation prefix, and
// on seeded random round trips of every format, both must give the same
// verdict and, when they load, the same value bit for bit. The token
// corpus at the end lists every input where the two grammars differ on
// purpose, with both verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dense_schedule_oracle.hpp"
#include "format_fixtures.hpp"
#include "format_oracle.hpp"
#include "profile/generate_tiled.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/scanner.hpp"

namespace optibar {
namespace {

using fixtures::Format;

// A loader's verdict on one input, with what it loaded re-saved by the
// format's own writer (which prints doubles with 17 significant digits,
// so equal text means equal bits) plus the raw bits of what the writer
// rounds (the plan store's predicted costs).
struct Outcome {
  std::string verdict;  // "ok", "IoError" or "Error"
  std::string value;
  std::string extra;

  bool operator==(const Outcome& other) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& outcome) {
  return os << outcome.verdict << " [" << outcome.value.size() << " + "
            << outcome.extra.size() << " bytes]";
}

std::string bits(double value) {
  std::ostringstream os;
  os << std::hex << std::bit_cast<std::uint64_t>(value);
  return os.str();
}

Outcome capture(const std::function<Outcome()>& load) {
  try {
    return load();
  } catch (const IoError&) {
    return {"IoError", {}, {}};
  } catch (const Error&) {
    return {"Error", {}, {}};
  }
}

template <class Value, class Save>
Outcome saved(const Value& value, Save save) {
  std::ostringstream os;
  save(os, value);
  return {"ok", os.str(), {}};
}

Outcome store_outcome(const std::vector<PlanStoreRecord>& records) {
  std::ostringstream os;
  save_plan_store(os, fixtures::kStoreRanks, records);
  std::string costs;
  for (const PlanStoreRecord& record : records) {
    costs += bits(record.predicted_cost) + ' ';
  }
  return {"ok", os.str(), costs};
}

Outcome load(Format format, const std::string& text, bool oracle) {
  return capture([&]() -> Outcome {
    std::istringstream is(text);
    switch (format) {
      case Format::kProfile: {
        const TopologyProfile p =
            oracle ? oracle::load_profile(is) : TopologyProfile::load(is);
        return saved(p, [](std::ostream& os, const TopologyProfile& v) {
          v.save(os);
        });
      }
      case Format::kTiledProfile: {
        const TiledProfile p =
            oracle ? oracle::load_tiled_profile(is) : TiledProfile::load(is);
        return saved(p, [](std::ostream& os, const TiledProfile& v) {
          v.save(os);
        });
      }
      case Format::kSchedule: {
        const StoredSchedule s =
            oracle ? oracle::load_schedule(is) : load_schedule(is);
        return saved(s, [](std::ostream& os, const StoredSchedule& v) {
          save_schedule(os, v);
        });
      }
      case Format::kCollective: {
        const CollectiveSchedule c =
            oracle ? oracle::load_collective(is) : load_collective(is);
        return saved(c, [](std::ostream& os, const CollectiveSchedule& v) {
          save_collective(os, v);
        });
      }
      case Format::kPlanStore:
        return store_outcome(
            oracle ? oracle::load_plan_store(is, fixtures::kStoreRanks)
                   : load_plan_store(is, fixtures::kStoreRanks));
    }
    return {};
  });
}

void expect_same(Format format, const std::string& text,
                 const std::string& label) {
  const Outcome want = load(format, text, /*oracle=*/true);
  const Outcome got = load(format, text, /*oracle=*/false);
  EXPECT_EQ(got, want) << to_string(format) << ", " << label << ":\n"
                       << text.substr(0, 200);
}

TEST(FormatOracle, HardeningFixturesAndEveryPrefixAgree) {
  std::size_t checked = 0;
  for (const fixtures::Fixture& fixture : fixtures::hardening_fixtures()) {
    expect_same(fixture.format, fixture.text, "fixture");
    ++checked;
  }
  for (Format format : fixtures::all_formats()) {
    const std::string text = fixtures::saved_text(format);
    for (std::size_t len = 0; len <= text.size(); ++len) {
      expect_same(format, text.substr(0, len),
                  "prefix " + std::to_string(len));
      ++checked;
    }
  }
  EXPECT_GT(checked, 2000u);
}

TEST(FormatOracle, ArtefactsSpanningManyChunksAgree) {
  // The paper-scale inputs cross the 64 KiB chunk boundary many times:
  // the hex-120 dense v3 profile (1.4 MB) and the 10240-rank tiled one.
  const MachineSpec hex = hex_cluster();
  std::ostringstream dense;
  generate_profile(hex, round_robin_mapping(hex, 120)).save(dense);
  expect_same(Format::kProfile, dense.str(), "hex-120");
  std::ostringstream tiled;
  generate_tiled_profile(tenk_cluster(), 10240).save(tiled);
  expect_same(Format::kTiledProfile, tiled.str(), "tenk-10240");
  EXPECT_GT(dense.str().size(), 20 * Scanner::kChunkBytes);
  EXPECT_GT(tiled.str().size(), Scanner::kChunkBytes);
}

// ---- seeded random artefacts, one generator per format ----

double random_double(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: {
      const double specials[] = {0.0,
                                 -0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::max(),
                                 -std::numeric_limits<double>::max(),
                                 1.0};
      return specials[rng.next_below(8)];
    }
    case 1: {
      // Any finite bit pattern, subnormals included.
      for (;;) {
        const double v = std::bit_cast<double>(rng.next_u64());
        if (std::isfinite(v)) {
          return v;
        }
      }
    }
    case 2:
      return rng.uniform(-1.0, 1.0) *
             std::pow(10.0, rng.uniform(-300.0, 300.0));
    default:
      return rng.uniform(0.0, 5e-6);
  }
}

Matrix<double> random_matrix(Rng& rng, std::size_t n) {
  Matrix<double> m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = random_double(rng);
    }
  }
  return m;
}

TopologyProfile random_profile(Rng& rng, std::size_t p, bool g, bool r) {
  TopologyProfile out =
      g ? TopologyProfile(random_matrix(rng, p), random_matrix(rng, p),
                          random_matrix(rng, p))
        : TopologyProfile(random_matrix(rng, p), random_matrix(rng, p));
  if (r) {
    out.set_rma_latency(random_matrix(rng, p));
  }
  return out;
}

std::string random_profile_text(Rng& rng) {
  const std::size_t p = 1 + rng.next_below(5);
  std::ostringstream os;
  random_profile(rng, p, rng.next_below(2) == 0, rng.next_below(2) == 0)
      .save(os);
  return os.str();
}

std::string random_tiled_text(Rng& rng) {
  const std::size_t classes = 1 + rng.next_below(3);
  const std::size_t clusters = classes + rng.next_below(3);
  const bool g = rng.next_below(2) == 0;
  const bool r = rng.next_below(2) == 0;
  std::vector<TopologyProfile> tiles;
  for (std::size_t k = 0; k < classes; ++k) {
    tiles.push_back(random_profile(rng, 1 + rng.next_below(3), g, r));
  }
  // Canonical numbering: classes first appear in order, and ranks are
  // dealt to clusters in cluster order.
  std::vector<std::size_t> class_of;
  std::vector<std::vector<std::size_t>> members;
  std::size_t rank = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    class_of.push_back(c < classes ? c : rng.next_below(classes));
    members.emplace_back();
    for (std::size_t i = 0; i < tiles[class_of.back()].ranks(); ++i) {
      members.back().push_back(rank++);
    }
  }
  const TiledProfile tiled(
      members, class_of, tiles, random_matrix(rng, classes),
      random_matrix(rng, classes),
      g ? random_matrix(rng, classes) : Matrix<double>(),
      r ? random_matrix(rng, classes) : Matrix<double>(),
      rng.uniform(0.0, 0.999));
  std::ostringstream os;
  tiled.save(os);
  return os.str();
}

StoredSchedule random_schedule(Rng& rng, std::size_t p, bool awaited) {
  StoredSchedule stored;
  switch (rng.next_below(4)) {
    case 0:
      stored.schedule = dissemination_barrier(p);
      break;
    case 1:
      stored.schedule = tree_barrier(p);
      break;
    case 2:
      stored.schedule = linear_barrier(p);
      break;
    default:
      stored.schedule = ring_barrier(p);
      break;
  }
  const std::size_t stages = stored.schedule.stage_count();
  if (rng.next_below(2) == 0) {
    for (std::size_t s = 0; s < stages; ++s) {
      oracle::StageMatrix t(p, p, 0);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
          t(i, j) = stored.schedule.has_signal(s, i, j) &&
                    rng.next_below(2) == 0;
        }
      }
      oracle::set_transport(stored.schedule, s, t);
    }
  }
  if (awaited) {
    for (std::size_t s = 0; s < stages; ++s) {
      stored.awaited_stages.push_back(rng.next_below(3) == 0);
    }
  }
  return stored;
}

std::string random_schedule_text(Rng& rng) {
  std::ostringstream os;
  save_schedule(os, random_schedule(rng, 1 + rng.next_below(6),
                                    rng.next_below(3) == 0));
  return os.str();
}

std::string random_collective_text(Rng& rng) {
  const std::size_t p = 1 + rng.next_below(6);
  const std::size_t root = rng.next_below(p);
  const std::size_t elems = rng.next_below(6);
  const std::size_t bytes = 1 + rng.next_below(16);
  CollectiveSchedule c = binomial_broadcast(p, root, elems, bytes);
  switch (rng.next_below(5)) {
    case 0:
      c = binomial_reduce(p, root, elems, bytes);
      break;
    case 1:
      c = linear_broadcast(p, root, elems, bytes);
      break;
    case 2:
      c = recursive_doubling_allreduce(p, elems, bytes);
      break;
    case 3:
      c = reduce_broadcast_allreduce(p, elems, bytes);
      break;
    default:
      break;
  }
  std::ostringstream os;
  save_collective(os, c);
  return os.str();
}

std::string random_store_text(Rng& rng) {
  const char alphabet[] = "ab -\\\n\r\t#";
  std::vector<PlanStoreRecord> records;
  std::vector<std::vector<std::size_t>> taken;
  const std::size_t entries = rng.next_below(4);
  for (std::size_t e = 0; e < entries; ++e) {
    PlanStoreRecord record;
    for (std::size_t r = 0; r < fixtures::kStoreRanks; ++r) {
      if (rng.next_below(2) == 0) {
        record.subset.push_back(r);
      }
    }
    if (record.subset.empty() ||
        std::find(taken.begin(), taken.end(), record.subset) != taken.end()) {
      continue;
    }
    taken.push_back(record.subset);
    const PlanState states[] = {PlanState::kHealthy, PlanState::kSuspect,
                                PlanState::kQuarantined,
                                PlanState::kProbation, PlanState::kDegraded};
    record.state = states[rng.next_below(5)];
    record.failures = rng.next_below(1000);
    record.repair_attempts = rng.next_below(10);
    record.probation_left = rng.next_below(10);
    record.predicted_cost = std::abs(random_double(rng));
    for (std::size_t i = rng.next_below(12); i > 0; --i) {
      record.reason += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    record.plan = random_schedule(rng, record.subset.size(), false);
    records.push_back(std::move(record));
  }
  std::ostringstream os;
  save_plan_store(os, fixtures::kStoreRanks, records);
  return os.str();
}

std::string random_text(Format format, Rng& rng) {
  switch (format) {
    case Format::kProfile:
      return random_profile_text(rng);
    case Format::kTiledProfile:
      return random_tiled_text(rng);
    case Format::kSchedule:
      return random_schedule_text(rng);
    case Format::kCollective:
      return random_collective_text(rng);
    case Format::kPlanStore:
      return random_store_text(rng);
  }
  return {};
}

// Whether `text` is a plan store holding a reason that is exactly "-",
// which the store writes as "\-" so it does not read back as "".
bool escapes_dash_reason(Format format, const std::string& text) {
  return format == Format::kPlanStore &&
         text.find("\nreason \\-\n") != std::string::npos;
}

TEST(FormatOracle, SeededRoundTripsAgreeBitForBit) {
  Rng rng(20261019);
  std::size_t dash_reasons = 0;
  for (Format format : fixtures::all_formats()) {
    std::size_t loaded = 0;
    for (int round = 0; round < 300; ++round) {
      const std::string text = random_text(format, rng);
      const Outcome want = load(format, text, /*oracle=*/true);
      const Outcome got = load(format, text, /*oracle=*/false);
      if (escapes_dash_reason(format, text)) {
        // The one intended difference a saved artefact can show (see
        // the token corpus): the oracle has no "\-" escape.
        EXPECT_EQ(want.verdict, "IoError") << "round " << round;
        EXPECT_EQ(got.verdict, "ok") << "round " << round;
        ++dash_reasons;
      } else {
        ASSERT_EQ(got, want) << to_string(format) << " round " << round
                             << ":\n"
                             << text;
      }
      if (got.verdict == "ok") {
        ++loaded;
        // What was saved re-saves to the same bytes.
        EXPECT_EQ(got.value, text) << to_string(format) << " round " << round;
      }
    }
    // The deadlock gate may refuse a random awaited pattern, but most
    // artefacts must load or the comparison proves little.
    EXPECT_GT(loaded, 200u) << to_string(format);
  }
  EXPECT_GT(dash_reasons, 0u);
}

// ---- where the grammars differ on purpose ----

struct TokenCase {
  const char* label;
  Format format;
  std::string text;
  const char* oracle;   // verdict of the istream >> loaders
  const char* scanner;  // verdict of the Scanner loaders
};

// A 2-rank v1 profile whose entry O(0, 1) is `mid` and whose last token
// L(1, 1) is `last`.
std::string profile_with(const std::string& mid, const std::string& last) {
  return "optibar-profile v1\nP 2\nO\n1e-06 " + mid +
         "\n2e-06 1e-06\nL\n0 3e-07\n3e-07 " + last + "\n";
}

std::vector<TokenCase> token_cases() {
  const std::string store = fixtures::saved_plan_store_text();
  std::vector<TokenCase> cases = {
      // A leading '+' is not part of the from_chars grammar.
      {"+1.5 entry", Format::kProfile, profile_with("+1.5", "0"), "ok",
       "IoError"},
      {"+2 count", Format::kProfile,
       "optibar-profile v1\nP +1\nO\n1\nL\n0\n", "ok", "IoError"},
      // Underflow: strtod rounds to zero and istream keeps it;
      // from_chars reports the value out of range.
      {"1e-400 entry", Format::kProfile, profile_with("1e-400", "0"), "ok",
       "IoError"},
      {"half denorm_min entry", Format::kProfile,
       profile_with("2.4703282292062327e-324", "0"), "ok", "IoError"},
      // from_chars parses the specials; the finite check refuses them.
      {"inf entry", Format::kProfile, profile_with("inf", "0"), "IoError",
       "IoError"},
      {"nan entry", Format::kProfile, profile_with("nan", "0"), "IoError",
       "IoError"},
      {"infinity entry", Format::kProfile, profile_with("infinity", "0"),
       "IoError", "IoError"},
      {"1e999 entry", Format::kProfile, profile_with("1e999", "0"), "IoError",
       "IoError"},
      // An exponent with no digits.
      {"1e entry", Format::kProfile, profile_with("1e", "0"), "IoError",
       "IoError"},
      {"1e+ entry", Format::kProfile, profile_with("1e+", "0"), "IoError",
       "IoError"},
      // Trailing characters: istream stops early and leaves them for the
      // next read, which fails mid-file but goes unread at the end.
      {"1.5abc entry", Format::kProfile, profile_with("1.5abc", "0"),
       "IoError", "IoError"},
      {"1.5abc last", Format::kProfile, profile_with("1", "1.5abc"), "ok",
       "IoError"},
      {"0x1p3 entry", Format::kProfile, profile_with("0x1p3", "0"), "IoError",
       "IoError"},
      {"0x1p3 last", Format::kProfile, profile_with("1", "0x1p3"), "ok",
       "IoError"},
      // A number glued to the tag that follows it.
      {"1.5G glued", Format::kProfile,
       "optibar-profile v2\nP 1\nO\n1\nL\n1.5G\n0\n", "ok", "IoError"},
      {"2O glued count", Format::kProfile,
       "optibar-profile v1\nP 1O\n1\nL\n0\n", "ok", "IoError"},
      // A negative count: istream wraps it and the cap refuses it;
      // from_chars refuses the sign.
      {"-1 count", Format::kProfile, "optibar-profile v1\nP -1\nO\n1\nL\n0\n",
       "IoError", "IoError"},
      {"2^64-1 count", Format::kProfile,
       "optibar-profile v1\nP 18446744073709551615\nO\n", "IoError",
       "IoError"},
      {"2^64 count", Format::kProfile,
       "optibar-profile v1\nP 18446744073709551616\nO\n", "IoError",
       "IoError"},
      // An uncapped count wraps to 2^64 - 1 and loads under istream.
      {"-1 failures", Format::kPlanStore,
       fixtures::tampered(store, "failures 3", "failures -1"), "ok",
       "IoError"},
      {"+3 failures", Format::kPlanStore,
       fixtures::tampered(store, "failures 3", "failures +3"), "ok",
       "IoError"},
      // Signed 0/1 cells read as int under istream.
      {"-0 cell", Format::kSchedule,
       "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n-0 1\n0 0\n", "ok",
       "IoError"},
      {"+1 cell", Format::kSchedule,
       "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n0 +1\n0 0\n", "ok",
       "IoError"},
      // A self-signal is bad file data, now reported as such.
      {"self-signal", Format::kSchedule,
       "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n1 1\n0 0\n",
       "Error", "IoError"},
      // A reason that is exactly "-" is saved escaped, since a bare
      // "-" spells the empty reason; the oracle knows no "\-" escape.
      {"escaped dash reason", Format::kPlanStore,
       fixtures::tampered(store, "reason -", "reason \\-"), "IoError",
       "ok"},
      {"stray one-sided edge", Format::kSchedule,
       "optibar-schedule v2\nP 2\nstages 1\nawaited 0\nS0\n0 1\n0 0\n"
       "T0\n0 0\n1 0\n",
       "Error", "IoError"},
  };
  return cases;
}

TEST(FormatOracle, TokenCorpusVerdicts) {
  for (const TokenCase& c : token_cases()) {
    const Outcome want = load(c.format, c.text, /*oracle=*/true);
    const Outcome got = load(c.format, c.text, /*oracle=*/false);
    EXPECT_EQ(want.verdict, c.oracle) << c.label;
    EXPECT_EQ(got.verdict, c.scanner) << c.label;
    if (want.verdict == got.verdict) {
      EXPECT_EQ(got, want) << c.label;
    }
  }
}

TEST(FormatOracle, UnderflowLoadedAsZeroBeforeTheScanner) {
  // The one silent value change the old grammar made: a subnormal
  // underflow read back as +0.
  std::istringstream is(profile_with("1e-400", "0"));
  EXPECT_EQ(bits(oracle::load_profile(is).o(0, 1)), bits(0.0));
}

}  // namespace
}  // namespace optibar
