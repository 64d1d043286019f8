#include "format_oracle.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "barrier/validate.hpp"
#include "dense_schedule_oracle.hpp"
#include "util/error.hpp"

namespace optibar::oracle {

namespace {

// The formats' constants, as in their loaders.
constexpr const char* kProfileMagic = "optibar-profile";
constexpr std::size_t kMaxTiledRanks = std::size_t{1} << 20;
constexpr std::size_t kMaxClusters = 65536;
constexpr const char* kScheduleMagic = "optibar-schedule";
constexpr std::size_t kScheduleMaxRanks = 8192;
constexpr std::size_t kScheduleMaxStages = 100000;
constexpr const char* kCollectiveMagic = "optibar-collective";
constexpr std::size_t kCollectiveMaxRanks = 8192;
constexpr std::size_t kCollectiveMaxStages = 100000;
constexpr std::size_t kMaxElemBytes = 65536;
constexpr const char* kStoreMagic = "optibar-plan-store";
constexpr std::size_t kStoreMaxRanks = 8192;
constexpr std::size_t kMaxEntries = 100000;

// TiledProfile's private fields, under their own names, so the tiled
// loader's body reads as it did inside the class.
struct TiledParts {
  bool has_g_ = false;
  bool has_r_ = false;
  double tolerance_ = 0.0;
  std::vector<std::size_t> assignment_;
  std::vector<std::size_t> class_of_;
  std::vector<std::vector<std::size_t>> clusters_;
  std::vector<TopologyProfile> tiles_;
  Matrix<double> inter_o_;
  Matrix<double> inter_l_;
  Matrix<double> inter_g_;
  Matrix<double> inter_r_;
};

CollectiveOp parse_op(const std::string& name) {
  if (name == "bcast") {
    return CollectiveOp::kBroadcast;
  }
  if (name == "reduce") {
    return CollectiveOp::kReduce;
  }
  if (name == "allreduce") {
    return CollectiveOp::kAllreduce;
  }
  OPTIBAR_IO_FAIL("unknown collective op '" << name << "'");
}

std::string unescape_reason(const std::string& text) {
  if (text == "-") {
    return {};
  }
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    OPTIBAR_IO_REQUIRE(i + 1 < text.size(),
                       "dangling escape at end of reason line");
    const char next = text[++i];
    switch (next) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        OPTIBAR_IO_FAIL("unknown escape '\\" << next << "' in reason line");
    }
  }
  return out;
}

std::size_t read_count(std::istream& is, const char* tag,
                       std::size_t entry_index) {
  std::string got;
  std::size_t value = 0;
  is >> got >> value;
  OPTIBAR_IO_REQUIRE(!is.fail() && got == tag,
                     "malformed plan-store entry " << entry_index
                                                   << ": expected '" << tag
                                                   << "' field");
  return value;
}

}  // namespace

TopologyProfile load_profile(std::istream& is) {
  // On-disk data is untrusted: every read checks fail() (a truncated
  // file must not pass as eof-with-defaults), the rank count is capped
  // before sizing any allocation, and each element must be a finite
  // number (NaN/inf would silently poison every downstream cost).
  constexpr std::size_t kMaxRanks = 8192;
  std::string magic;
  std::string version;
  is >> magic >> version;
  OPTIBAR_IO_REQUIRE(!is.fail() && magic == kProfileMagic,
                     "not an optibar profile (magic '" << magic << "')");
  OPTIBAR_IO_REQUIRE(version != "v4",
                     "profile is a v4 tiled profile; load it with "
                     "TiledProfile::load");
  OPTIBAR_IO_REQUIRE(version == "v1" || version == "v2" || version == "v3",
                     "unsupported profile version " << version);
  std::string tag;
  std::size_t p = 0;
  is >> tag >> p;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "P" && p > 0,
                     "malformed profile header");
  OPTIBAR_IO_REQUIRE(p <= kMaxRanks, "profile rank count "
                                         << p << " exceeds the format cap ("
                                         << kMaxRanks << ")");
  auto read_body = [&](const std::string& name) {
    Matrix<double> m(p, p);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) {
        is >> m(r, c);
        OPTIBAR_IO_REQUIRE(!is.fail(), "truncated or malformed "
                                           << name << " matrix at (" << r
                                           << ", " << c << ")");
        OPTIBAR_IO_REQUIRE(std::isfinite(m(r, c)),
                           name << " matrix entry (" << r << ", " << c
                                << ") is not finite");
      }
    }
    return m;
  };
  auto read_matrix = [&](const char* expected_tag) {
    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == expected_tag,
                       "expected matrix tag " << expected_tag << ", got "
                                              << tag);
    return read_body(expected_tag);
  };
  Matrix<double> o = read_matrix("O");
  Matrix<double> l = read_matrix("L");
  if (version == "v1") {
    return TopologyProfile(std::move(o), std::move(l));
  }
  if (version == "v2") {
    Matrix<double> g = read_matrix("G");
    return TopologyProfile(std::move(o), std::move(l), std::move(g));
  }
  // v3: an optional G, then the mandatory R (a v3 without R would have
  // been written as v1/v2 — see save()).
  is >> tag;
  OPTIBAR_IO_REQUIRE(!is.fail() && (tag == "G" || tag == "R"),
                     "expected matrix tag G or R, got " << tag);
  Matrix<double> g;
  if (tag == "G") {
    g = read_body("G");
    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "R",
                       "expected matrix tag R, got " << tag);
  }
  Matrix<double> r = read_body("R");
  TopologyProfile profile =
      g.empty() ? TopologyProfile(std::move(o), std::move(l))
                : TopologyProfile(std::move(o), std::move(l), std::move(g));
  profile.set_rma_latency(std::move(r));
  return profile;
}

TiledProfile load_tiled_profile(std::istream& is) {
  // Untrusted input: every count is capped before sizing an allocation,
  // every read checks fail(), every float must be finite, and the
  // canonical-ordering / size invariants are re-validated at the end.
  std::string magic;
  std::string version;
  is >> magic >> version;
  OPTIBAR_IO_REQUIRE(!is.fail() && magic == kProfileMagic,
                     "not an optibar profile (magic '" << magic << "')");
  OPTIBAR_IO_REQUIRE(version == "v4",
                     "not a tiled profile (version " << version
                                                     << ", expected v4)");
  auto read_count = [&](const char* name, std::size_t cap) {
    std::string tag;
    std::size_t value = 0;
    is >> tag >> value;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == name && value > 0,
                       "malformed tiled profile header (" << name << ")");
    OPTIBAR_IO_REQUIRE(value <= cap, name << " count " << value
                                          << " exceeds the format cap ("
                                          << cap << ")");
    return value;
  };
  const std::size_t p = read_count("P", kMaxTiledRanks);
  const std::size_t num_clusters = read_count("clusters", kMaxClusters);
  const std::size_t num_classes = read_count("classes", num_clusters);
  OPTIBAR_IO_REQUIRE(num_clusters <= p,
                     "more clusters than ranks in tiled profile header");
  std::string tag;
  std::string mats;
  is >> tag >> mats;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "matrices" &&
                         (mats == "OL" || mats == "OLG" || mats == "OLR" ||
                          mats == "OLGR"),
                     "malformed tiled profile matrices declaration");
  TiledParts out;
  out.has_g_ = mats.find('G') != std::string::npos;
  out.has_r_ = mats.find('R') != std::string::npos;
  is >> tag >> out.tolerance_;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "tolerance" &&
                         std::isfinite(out.tolerance_) &&
                         out.tolerance_ >= 0.0 && out.tolerance_ < 1.0,
                     "malformed tiled profile tolerance");
  auto read_ids = [&](const char* name, std::size_t count, std::size_t bound) {
    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == name,
                       "expected section " << name << ", got " << tag);
    std::vector<std::size_t> ids(count);
    for (std::size_t i = 0; i < count; ++i) {
      is >> ids[i];
      OPTIBAR_IO_REQUIRE(!is.fail() && ids[i] < bound,
                         "truncated or out-of-range " << name << " entry "
                                                      << i);
    }
    return ids;
  };
  out.assignment_ = read_ids("assignment", p, num_clusters);
  out.class_of_ = read_ids("class-of", num_clusters, num_classes);
  out.clusters_.resize(num_clusters);
  for (std::size_t i = 0; i < p; ++i) {
    out.clusters_[out.assignment_[i]].push_back(i);
  }
  out.tiles_.reserve(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    std::size_t index = 0;
    is >> tag >> index;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "tile" && index == k,
                       "expected tile " << k);
    out.tiles_.push_back(load_profile(is));
  }
  is >> tag;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "inter",
                     "expected inter section, got " << tag);
  auto read_inter = [&](const char* name) {
    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == name,
                       "expected inter matrix " << name << ", got " << tag);
    Matrix<double> m(num_classes, num_classes);
    for (std::size_t a = 0; a < num_classes; ++a) {
      for (std::size_t b = 0; b < num_classes; ++b) {
        is >> m(a, b);
        OPTIBAR_IO_REQUIRE(!is.fail() && std::isfinite(m(a, b)),
                           "truncated or non-finite inter " << name
                                                            << " entry");
      }
    }
    return m;
  };
  out.inter_o_ = read_inter("O");
  out.inter_l_ = read_inter("L");
  if (out.has_g_) {
    out.inter_g_ = read_inter("G");
  }
  if (out.has_r_) {
    out.inter_r_ = read_inter("R");
  }
  // Adapted: the private rebuild_local_index() + validate() run inside
  // the public constructor. It takes the G/R flags from the tiles, and
  // validate() ties them to the inter matrices read under the declared
  // flags, so every verdict is the same.
  try {
    return TiledProfile(std::move(out.clusters_), std::move(out.class_of_),
                        std::move(out.tiles_), std::move(out.inter_o_),
                        std::move(out.inter_l_), std::move(out.inter_g_),
                        std::move(out.inter_r_), out.tolerance_);
  } catch (const Error& e) {
    throw IoError(e.what());
  }
}

StoredSchedule load_schedule(std::istream& is) {
  std::string magic;
  std::string version;
  is >> magic >> version;
  OPTIBAR_IO_REQUIRE(!is.fail() && magic == kScheduleMagic,
                     "not an optibar schedule (magic '" << magic << "')");
  OPTIBAR_IO_REQUIRE(version == "v1" || version == "v2",
                     "unsupported schedule version " << version);
  const bool v2 = version == "v2";

  std::string tag;
  std::size_t p = 0;
  std::size_t stages = 0;
  is >> tag >> p;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "P" && p > 0,
                     "malformed schedule header (P)");
  OPTIBAR_IO_REQUIRE(p <= kScheduleMaxRanks,
                     "schedule header claims " << p << " ranks (cap "
                                               << kScheduleMaxRanks << ")");
  is >> tag >> stages;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "stages",
                     "malformed schedule header (stages)");
  OPTIBAR_IO_REQUIRE(stages <= kScheduleMaxStages,
                     "schedule header claims " << stages << " stages (cap "
                                               << kScheduleMaxStages << ")");

  StoredSchedule out;
  DenseSchedule dense(p);
  is >> tag;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "awaited",
                     "malformed schedule header (awaited)");
  out.awaited_stages.resize(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    int flag = 0;
    is >> flag;
    OPTIBAR_IO_REQUIRE(!is.fail(),
                       "truncated schedule: awaited flag " << i << " missing");
    OPTIBAR_IO_REQUIRE(flag == 0 || flag == 1, "awaited flag must be 0/1");
    out.awaited_stages[i] = flag == 1;
  }
  auto read_matrix = [&](const char* what, std::size_t st) {
    StageMatrix m(p, p, 0);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) {
        int v = 0;
        is >> v;
        OPTIBAR_IO_REQUIRE(!is.fail(), "truncated schedule: "
                                           << what << st << " cell (" << r
                                           << ", " << c << ") missing");
        OPTIBAR_IO_REQUIRE(v == 0 || v == 1,
                           what << " cell must be 0/1");
        m(r, c) = static_cast<std::uint8_t>(v);
      }
    }
    return m;
  };
  for (std::size_t st = 0; st < stages; ++st) {
    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail(),
                       "truncated schedule: stage S" << st << " missing");
    OPTIBAR_IO_REQUIRE(tag == "S" + std::to_string(st),
                       "expected stage tag S" << st << ", got " << tag);
    dense.append_stage(read_matrix("stage S", st));
    if (v2) {
      is >> tag;
      OPTIBAR_IO_REQUIRE(!is.fail(), "truncated schedule: transport T"
                                         << st << " missing");
      OPTIBAR_IO_REQUIRE(tag == "T" + std::to_string(st),
                         "expected transport tag T" << st << ", got " << tag);
      // set_transport validates transport(i,j) => stage(i,j) and
      // normalizes all-zero to the empty (two-sided) spelling.
      dense.set_transport(st, read_matrix("transport T", st));
    }
  }
  OPTIBAR_IO_REQUIRE(is.good() || is.eof(),
                     "I/O error while reading schedule");
  out.schedule = to_edges(dense);

  // Safety gate: refuse plans that could hang a runtime. Non-barrier
  // patterns still load — analysis/validate commands inspect those —
  // but a cyclic awaited stage or inconsistent awaited flags can
  // deadlock eager replay, so they never leave the loader.
  const ValidationResult validation = validate_schedule(out);
  OPTIBAR_IO_REQUIRE(validation.deadlock_free(),
                     "unsafe schedule rejected: " << validation.describe());
  return out;
}

CollectiveSchedule load_collective(std::istream& is) {
  std::string magic;
  std::string version;
  is >> magic >> version;
  OPTIBAR_IO_REQUIRE(!is.fail() && magic == kCollectiveMagic,
                     "not an optibar collective schedule (magic '" << magic
                                                                   << "')");
  OPTIBAR_IO_REQUIRE(version == "v1",
                     "unsupported collective schedule version " << version);

  std::string tag;
  std::string op_name;
  is >> tag >> op_name;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "op",
                     "malformed collective header (op)");
  const CollectiveOp op = parse_op(op_name);
  std::size_t p = 0;
  is >> tag >> p;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "P" && p > 0,
                     "malformed collective header (P)");
  OPTIBAR_IO_REQUIRE(p <= kCollectiveMaxRanks, "collective rank count "
                                         << p << " exceeds the format cap ("
                                         << kCollectiveMaxRanks << ")");
  std::size_t root = 0;
  is >> tag >> root;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "root",
                     "malformed collective header (root)");
  OPTIBAR_IO_REQUIRE(root < p, "root " << root << " out of range for " << p
                                       << " ranks");
  std::size_t elem_count = 0;
  std::size_t elem_bytes = 0;
  is >> tag >> elem_count >> elem_bytes;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "elems" && elem_bytes > 0,
                     "malformed collective header (elems)");
  OPTIBAR_IO_REQUIRE(elem_bytes <= kMaxElemBytes,
                     "element width " << elem_bytes
                                      << " exceeds the format cap ("
                                      << kMaxElemBytes << ")");
  OPTIBAR_IO_REQUIRE(
      elem_count <= std::numeric_limits<std::size_t>::max() / elem_bytes,
      "elems header overflows (" << elem_count << " x " << elem_bytes << ")");
  std::size_t stages = 0;
  is >> tag >> stages;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "stages",
                     "malformed collective header (stages)");
  OPTIBAR_IO_REQUIRE(stages <= kCollectiveMaxStages,
                     "collective stage count "
                         << stages << " exceeds the format cap (" << kCollectiveMaxStages
                         << ")");

  CollectiveSchedule out(op, p, elem_count, elem_bytes, root);
  for (std::size_t s = 0; s < stages; ++s) {
    std::size_t edges = 0;
    is >> tag >> edges;
    std::string expected("S");
    expected += std::to_string(s);
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == expected,
                       "expected stage tag S" << s << ", got " << tag);
    // A stage is a set of distinct directed pairs, so p*p bounds it.
    OPTIBAR_IO_REQUIRE(edges <= p * p, "stage " << s << " claims " << edges
                                                << " edges for " << p
                                                << " ranks");
    CollectiveStage stage;
    stage.reserve(edges);
    for (std::size_t e = 0; e < edges; ++e) {
      CollectiveEdge edge;
      int combine = -1;
      is >> edge.src >> edge.dst >> edge.offset >> edge.count >> combine;
      // fail() (not good()) so a truncated file cannot pass as eof.
      OPTIBAR_IO_REQUIRE(!is.fail(),
                         "truncated or malformed stage line in stage " << s);
      OPTIBAR_IO_REQUIRE(combine == 0 || combine == 1,
                         "combine flag must be 0/1, got " << combine);
      edge.combine = combine == 1;
      stage.push_back(edge);
    }
    // append_stage re-validates ranges, self edges and duplicates;
    // surface those as parse (Io) errors too — the bad data came from
    // the stream, not from a caller bug.
    try {
      out.append_stage(std::move(stage));
    } catch (const Error& error) {
      OPTIBAR_IO_FAIL("invalid stage " << s << ": " << error.what());
    }
  }
  OPTIBAR_IO_REQUIRE(is.good() || is.eof(),
                     "I/O error while reading collective schedule");
  return out;
}

std::vector<PlanStoreRecord> load_plan_store(std::istream& is,
                                             std::size_t expected_ranks) {
  std::string magic;
  std::string version;
  is >> magic >> version;
  OPTIBAR_IO_REQUIRE(!is.fail() && magic == kStoreMagic,
                     "not an optibar plan store (magic '" << magic << "')");
  OPTIBAR_IO_REQUIRE(version == "v1",
                     "unsupported plan-store version " << version);

  std::string tag;
  std::size_t ranks = 0;
  is >> tag >> ranks;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "ranks" && ranks > 0,
                     "malformed plan-store header (ranks)");
  OPTIBAR_IO_REQUIRE(ranks <= kStoreMaxRanks, "plan-store header claims "
                                             << ranks << " ranks (cap "
                                             << kStoreMaxRanks << ")");
  OPTIBAR_IO_REQUIRE(ranks == expected_ranks,
                     "plan store was saved for " << ranks
                                                 << " ranks; this profile has "
                                                 << expected_ranks);
  std::size_t entries = 0;
  is >> tag >> entries;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "entries",
                     "malformed plan-store header (entries)");
  OPTIBAR_IO_REQUIRE(entries <= kMaxEntries,
                     "plan-store header claims " << entries << " entries (cap "
                                                 << kMaxEntries << ")");

  std::vector<PlanStoreRecord> records;
  records.reserve(entries);
  std::set<std::vector<std::size_t>> seen_subsets;
  for (std::size_t k = 0; k < entries; ++k) {
    std::size_t index = 0;
    is >> tag >> index;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "entry" && index == k,
                       "truncated plan store: entry " << k << " missing");
    PlanStoreRecord record;

    const std::size_t subset_size = read_count(is, "subset", k);
    OPTIBAR_IO_REQUIRE(subset_size > 0 && subset_size <= ranks,
                       "entry " << k << ": subset size " << subset_size
                                << " out of range (1.." << ranks << ")");
    record.subset.resize(subset_size);
    std::set<std::size_t> seen_ranks;
    for (std::size_t i = 0; i < subset_size; ++i) {
      is >> record.subset[i];
      OPTIBAR_IO_REQUIRE(!is.fail(), "truncated plan store: entry "
                                         << k << " subset rank " << i
                                         << " missing");
      OPTIBAR_IO_REQUIRE(record.subset[i] < ranks,
                         "entry " << k << ": rank " << record.subset[i]
                                  << " out of range (" << ranks << ")");
      OPTIBAR_IO_REQUIRE(seen_ranks.insert(record.subset[i]).second,
                         "entry " << k << ": duplicate rank "
                                  << record.subset[i]);
    }
    OPTIBAR_IO_REQUIRE(seen_subsets.insert(record.subset).second,
                       "entry " << k << ": duplicate subset in plan store");

    std::string state_name;
    is >> tag >> state_name;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "state",
                       "malformed plan-store entry " << k
                                                     << ": expected 'state'");
    try {
      record.state = plan_state_from_string(state_name);
    } catch (const Error&) {
      OPTIBAR_IO_FAIL("entry " << k << ": unknown plan state '" << state_name
                               << "'");
    }
    OPTIBAR_IO_REQUIRE(record.state != PlanState::kRetuning,
                       "entry " << k
                                << ": a stored plan cannot be mid-retune");

    record.failures = read_count(is, "failures", k);
    record.repair_attempts = read_count(is, "repairs", k);
    record.probation_left = read_count(is, "probation", k);
    is >> tag >> record.predicted_cost;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "predicted",
                       "malformed plan-store entry "
                           << k << ": expected 'predicted'");
    OPTIBAR_IO_REQUIRE(
        std::isfinite(record.predicted_cost) && record.predicted_cost >= 0.0,
        "entry " << k << ": predicted cost must be finite and non-negative");

    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "reason",
                       "malformed plan-store entry " << k
                                                     << ": expected 'reason'");
    std::string reason_line;
    std::getline(is, reason_line);
    OPTIBAR_IO_REQUIRE(!is.fail(), "truncated plan store: entry "
                                       << k << " reason missing");
    if (!reason_line.empty() && reason_line.front() == ' ') {
      reason_line.erase(reason_line.begin());
    }
    OPTIBAR_IO_REQUIRE(!reason_line.empty(),
                       "malformed plan-store entry " << k
                                                     << ": empty reason line");
    record.reason = unescape_reason(reason_line);

    is >> tag;
    OPTIBAR_IO_REQUIRE(!is.fail() && tag == "plan",
                       "truncated plan store: entry " << k
                                                      << " plan missing");
    record.plan = oracle::load_schedule(is);  // hardened loader; throws IoError
    OPTIBAR_IO_REQUIRE(record.plan.schedule.ranks() == subset_size,
                       "entry " << k << ": plan is over "
                                << record.plan.schedule.ranks()
                                << " ranks but the subset has "
                                << subset_size);
    records.push_back(std::move(record));
  }
  is >> tag;
  OPTIBAR_IO_REQUIRE(!is.fail() && tag == "end",
                     "truncated plan store: trailing 'end' missing");
  return records;
}

}  // namespace optibar::oracle
