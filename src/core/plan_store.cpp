#include "core/plan_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <string_view>

#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {

namespace {

constexpr const char* kMagic = "optibar-plan-store";

// Header sanity caps, same doctrine as schedule_io: a lying header must
// not drive allocation.
constexpr std::size_t kMaxRanks = 8192;
constexpr std::size_t kMaxEntries = 100000;

/// Reasons are free text that may span lines (StallReport::describe is
/// multi-line); the store is line-oriented, so reasons are stored on one
/// line with backslash escapes. "-" encodes the empty reason, so a
/// reason that is exactly "-" is written "\-".
std::string escape_reason(const std::string& reason) {
  if (reason.empty()) {
    return "-";
  }
  if (reason == "-") {
    return "\\-";  // a literal "-" would read back as the empty reason
  }
  std::string out;
  out.reserve(reason.size());
  for (char c : reason) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_reason(std::string_view text) {
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
      case '-':
        out += '-';
        break;
      default:
        OPTIBAR_IO_FAIL("unknown escape '\\" << next << "' in reason line");
    }
  }
  return out;
}

}  // namespace

void save_plan_store(std::ostream& os, std::size_t ranks,
                     std::vector<PlanStoreRecord> records) {
  OPTIBAR_REQUIRE(ranks > 0, "plan store needs a positive rank count");
  std::sort(records.begin(), records.end(),
            [](const PlanStoreRecord& a, const PlanStoreRecord& b) {
              return a.subset < b.subset;
            });
  os << kMagic << " v1\n";
  os << "ranks " << ranks << '\n';
  os << "entries " << records.size() << '\n';
  for (std::size_t k = 0; k < records.size(); ++k) {
    const PlanStoreRecord& record = records[k];
    OPTIBAR_REQUIRE(record.plan.schedule.ranks() == record.subset.size(),
                    "record " << k << ": plan is over "
                              << record.plan.schedule.ranks()
                              << " ranks but the subset has "
                              << record.subset.size());
    // A live repair does not survive the process; persist it as the
    // quarantine it came from so the restarted service re-runs it.
    const PlanState state = record.state == PlanState::kRetuning
                                ? PlanState::kQuarantined
                                : record.state;
    os << "entry " << k << '\n';
    os << "subset " << record.subset.size();
    for (std::size_t rank : record.subset) {
      os << ' ' << rank;
    }
    os << '\n';
    os << "state " << to_string(state) << '\n';
    os << "failures " << record.failures << '\n';
    os << "repairs " << record.repair_attempts << '\n';
    os << "probation " << record.probation_left << '\n';
    os << "predicted " << record.predicted_cost << '\n';
    os << "reason " << escape_reason(record.reason) << '\n';
    os << "plan\n";
    save_schedule(os, record.plan);
  }
  os << "end\n";
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing plan store");
}

std::vector<PlanStoreRecord> load_plan_store(std::istream& is,
                                             std::size_t expected_ranks) {
  Scanner in(is);
  const std::string_view magic = in.token("plan-store magic");
  OPTIBAR_IO_REQUIRE(magic == kMagic,
                     "not an optibar plan store (magic '" << magic << "')");
  const std::string_view version = in.token("plan-store version");
  OPTIBAR_IO_REQUIRE(version == "v1",
                     "unsupported plan-store version " << version);

  in.expect("ranks");
  const std::size_t ranks = in.count("plan-store rank count", kMaxRanks);
  OPTIBAR_IO_REQUIRE(ranks > 0, "malformed plan-store header (ranks)");
  OPTIBAR_IO_REQUIRE(ranks == expected_ranks,
                     "plan store was saved for " << ranks
                                                 << " ranks; this profile has "
                                                 << expected_ranks);
  in.expect("entries");
  const std::size_t entries = in.count("plan-store entry count", kMaxEntries);

  // Records and subsets grow with the data read, never with a header.
  std::vector<PlanStoreRecord> records;
  std::set<std::vector<std::size_t>> seen_subsets;
  for (std::size_t k = 0; k < entries; ++k) {
    in.expect("entry");
    OPTIBAR_IO_REQUIRE(in.count("entry index", k) == k,
                       "truncated plan store: entry " << k << " missing");
    PlanStoreRecord record;

    in.expect("subset");
    const std::size_t subset_size = in.count("subset size", ranks);
    OPTIBAR_IO_REQUIRE(subset_size > 0,
                       "entry " << k << ": subset size " << subset_size
                                << " out of range (1.." << ranks << ")");
    std::set<std::size_t> seen_ranks;
    for (std::size_t i = 0; i < subset_size; ++i) {
      record.subset.push_back(in.count("subset rank", ranks - 1));
      OPTIBAR_IO_REQUIRE(seen_ranks.insert(record.subset[i]).second,
                         "entry " << k << ": duplicate rank "
                                  << record.subset[i]);
    }
    OPTIBAR_IO_REQUIRE(seen_subsets.insert(record.subset).second,
                       "entry " << k << ": duplicate subset in plan store");

    in.expect("state");
    const std::string state_name(in.token("plan state"));
    try {
      record.state = plan_state_from_string(state_name);
    } catch (const Error&) {
      OPTIBAR_IO_FAIL("entry " << k << ": unknown plan state '" << state_name
                               << "'");
    }
    OPTIBAR_IO_REQUIRE(record.state != PlanState::kRetuning,
                       "entry " << k
                                << ": a stored plan cannot be mid-retune");

    in.expect("failures");
    record.failures = in.count("failures", Scanner::kNoCap);
    in.expect("repairs");
    record.repair_attempts = in.count("repairs", Scanner::kNoCap);
    in.expect("probation");
    record.probation_left = in.count("probation", Scanner::kNoCap);
    in.expect("predicted");
    record.predicted_cost = in.finite("predicted cost");
    OPTIBAR_IO_REQUIRE(record.predicted_cost >= 0.0,
                       "entry " << k
                                << ": predicted cost must be non-negative");

    in.expect("reason");
    const std::string line = in.rest_of_line("reason");
    std::string_view reason_line = line;
    if (!reason_line.empty() && reason_line.front() == ' ') {
      reason_line.remove_prefix(1);
    }
    OPTIBAR_IO_REQUIRE(!reason_line.empty(),
                       "malformed plan-store entry " << k
                                                     << ": empty reason line");
    record.reason = unescape_reason(reason_line);

    in.expect("plan");
    record.plan = load_schedule(in);  // hardened loader; throws IoError
    OPTIBAR_IO_REQUIRE(record.plan.schedule.ranks() == subset_size,
                       "entry " << k << ": plan is over "
                                << record.plan.schedule.ranks()
                                << " ranks but the subset has "
                                << subset_size);
    records.push_back(std::move(record));
  }
  in.expect("end");
  return records;
}

void save_plan_store_file(const std::string& path, std::size_t ranks,
                          std::vector<PlanStoreRecord> records) {
  // Rename-on-write: the store at `path` is either the old complete
  // file or the new complete file, never a torn mix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    OPTIBAR_IO_REQUIRE(os.is_open(), "cannot open " << tmp << " for writing");
    save_plan_store(os, ranks, std::move(records));
    os.flush();
    OPTIBAR_IO_REQUIRE(os.good(), "I/O error while writing " << tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  OPTIBAR_IO_REQUIRE(!ec, "cannot move " << tmp << " into place: "
                                         << ec.message());
}

std::vector<PlanStoreRecord> load_plan_store_file(const std::string& path,
                                                  std::size_t expected_ranks) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  return load_plan_store(is, expected_ranks);
}

}  // namespace optibar
