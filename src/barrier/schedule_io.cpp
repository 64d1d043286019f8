#include "barrier/schedule_io.hpp"

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "barrier/validate.hpp"
#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {

namespace {
constexpr const char* kMagic = "optibar-schedule";

// Header sanity caps: a lying header must not drive allocation. The
// limits are far above anything the tuner produces (P is "a few
// hundred" throughout the paper); the rank cap is the writers' cap on
// P^2-cell text, so every file a writer produces loads.
constexpr std::size_t kMaxRanks = kMaxDenseTextRanks;
constexpr std::size_t kMaxStages = 100000;

/// The text form spells out P^2 cells per stage; refuse before writing
/// (or creating a file) rather than halfway through.
void check_text_ranks(const Schedule& schedule) {
  OPTIBAR_REQUIRE(schedule.ranks() <= kMaxDenseTextRanks,
                  "refusing to write a " << schedule.ranks()
                                         << "-rank schedule: the text format "
                                            "spells out P x P cells per stage "
                                            "(at most "
                                         << kMaxDenseTextRanks << " ranks)");
}
}  // namespace

void save_schedule(std::ostream& os, const StoredSchedule& stored) {
  const Schedule& s = stored.schedule;
  check_text_ranks(s);
  OPTIBAR_REQUIRE(stored.awaited_stages.empty() ||
                      stored.awaited_stages.size() == s.stage_count(),
                  "awaited_stages must be empty or match stage count");
  // v1 unless some stage carries one-sided edges, so pure two-sided
  // schedules stay byte-identical to pre-RMA builds and readable by
  // pre-RMA readers.
  const bool v2 = s.has_one_sided();
  os << kMagic << (v2 ? " v2\n" : " v1\n");
  os << "P " << s.ranks() << '\n';
  os << "stages " << s.stage_count() << '\n';
  os << "awaited";
  if (stored.awaited_stages.empty()) {
    for (std::size_t i = 0; i < s.stage_count(); ++i) {
      os << " 0";
    }
  } else {
    for (bool awaited : stored.awaited_stages) {
      os << ' ' << (awaited ? 1 : 0);
    }
  }
  os << '\n';
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    os << "S" << st << '\n';
    write_stage_cells(os, s, st, /*transports=*/false);
    if (v2) {
      // Every stage gets a T matrix in v2 (all-zero when two-sided), so
      // the reader never has to look ahead to tell T<st> from S<st+1>.
      os << "T" << st << '\n';
      write_stage_cells(os, s, st, /*transports=*/true);
    }
  }
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing schedule");
}

StoredSchedule load_schedule(std::istream& is) {
  Scanner in(is);
  return load_schedule(in);
}

StoredSchedule load_schedule(Scanner& in) {
  const std::string_view magic = in.token("schedule magic");
  OPTIBAR_IO_REQUIRE(magic == kMagic,
                     "not an optibar schedule (magic '" << magic << "')");
  const std::string_view version = in.token("schedule version");
  OPTIBAR_IO_REQUIRE(version == "v1" || version == "v2",
                     "unsupported schedule version " << version);
  const bool v2 = version == "v2";

  in.expect("P");
  const std::size_t p = in.count("schedule rank count", kMaxRanks);
  OPTIBAR_IO_REQUIRE(p > 0, "malformed schedule header (P)");
  in.expect("stages");
  const std::size_t stages = in.count("schedule stage count", kMaxStages);

  StoredSchedule out;
  out.schedule = Schedule(p);
  in.expect("awaited");
  for (std::size_t i = 0; i < stages; ++i) {
    out.awaited_stages.push_back(in.count("awaited flag", 1) == 1);
  }
  // Rows are read into signals as they come, so memory grows with the
  // data read, never with the header's P.
  auto read_cells = [&](const char* what, auto&& on_one) {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (in.count(what, 1) == 1) {
          on_one(i, j);
        }
      }
    }
  };
  for (std::size_t st = 0; st < stages; ++st) {
    in.expect("S", st);
    Stage stage;
    read_cells("stage cell", [&](std::size_t i, std::size_t j) {
      stage.push_back(Signal{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j)});
    });
    if (v2) {
      in.expect("T", st);
      // The T cells ascend like the signals: one cursor tags them.
      std::size_t k = 0;
      read_cells("transport cell", [&](std::size_t i, std::size_t j) {
        while (k < stage.size() && (stage[k].src < i ||
                                    (stage[k].src == i && stage[k].dst < j))) {
          ++k;
        }
        OPTIBAR_IO_REQUIRE(k < stage.size() && stage[k].src == i &&
                               stage[k].dst == j,
                           "invalid stage "
                               << st << ": transport marks " << i << " -> "
                               << j << " of stage " << st
                               << " one-sided, but the stage has no such "
                                  "signal");
        stage[k].one_sided = true;
      });
    }
    // append_stage refuses a self-signal; the bad data came from the
    // file, so it surfaces as a parse (Io) error.
    try {
      out.schedule.append_stage(std::move(stage));
    } catch (const Error& error) {
      OPTIBAR_IO_FAIL("invalid stage " << st << ": " << error.what());
    }
  }

  // Safety gate: refuse plans that could hang a runtime. Non-barrier
  // patterns still load — analysis/validate commands inspect those —
  // but a cyclic awaited stage or inconsistent awaited flags can
  // deadlock eager replay, so they never leave the loader.
  const ValidationResult validation = validate_schedule(out);
  OPTIBAR_IO_REQUIRE(validation.deadlock_free(),
                     "unsafe schedule rejected: " << validation.describe());
  return out;
}

void save_schedule_file(const std::string& path, const StoredSchedule& stored) {
  check_text_ranks(stored.schedule);
  std::ofstream os(path);
  OPTIBAR_IO_REQUIRE(os.is_open(), "cannot open " << path << " for writing");
  save_schedule(os, stored);
}

StoredSchedule load_schedule_file(const std::string& path) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  return load_schedule(is);
}

}  // namespace optibar
