#include "barrier/schedule_io.hpp"

#include <cstdint>
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
// hundred" throughout the paper) but small enough that P*P stage
// matrices stay well under memory limits.
constexpr std::size_t kMaxRanks = 8192;
constexpr std::size_t kMaxStages = 100000;
}  // namespace

void save_schedule(std::ostream& os, const StoredSchedule& stored) {
  const Schedule& s = stored.schedule;
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
  auto dump = [&](const StageMatrix& m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        os << static_cast<int>(m(r, c)) << (c + 1 == m.cols() ? '\n' : ' ');
      }
    }
  };
  for (std::size_t st = 0; st < s.stage_count(); ++st) {
    os << "S" << st << '\n';
    dump(s.stage(st));
    if (v2) {
      // Every stage gets a T matrix in v2 (all-zero when two-sided), so
      // the reader never has to look ahead to tell T<st> from S<st+1>.
      os << "T" << st << '\n';
      const StageMatrix& t = s.transport(st);
      dump(t.empty() ? StageMatrix(s.ranks(), s.ranks(), 0) : t);
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
  // Cells grow with the data read, never with the header's P.
  auto read_matrix = [&](const char* what) {
    std::vector<std::uint8_t> cells;
    for (std::size_t i = 0; i < p * p; ++i) {
      cells.push_back(static_cast<std::uint8_t>(in.count(what, 1)));
    }
    return StageMatrix(p, p, std::move(cells));
  };
  for (std::size_t st = 0; st < stages; ++st) {
    in.expect("S", st);
    StageMatrix stage = read_matrix("stage cell");
    StageMatrix transport;
    if (v2) {
      in.expect("T", st);
      transport = read_matrix("transport cell");
    }
    // append_stage refuses a self-signal and set_transport a one-sided
    // edge outside its stage; the bad data came from the file, so they
    // surface as parse (Io) errors. set_transport also normalizes an
    // all-zero T to the empty (two-sided) spelling.
    try {
      out.schedule.append_stage(std::move(stage));
      if (v2) {
        out.schedule.set_transport(st, std::move(transport));
      }
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
