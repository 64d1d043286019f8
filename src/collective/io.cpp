#include "collective/io.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/scanner.hpp"

namespace optibar {

namespace {

constexpr const char* kMagic = "optibar-collective";

// Hard caps on untrusted on-disk counts: reject absurd headers before
// they size any allocation. Generous relative to anything the engine
// produces (the tuner tops out at dozens of ranks and stages).
constexpr std::size_t kMaxRanks = 8192;
constexpr std::size_t kMaxStages = 100000;
constexpr std::size_t kMaxElemBytes = 65536;

CollectiveOp parse_op(std::string_view name) {
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

}  // namespace

void save_collective(std::ostream& os, const CollectiveSchedule& schedule) {
  os << kMagic << " v1\n";
  os << "op " << to_string(schedule.op()) << '\n';
  os << "P " << schedule.ranks() << '\n';
  os << "root " << schedule.root() << '\n';
  os << "elems " << schedule.elem_count() << ' ' << schedule.elem_bytes()
     << '\n';
  os << "stages " << schedule.stage_count() << '\n';
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    const CollectiveStage& stage = schedule.stage(s);
    os << 'S' << s << ' ' << stage.size() << '\n';
    for (const CollectiveEdge& e : stage) {
      os << e.src << ' ' << e.dst << ' ' << e.offset << ' ' << e.count << ' '
         << (e.combine ? 1 : 0) << '\n';
    }
  }
  OPTIBAR_REQUIRE(os.good(), "I/O error while writing collective schedule");
}

CollectiveSchedule load_collective(std::istream& is) {
  Scanner in(is);
  const std::string_view magic = in.token("collective magic");
  OPTIBAR_IO_REQUIRE(magic == kMagic,
                     "not an optibar collective schedule (magic '" << magic
                                                                   << "')");
  const std::string_view version = in.token("collective version");
  OPTIBAR_IO_REQUIRE(version == "v1",
                     "unsupported collective schedule version " << version);

  in.expect("op");
  const CollectiveOp op = parse_op(in.token("collective op"));
  in.expect("P");
  const std::size_t p = in.count("collective rank count", kMaxRanks);
  OPTIBAR_IO_REQUIRE(p > 0, "malformed collective header (P)");
  in.expect("root");
  const std::size_t root = in.count("collective root", Scanner::kNoCap);
  OPTIBAR_IO_REQUIRE(root < p, "root " << root << " out of range for " << p
                                       << " ranks");
  in.expect("elems");
  const std::size_t elem_count = in.count("element count", Scanner::kNoCap);
  const std::size_t elem_bytes = in.count("element width", kMaxElemBytes);
  OPTIBAR_IO_REQUIRE(elem_bytes > 0, "malformed collective header (elems)");
  OPTIBAR_IO_REQUIRE(
      elem_count <= std::numeric_limits<std::size_t>::max() / elem_bytes,
      "elems header overflows (" << elem_count << " x " << elem_bytes << ")");
  in.expect("stages");
  const std::size_t stages = in.count("collective stage count", kMaxStages);

  CollectiveSchedule out(op, p, elem_count, elem_bytes, root);
  for (std::size_t s = 0; s < stages; ++s) {
    in.expect("S", s);
    // A stage is a set of distinct directed pairs, so p*p bounds it; the
    // edge list still grows with the rows read, not with this claim.
    const std::size_t edges = in.count("stage edge count", p * p);
    CollectiveStage stage;
    for (std::size_t e = 0; e < edges; ++e) {
      CollectiveEdge edge;
      edge.src = in.count("edge source", Scanner::kNoCap);
      edge.dst = in.count("edge destination", Scanner::kNoCap);
      edge.offset = in.count("edge offset", Scanner::kNoCap);
      edge.count = in.count("edge element count", Scanner::kNoCap);
      edge.combine = in.count("edge combine flag", 1) == 1;
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
  return out;
}

void save_collective_file(const std::string& path,
                          const CollectiveSchedule& schedule) {
  std::ofstream os(path);
  OPTIBAR_REQUIRE(os.is_open(), "cannot open " << path << " for writing");
  save_collective(os, schedule);
}

CollectiveSchedule load_collective_file(const std::string& path) {
  std::ifstream is(path);
  OPTIBAR_IO_REQUIRE(is.is_open(), "cannot open " << path << " for reading");
  return load_collective(is);
}

}  // namespace optibar
