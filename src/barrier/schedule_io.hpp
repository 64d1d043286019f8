// Schedule serialisation.
//
// Tuned schedules are artefacts worth keeping: the CLI writes them next
// to the profile they were tuned from, and the runtime library
// (src/core/library.hpp) indexes them at barrier-call time — the
// "solution which stores the profile in a manner which can be
// efficiently indexed at run-time" the paper's Section VIII asks for.
// The format is versioned text: each stage as its P x P incidence
// matrix in 0/1 rows (read into, and written from, the stage's sorted
// signals), plus the per-stage awaited (departure) flags the Eq. 2
// predictor needs. Spelling out P^2 cells per stage caps the writer at
// kMaxDenseTextRanks (8192) ranks, checked before anything is written.
// v2 appends a `T<stage>` transport matrix (the one-sided subset) after
// each stage that carries one; pure two-sided schedules still save as
// v1, byte-identical to pre-RMA builds, and v1 files load with every
// edge defaulting to two-sided.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "barrier/schedule.hpp"

namespace optibar {

class Scanner;

/// A schedule plus the departure-stage flags produced by the composer.
struct StoredSchedule {
  Schedule schedule{1};
  std::vector<bool> awaited_stages;  ///< empty = all Eq. 1
};

void save_schedule(std::ostream& os, const StoredSchedule& stored);
StoredSchedule load_schedule(std::istream& is);

/// The same body for a schedule nested in a larger file (a plan-store
/// record): reads from the enclosing file's scanner, magic line first.
StoredSchedule load_schedule(Scanner& in);

void save_schedule_file(const std::string& path, const StoredSchedule& stored);
StoredSchedule load_schedule_file(const std::string& path);

}  // namespace optibar
