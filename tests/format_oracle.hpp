// The disk loaders as they were before the shared Scanner: every
// format read with istream >>, copied verbatim from the last release
// that had them. test_format_oracle compares value-or-IoError between
// these and the production loaders; nothing outside that test links
// this file.
#pragma once

#include <cstddef>
#include <istream>
#include <vector>

#include "barrier/schedule_io.hpp"
#include "collective/schedule.hpp"
#include "core/plan_store.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/profile.hpp"

namespace optibar::oracle {

TopologyProfile load_profile(std::istream& is);
TiledProfile load_tiled_profile(std::istream& is);
StoredSchedule load_schedule(std::istream& is);
CollectiveSchedule load_collective(std::istream& is);
std::vector<PlanStoreRecord> load_plan_store(std::istream& is,
                                             std::size_t expected_ranks);

}  // namespace optibar::oracle
