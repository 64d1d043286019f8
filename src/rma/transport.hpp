// Transport selection: which signals of a schedule travel one-sided.
//
// The tuner's search explores *signal patterns* (which rank signals
// which, per stage) with a transport-oblivious predictor; transports
// are assigned afterwards, here. Under the extended cost model a put
// edge i -> j swaps the rendezvous startup O(i, j) for the local
// O(i, i), delivers R(i, j) after the sender's batch instead of
// charging the receiver's serial completion processing, and keeps its
// L(i, j) injection term — so an edge prefers one-sided exactly where
// remote-write delivery beats rendezvous-plus-processing, which on the
// modelled clusters holds across node boundaries (hardware RDMA) but
// not within a node (the paper's shared-memory ranks complete
// two-sided signals cheaply, while a loopback put still pays the NIC
// round through R).
//
// Policies:
//   kTwoSided — strip every transport tag (the classic schedule);
//   kOneSided — tag every signal as a put;
//   kHybrid   — greedy per-edge descent: start from the cheaper of the
//               two uniform assignments, flip single edges while the
//               predicted critical path strictly improves, then
//               normalize by untagging every put whose removal does
//               not raise the cost — so the result carries puts only
//               where the model says they earn their keep, never as
//               leftovers of the all-one-sided start. The schedule is
//               compiled once (CompiledSchedule); a flip is one
//               set_one_sided() edge patch, O(out-degree + in-degree),
//               plus one compiled evaluation, bit-identical to
//               recompiling the re-tagged schedule. The tags live in
//               the compiled CSR during the search and are written
//               back onto the Schedule's signals once, at the end. The
//               whole procedure is
//               deterministic (stages ascending, edges in (src, dst)
//               scan order).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "barrier/schedule.hpp"
#include "core/engine_options.hpp"
#include "core/tuner.hpp"
#include "topology/profile.hpp"

namespace optibar::rma {

enum class Transport {
  kTwoSided,  ///< every signal is a matched send/recv (classic)
  kOneSided,  ///< every signal is an RMA put
  kHybrid,    ///< per-edge choice by predicted cost
};

/// "two-sided" / "one-sided" / "hybrid".
const char* transport_name(Transport transport);

/// Inverse of transport_name; throws optibar::Error on anything else.
Transport parse_transport(const std::string& name);

/// Rewrite `schedule`'s transport tags according to `policy` and
/// return the predicted critical path of the result (Eq. 2 on the
/// stages flagged in `awaited_stages`). kTwoSided leaves the schedule
/// tag-free — saving it emits the v1 format, bit-identical to a
/// pre-RMA build.
double assign_transports(Schedule& schedule, const TopologyProfile& profile,
                         const std::vector<bool>& awaited_stages,
                         Transport policy);

/// A tuned barrier with transports assigned: the transport-oblivious
/// tune_barrier() result plus the tagged schedule and its re-predicted
/// cost. `schedule` differs from `tuned.schedule()` only in transport
/// tags (and not at all under kTwoSided, where cost ==
/// tuned.predicted_cost() bit for bit).
struct TransportTune {
  TuneResult tuned;
  Schedule schedule;
  double cost = 0.0;
  Transport transport = Transport::kTwoSided;
  std::size_t one_sided_signals = 0;  ///< tagged edges in `schedule`
};

/// tune_barrier() followed by assign_transports() on a copy of the
/// tuned schedule.
TransportTune tune_transport(const TopologyProfile& profile,
                             const EngineOptions& options, Transport policy);

/// Enumerate all three policies over one tune_barrier() result and
/// return the cheapest. Ties resolve toward the simpler transport
/// (two-sided, then one-sided, then hybrid), so a profile that gains
/// nothing from puts — e.g. one without R data, priced at the L
/// fallback — comes back untagged and bit-identical to tune_barrier().
TransportTune tune_best_transport(const TopologyProfile& profile,
                                  const EngineOptions& options);

}  // namespace optibar::rma
