// Using optibar as a runtime library (Section VIII's proposed design).
//
// An "application" that knows nothing about topology-aware barriers:
// it loads the machine profile the admin installed, asks the
// BarrierLibrary for barriers — for the world and for a sub-communicator
// — and just calls them. Behind the scenes each request is tuned once
// and cached; repeated use costs a lookup.
//
// The second half shows the dynamic layer: the application reports its
// own observed pairwise costs, and the library re-tunes the plan it
// serves in the background when the amortization rule says it pays.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "core/library.hpp"
#include "netsim/engine.hpp"
#include "simmpi/executor.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

int main() {
  using namespace optibar;

  // --- Installation step (once per machine): profile to disk. ---
  const MachineSpec machine = quad_cluster(4);
  const std::size_t world = 32;
  const Mapping mapping = block_mapping(machine, world);
  const auto profile_path =
      std::filesystem::temp_directory_path() / "machine_profile.txt";
  generate_profile(machine, mapping).save_file(profile_path.string());
  std::cout << "installed machine profile at " << profile_path << "\n";

  // --- Application start-up: open the library. ---
  EngineOptions options;
  options.service.auto_repair = true;  // re-tune drifted plans
  // Our observations below are exact link measurements, so adopt them
  // outright instead of easing in with the default EWMA weight.
  options.service.drift_alpha = 1.0;
  BarrierLibrary library =
      BarrierLibrary::from_profile_file(profile_path.string(), options);
  std::cout << "library opened for " << library.ranks() << " ranks\n";

  // World barrier: tuned on first request, cached afterwards.
  const auto t0 = std::chrono::steady_clock::now();
  const LibraryEntry& world_barrier = library.full_barrier();
  const auto first = std::chrono::steady_clock::now() - t0;
  const auto t1 = std::chrono::steady_clock::now();
  library.full_barrier();
  const auto second = std::chrono::steady_clock::now() - t1;
  std::cout << "world barrier: "
            << world_barrier.stored.schedule.stage_count() << " stages, "
            << "first request "
            << std::chrono::duration<double, std::milli>(first).count()
            << " ms, cached request "
            << std::chrono::duration<double, std::micro>(second).count()
            << " us\n";

  // A sub-communicator: the ranks of node 2 only.
  const std::vector<std::size_t> node2{16, 17, 18, 19, 20, 21, 22, 23};
  const LibraryEntry& node_barrier = library.subset_plan(node2);
  std::cout.setf(std::ios::scientific);
  std::cout << "node-2 sub-barrier: predicted "
            << node_barrier.predicted_cost << " s vs world "
            << world_barrier.predicted_cost << " s\n";

  // Execute both on rank threads (local rank numbering for the subset).
  simmpi::ScheduleExecutor(world_barrier.stored.schedule).run_once();
  simmpi::ScheduleExecutor(node_barrier.stored.schedule).run_once();
  std::cout << "executed world and sub-communicator barriers ("
            << library.cache_size() << " cached tunings)\n";

  // --- Dynamic layer: conditions change at run time. ---
  // The scheduler re-placed our ranks round-robin; report what we see.
  // Draining the repair worker after each report keeps this run's
  // decisions reproducible; a real application just keeps going.
  const TopologyProfile drifted =
      generate_profile(machine, round_robin_mapping(machine, world));
  std::vector<std::size_t> all(world);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t i = 0; i < world; ++i) {
    for (std::size_t j = i + 1; j < world; ++j) {
      library.report_measured_overhead(all, i, j, drifted.o(i, j));
      library.wait_for_repairs();
      library.report_measured_latency(all, i, j, drifted.l(i, j));
      library.wait_for_repairs();
    }
  }
  const ServiceStats stats = library.stats();
  const LibraryEntry& adapted = library.full_barrier();
  std::cout << "after placement drift: " << stats.repairs_started
            << " background re-tunes, " << stats.drift_retunes
            << " promoted, served plan generation " << adapted.generation
            << ", predicted cost " << adapted.predicted_cost << " s\n";
  const double before =
      simulate(world_barrier.stored.schedule, drifted).barrier_time();
  const double after = simulate(adapted.stored.schedule, drifted).barrier_time();
  std::cout << "simulated on the drifted machine: stale schedule " << before
            << " s, served schedule " << after << " s\n";
  // The application's next world barrier runs the re-tuned plan.
  simmpi::ScheduleExecutor(adapted.stored.schedule).run_once();

  std::filesystem::remove(profile_path);
  return 0;
}
