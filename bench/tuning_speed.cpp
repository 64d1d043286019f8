// Google-benchmark: tuning pipeline speed.
//
// Section VIII: "With a topological model ready, the generation and
// evaluation of adapted patterns requires on the order of 0.1 seconds,
// making it feasible to periodically re-evaluate the efficiency of
// synchronization through changing conditions." This bench measures the
// clustering + composition + prediction pipeline (and its stages) at the
// paper's machine sizes.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "core/cluster_tree.hpp"
#include "core/composer.hpp"
#include "core/library.hpp"
#include "core/search.hpp"
#include "core/tuner.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace {

using namespace optibar;

TopologyProfile profile_for(std::size_t p) {
  const MachineSpec machine = p <= 64 ? quad_cluster() : hex_cluster();
  return generate_profile(machine, round_robin_mapping(machine, p));
}

void BM_FullTuningPipeline(benchmark::State& state) {
  const TopologyProfile profile =
      profile_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tune_barrier(profile));
  }
}
BENCHMARK(BM_FullTuningPipeline)->Arg(16)->Arg(32)->Arg(64)->Arg(120);

void BM_ClusterTreeOnly(benchmark::State& state) {
  const TopologyProfile profile =
      profile_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_cluster_tree(profile));
  }
}
BENCHMARK(BM_ClusterTreeOnly)->Arg(64)->Arg(120);

void BM_CompositionOnly(benchmark::State& state) {
  const TopologyProfile profile =
      profile_for(static_cast<std::size_t>(state.range(0)));
  const ClusterNode tree = build_cluster_tree(profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compose_barrier(profile, tree));
  }
}
BENCHMARK(BM_CompositionOnly)->Arg(64)->Arg(120);

void BM_PredictionOnly(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const TopologyProfile profile = profile_for(p);
  const TuneResult tuned = tune_barrier(profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predicted_time(tuned.schedule(), profile));
  }
}
BENCHMARK(BM_PredictionOnly)->Arg(64)->Arg(120);

// Same prediction with the schedule compiled once up front — the
// steady-state cost of re-pricing a cached plan (re-tune decisions,
// skew sweeps). bench_predict_throughput isolates the kernel further.
void BM_CompiledPredictionOnly(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const TopologyProfile profile = profile_for(p);
  const TuneResult tuned = tune_barrier(profile);
  const CompiledSchedule compiled(tuned.schedule(), profile);
  PredictWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predicted_time(compiled, {}, workspace));
  }
}
BENCHMARK(BM_CompiledPredictionOnly)->Arg(64)->Arg(120);

// Branch-and-bound oracle on 4 ranks of the quad cluster: the search is
// pure cost-model evaluation, so it tracks the incremental prefix
// evaluator's node rate.
void BM_ExhaustiveSearchQuad4(benchmark::State& state) {
  std::vector<std::size_t> ranks{0, 1, 2, 3};
  const TopologyProfile profile = profile_for(16).restrict_to(ranks);
  SearchOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exhaustive_search(profile, options,
                          static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_ExhaustiveSearchQuad4)->Arg(1)->Arg(8)->UseRealTime();

void BM_CodeGeneration(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const TopologyProfile profile = profile_for(p);
  const TuneResult tuned = tune_barrier(profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuned.generated_code());
  }
}
BENCHMARK(BM_CodeGeneration)->Arg(64)->Arg(120);

// Parallel tuning engine: the same hex_cluster tune at widening thread
// counts. Wall-clock (UseRealTime) is the honest metric — CPU time sums
// over workers. Schedules are bit-identical at every width.
void BM_TuneHexThreads(benchmark::State& state) {
  const TopologyProfile profile = profile_for(120);
  EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tune_barrier(profile, options));
  }
}
BENCHMARK(BM_TuneHexThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Batch tuning through the library cache: each iteration starts from a
// cold cache and tunes one world subset plus every 10-rank block of a
// 120-rank hex profile — the sub-communicator warm-up a job scheduler
// would do at startup.
void BM_LibraryTuneAllHex(benchmark::State& state) {
  const TopologyProfile profile = profile_for(120);
  std::vector<std::vector<std::size_t>> subsets;
  std::vector<std::size_t> world(120);
  for (std::size_t r = 0; r < world.size(); ++r) {
    world[r] = r;
  }
  subsets.push_back(world);
  for (std::size_t base = 0; base < 120; base += 10) {
    std::vector<std::size_t> block(10);
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = base + i;
    }
    subsets.push_back(block);
  }
  EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    BarrierLibrary library(profile, options);
    benchmark::DoNotOptimize(library.tune_all(subsets));
  }
}
BENCHMARK(BM_LibraryTuneAllHex)->Arg(1)->Arg(8)->UseRealTime();

// Profile loads: every tune starts from a text profile on disk (the
// paper's profiling/tuning split, Figure 1), so the load is part of the
// cost of tuning feedback. The file is written once, outside the timed
// loop, and read back whole each iteration.
std::string bench_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("optibar_bench_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// Dense v3 profiles (O, L, G, R) of the quad (32) and hex (120) presets.
void BM_ProfileLoad(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_file("dense_" + std::to_string(p));
  profile_for(p).save_file(path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopologyProfile::load_file(path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ProfileLoad)->Arg(32)->Arg(120);

// The tiled v4 profile of the 10240-rank tenk machine.
void BM_TiledProfileLoad(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_file("tiled_" + std::to_string(p));
  generate_tiled_profile(tenk_cluster(p / 40), p).save_file(path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TiledProfile::load_file(path));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_TiledProfileLoad)->Arg(10240);

}  // namespace
