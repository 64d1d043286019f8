// Tests for the Section VII-C code generator, including an end-to-end
// compile-and-run of emitted source with the system compiler when one is
// available.
#include "core/codegen.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "barrier/algorithms.hpp"
#include "core/tuner.hpp"
#include "dense_schedule_oracle.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

TEST(Codegen, RejectsInvalidFunctionNames) {
  const Schedule s = linear_barrier(2);
  EXPECT_THROW(generate_cpp(s, ""), Error);
  EXPECT_THROW(generate_cpp(s, "1abc"), Error);
  EXPECT_THROW(generate_cpp(s, "has space"), Error);
  EXPECT_THROW(generate_cpp(s, "has-dash"), Error);
  EXPECT_NO_THROW(generate_cpp(s, "my_barrier_2"));
}

TEST(Codegen, RejectsNonBarrier) {
  Schedule s(2);
  oracle::StageMatrix m(2, 2, 0);
  m(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  EXPECT_THROW(generate_cpp(s, "bad"), Error);
}

TEST(Codegen, EmitsOneCasePerRank) {
  const GeneratedCode code = generate_cpp(tree_barrier(4), "tb4");
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(code.source.find("case " + std::to_string(r) + ":"),
              std::string::npos);
  }
  EXPECT_EQ(code.function_name, "tb4");
  EXPECT_NE(code.source.find("void tb4("), std::string::npos);
}

TEST(Codegen, EmitsHardCodedSignalSequence) {
  // Linear barrier, P=3: rank 1 sends to 0 (stage 0) and receives from
  // 0 (stage 1).
  const GeneratedCode code = generate_cpp(linear_barrier(3), "lin3");
  EXPECT_NE(code.source.find("p2p.issend(0, tag_base + 0)"),
            std::string::npos);
  EXPECT_NE(code.source.find("p2p.irecv(0, tag_base + 1)"),
            std::string::npos);
  EXPECT_NE(code.source.find("p2p.wait_all(reqs)"), std::string::npos);
}

TEST(Codegen, EliminatesNoOpStagesPerRank) {
  // In the tree barrier over 8 ranks, rank 1 acts only in stages 0 and
  // 5; stages 1-4 must not appear in its case.
  const GeneratedCode code = generate_cpp(tree_barrier(8), "tb8");
  const std::size_t case1 = code.source.find("case 1:");
  const std::size_t case2 = code.source.find("case 2:");
  ASSERT_NE(case1, std::string::npos);
  ASSERT_NE(case2, std::string::npos);
  const std::string case1_body = code.source.substr(case1, case2 - case1);
  EXPECT_NE(case1_body.find("stage 0"), std::string::npos);
  EXPECT_NE(case1_body.find("stage 5"), std::string::npos);
  EXPECT_EQ(case1_body.find("stage 1"), std::string::npos);
  EXPECT_EQ(case1_body.find("stage 3"), std::string::npos);
}

TEST(Codegen, SourceIsDeterministic) {
  const Schedule s = dissemination_barrier(8);
  EXPECT_EQ(generate_cpp(s, "d8").source, generate_cpp(s, "d8").source);
}

TEST(MpiCodegen, EmitsWellFormedCFunction) {
  const GeneratedCode code = generate_mpi_c(tree_barrier(8), "tb8_mpi");
  EXPECT_NE(code.source.find("#include <mpi.h>"), std::string::npos);
  EXPECT_NE(code.source.find("void tb8_mpi(MPI_Comm comm, int episode)"),
            std::string::npos);
  EXPECT_NE(code.source.find("assert(size == 8)"), std::string::npos);
  for (int r = 0; r < 8; ++r) {
    EXPECT_NE(code.source.find("case " + std::to_string(r) + ":"),
              std::string::npos);
  }
}

TEST(MpiCodegen, UsesSynchronizedZeroByteSends) {
  // The paper's implementation vehicle: zero-length MPI_Issend.
  const GeneratedCode code = generate_mpi_c(linear_barrier(4), "lin4");
  EXPECT_NE(code.source.find("MPI_Issend(NULL, 0, MPI_BYTE, 0, tag_base + 0"),
            std::string::npos);
  EXPECT_NE(code.source.find("MPI_Irecv(NULL, 0, MPI_BYTE, 0, tag_base + 1"),
            std::string::npos);
  EXPECT_NE(code.source.find("MPI_Waitall(n, reqs, MPI_STATUSES_IGNORE)"),
            std::string::npos);
}

TEST(MpiCodegen, EliminatesNoOpStagesPerRank) {
  const GeneratedCode code = generate_mpi_c(tree_barrier(8), "tb8_mpi");
  const std::size_t case1 = code.source.find("case 1:");
  const std::size_t case2 = code.source.find("case 2:");
  ASSERT_NE(case1, std::string::npos);
  const std::string body = code.source.substr(case1, case2 - case1);
  EXPECT_NE(body.find("stage 0"), std::string::npos);
  EXPECT_NE(body.find("stage 5"), std::string::npos);
  EXPECT_EQ(body.find("stage 2"), std::string::npos);
}

TEST(MpiCodegen, RequestArraySizedToWorstStage) {
  // Linear barrier, P=9: the root receives 8 messages in one stage.
  const GeneratedCode code = generate_mpi_c(linear_barrier(9), "lin9");
  EXPECT_NE(code.source.find("MPI_Request reqs[8];"), std::string::npos);
}

TEST(MpiCodegen, RejectsBadInput) {
  EXPECT_THROW(generate_mpi_c(linear_barrier(2), "1bad"), Error);
  Schedule s(2);
  oracle::StageMatrix m(2, 2, 0);
  m(0, 1) = 1;
  s.append_stage(oracle::stage_from_matrix(m));
  EXPECT_THROW(generate_mpi_c(s, "not_a_barrier"), Error);
}

TEST(MpiCodegen, CompilesWithMpiWhenAvailable) {
  if (std::system("command -v mpicc > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no MPI compiler available";
  }
  const auto dir = std::filesystem::temp_directory_path() / "optibar_mpi";
  std::filesystem::create_directories(dir);
  const GeneratedCode code = generate_mpi_c(tree_barrier(6), "gen_barrier");
  {
    std::ofstream src(dir / "gen.c");
    src << code.source << "\nint main(void) { return 0; }\n";
  }
  EXPECT_EQ(std::system(("mpicc -c " + (dir / "gen.c").string() + " -o " +
                         (dir / "gen.o").string() + " 2> /dev/null")
                            .c_str()),
            0);
}

/// Adapter exposing RankContext through the policy interface the
/// generated code expects.
struct P2PAdapter {
  using request_type = simmpi::Request;
  simmpi::RankContext* ctx;
  request_type issend(std::size_t dst, int tag) {
    return ctx->issend(dst, tag);
  }
  request_type irecv(std::size_t src, int tag) { return ctx->irecv(src, tag); }
  void wait_all(const std::vector<request_type>& reqs) {
    simmpi::RankContext::wait_all(reqs);
  }
};

TEST(Codegen, EmittedSourceCompilesAndRuns) {
  // Write the generated header plus a driver that runs it over the
  // in-process runtime, build with the system compiler, and execute.
  // Skipped when no compiler is present.
  if (std::system("c++ --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no system compiler available";
  }
  const auto dir = std::filesystem::temp_directory_path() / "optibar_codegen";
  std::filesystem::create_directories(dir);

  const MachineSpec m = quad_cluster(2);
  const TopologyProfile profile = generate_profile(m, 12);
  const TuneResult tuned = tune_barrier(profile);
  const GeneratedCode code = tuned.generated_code();
  {
    std::ofstream header(dir / "generated_barrier.hpp");
    header << code.source;
  }
  {
    std::ofstream driver(dir / "driver.cpp");
    driver << R"(#include "generated_barrier.hpp"
#include "simmpi/runtime.hpp"
#include <cstdio>
#include <vector>

struct Adapter {
  using request_type = optibar::simmpi::Request;
  optibar::simmpi::RankContext* ctx;
  request_type issend(std::size_t dst, int tag) { return ctx->issend(dst, tag); }
  request_type irecv(std::size_t src, int tag) { return ctx->irecv(src, tag); }
  void wait_all(const std::vector<request_type>& reqs) {
    optibar::simmpi::RankContext::wait_all(reqs);
  }
};

int main() {
  optibar::simmpi::Communicator comm(12);
  optibar::simmpi::run_ranks(comm, [](optibar::simmpi::RankContext& ctx) {
    Adapter adapter{&ctx};
    optibar_generated::optibar_barrier(adapter, ctx.rank());
  });
  if (comm.unmatched_operations() != 0) { return 1; }
  std::puts("generated barrier ok");
  return 0;
}
)";
  }
  const std::string src_root = std::string(OPTIBAR_SOURCE_ROOT);
  const std::string cmd =
      "c++ -std=c++20 -I" + (dir).string() + " -I" + src_root + "/src " +
      (dir / "driver.cpp").string() + " " + src_root +
      "/src/simmpi/communicator.cpp " + src_root +
      "/src/simmpi/fault.cpp " + src_root +
      "/src/simmpi/runtime.cpp " + src_root +
      "/src/simmpi/rank_pool.cpp " + src_root +
      "/src/simmpi/latency_model.cpp -lpthread -o " +
      (dir / "driver").string() + " 2> " + (dir / "compile.log").string();
  ASSERT_EQ(std::system(cmd.c_str()), 0)
      << "generated code failed to compile; see " << (dir / "compile.log");
  EXPECT_EQ(std::system(((dir / "driver").string() + " > /dev/null").c_str()),
            0);
}

TEST(Codegen, GeneratedAdapterRunsInProcessWithoutFiles) {
  // The same policy-adapter pattern, without a compiler: the schedule
  // the generated code hard-codes runs on the in-process executor over
  // the runtime the adapter wraps.
  const Schedule s = pairwise_exchange_barrier(8);
  const simmpi::ScheduleExecutor executor(s);
  simmpi::Communicator comm(8);
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    P2PAdapter adapter{&ctx};
    (void)adapter;  // adapter validated by type-checking against policy
    executor.execute(ctx);
  });
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

}  // namespace
}  // namespace optibar
