// Barrier code generation (Section VII-C).
//
// "we measure the performance of the optimized barrier algorithms after
//  the use of a code generator, which takes a matrix sequence as input,
//  and emits a specific barrier implemented by a hard-coded sequence of
//  synchronous point-to-point sends."
//
// generate_cpp emits a self-contained C++ translation unit with one
// function template per barrier: a per-rank switch whose cases contain
// the hard-coded issend/irecv/wait_all sequence, with no-op stages
// eliminated per rank ("the generated test programs specialize the logic
// of the general model, eliminate no-op transmission steps, etc."). The
// emitted code is parameterised over a point-to-point policy type so it
// compiles against simmpi or any MPI-like layer.
//
// In process, a schedule runs on simmpi::ScheduleExecutor, the
// staged-edge core's barrier view, without going through source text.
#pragma once

#include <string>

#include "barrier/schedule.hpp"

namespace optibar {

struct GeneratedCode {
  std::string function_name;
  /// Complete C++ source of a header-style translation unit.
  std::string source;
};

/// Emit specialised C++ for the schedule. `function_name` must be a
/// valid C++ identifier. The schedule must be a valid barrier.
GeneratedCode generate_cpp(const Schedule& schedule,
                           const std::string& function_name);

/// Emit a specialised C function over real MPI — the artifact the
/// paper's generator produced: a hard-coded sequence of zero-length
/// synchronized point-to-point sends (`MPI_Issend` / `MPI_Irecv` /
/// `MPI_Waitall`), one switch case per rank, no-op stages eliminated.
/// The function signature is
///   void <name>(MPI_Comm comm, int episode);
/// `episode` offsets tags so back-to-back invocations cannot
/// cross-match. The communicator's size must equal the schedule's rank
/// count (checked with MPI_Comm_size at run time).
GeneratedCode generate_mpi_c(const Schedule& schedule,
                             const std::string& function_name);

}  // namespace optibar
