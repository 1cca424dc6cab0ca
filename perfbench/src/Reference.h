//===- perfbench/src/Reference.h - The machine-speed reference -*- C++ -*-===//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed amount of work that shares no code with HERD,
/// timed between the benchmark's iterations.  A shared virtual machine's
/// speed drifts by tens of percent from one minute to the next (the host's
/// turbo headroom and its other tenants), and every absolute timing drifts
/// with it.  The end-to-end timings are therefore reported at reference
/// speed: each iteration's time is scaled by NominalMs over the mean of the
/// reference runs just before and just after it.  A change to HERD moves
/// the iteration and leaves the reference alone, so it still shows in full;
/// a change of machine speed moves both and cancels.
///
/// The work has two halves shaped like HERD's two main kinds of work, so it
/// slows down with the host the way HERD does (of the candidates tried, the
/// pair tracked every workload best): a small bytecode machine with a
/// data-dependent switch dispatch, loads and stores scattered over a 4 MiB
/// table (larger than a core's L2) and a hash map that allocates and frees;
/// and a frontend pass over a fixed 64 KiB text that tokenizes it, interns
/// its identifiers, builds and walks a nested tree of small heap nodes, and
/// sorts the tokens.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_PERFBENCH_REFERENCE_H
#define HERD_PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceKernel {
public:
  /// What one run takes on the machine the benchmark was calibrated on
  /// (a 4-vCPU KVM guest of an Intel Xeon, model 207): the speed every
  /// reference-scaled metric is reported at.
  static constexpr double NominalMs = 15.0;

  ReferenceKernel();

  /// Runs the fixed work once from the same initial state and returns its
  /// checksum, which is the same on every run.
  uint64_t run();

  /// The checksum of the first run; every later run must return it.
  uint64_t expected() const { return Expected; }

private:
  uint64_t interpret();
  uint64_t compile();

  std::vector<uint64_t> Table;
  std::vector<uint8_t> Code;
  std::string Text;
  uint64_t Expected = 0;
};

} // namespace perfbench

#endif // HERD_PERFBENCH_REFERENCE_H
