//===- perfbench/src/Generators.h - Seeded MiniJ benchmark inputs -*- C++ -*-=//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators for the MiniJ programs the benchmark feeds HERD.  Each
/// generator returns the source text together with the answer key the
/// benchmark checks every run against — written down while the program is
/// generated, so the reference never comes from the detector under test:
///
///   * Racy fields are written by two threads with no common lock.  Every
///     one must be reported.
///   * Race-free fields are only touched under one common lock (or inside
///     a synchronized method of their object), or are never written.  None
///     may be reported.
///   * The printed output is a sum of protected counters whose value the
///     generator knows in advance.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_PERFBENCH_GENERATORS_H
#define HERD_PERFBENCH_GENERATORS_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// A generated program and its answer key.
struct GeneratedProgram {
  std::string Source;
  std::set<std::string> RacyFields;     ///< each must be reported
  std::set<std::string> RaceFreeFields; ///< none may be reported
  std::vector<int64_t> ExpectedOutput;  ///< the program's printed values
};

/// Many data classes (\p MinGroups, rounded up to a multiple of 8) with a
/// racy field and two protected fields each, synchronized and
/// unsynchronized methods, helper methods that allocate thread-local
/// temporaries, and thread classes that drive eight data objects each from
/// two thread instances.
GeneratedProgram generateClassesProgram(uint64_t Seed, uint32_t MinGroups);

/// Eight worker threads take a rotating (sometimes nested) pair of locks
/// out of a pool of 16 and touch a striding window of \p Cells cells under
/// them, \p Rounds times.  Each release evicts the per-thread access caches,
/// so the cells' accesses reach the ownership filter and the trie again
/// every window.  The written cell field races; the read-only ones and a
/// tally updated under one global lock do not.
GeneratedProgram generateRotationProgram(uint64_t Seed, uint32_t Cells,
                                         uint32_t Rounds);

} // namespace perfbench

#endif // HERD_PERFBENCH_GENERATORS_H
