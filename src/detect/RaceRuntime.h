//===- detect/RaceRuntime.h - Hooks-to-detector glue ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RaceRuntime implements the interpreter's RuntimeHooks interface and
/// drives the detection pipeline of Figure 1's right half:
///
///   access event -> per-thread cache (Section 4) -> ownership filter and
///   trie detector (Sections 3 and 7).
///
/// The lockset and cache half is the shared LocksetFrontEnd; this runtime
/// feeds its cache misses to one trie Detector and wires the detector's
/// ownership-to-shared transition to cache eviction (Section 7.2).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_RACERUNTIME_H
#define HERD_DETECT_RACERUNTIME_H

#include "detect/Detector.h"
#include "detect/LocksetFrontEnd.h"
#include "detect/RaceReport.h"

namespace herd {

/// The serial runtime detection pipeline: the lockset front end plus one
/// trie Detector.
class RaceRuntime : public LocksetFrontEnd {
public:
  explicit RaceRuntime(RaceRuntimeOptions Opts = {});

  void onAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                SiteId Site) override;

  /// onAccess after a miss of the interpreter's inline probe
  /// (docs/HOOKPATH.md): the same delivery without the cache lookup.
  void onProbeMiss(ThreadId Thread, LocationKey Location, AccessKind Access,
                   SiteId Site);

  const RaceReporter &reporter() const { return Reporter; }

  RaceRuntimeStats stats() const;

private:
  template <bool Probed>
  void deliver(ThreadId Thread, LocationKey Location, AccessKind Access,
               SiteId Site);

  RaceReporter Reporter;
  Detector Det;
};

} // namespace herd

#endif // HERD_DETECT_RACERUNTIME_H
