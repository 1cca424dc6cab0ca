//===- detect/RaceRuntime.cpp - Hooks-to-detector glue --------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/RaceRuntime.h"

using namespace herd;

RaceRuntime::RaceRuntime(RaceRuntimeOptions Opts)
    : LocksetFrontEnd(Opts),
      // Field merging is applied by the front end (before the cache) so
      // that the cache and the detector index the same keys; the
      // detector's own option stays off to avoid re-merging.
      Det(Reporter, Detector::Options{Opts.UseOwnership, /*FieldsMerged=*/false},
          &Interner) {
  Det.applyPlan(Opts.Plan);
  Det.setOnShared([this](LocationKey Key) { evictShared(Key); });
}

template <bool Probed>
void RaceRuntime::deliver(ThreadId Thread, LocationKey Location,
                          AccessKind Access, SiteId Site) {
  handleAccess<Probed>(Thread, Location, Access,
                       [&](LocationKey Key, ThreadState &T) {
                         Det.handleEvent(
                             eventOf(T, Thread, Key, Access, Site));
                       });
}

void RaceRuntime::onAccess(ThreadId Thread, LocationKey Location,
                           AccessKind Access, SiteId Site) {
  deliver<false>(Thread, Location, Access, Site);
}

void RaceRuntime::onProbeMiss(ThreadId Thread, LocationKey Location,
                              AccessKind Access, SiteId Site) {
  deliver<true>(Thread, Location, Access, Site);
}

RaceRuntimeStats RaceRuntime::stats() const {
  RaceRuntimeStats S = frontEndStats();
  S.Detector = Det.stats();
  return S;
}
