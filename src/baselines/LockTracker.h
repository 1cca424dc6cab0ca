//===- baselines/LockTracker.h - Per-thread lockset bookkeeping -*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helper for the baseline detectors: tracks each thread's held
/// lockset from monitor hook events.  Unlike detect/LocksetFrontEnd it does
/// not model join with dummy locks — Eraser and object race detection have
/// no comparable mechanism (Section 8.3), which is exactly the difference
/// the accuracy experiments show.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_BASELINES_LOCKTRACKER_H
#define HERD_BASELINES_LOCKTRACKER_H

#include "detect/AccessEvent.h"

#include <vector>

namespace herd {

/// Tracks the lockset of each thread from monitor enter/exit callbacks.
class LockTracker {
public:
  void enter(ThreadId Thread, LockId Lock, bool Recursive) {
    if (Recursive)
      return;
    locksOf(Thread).insert(Lock);
  }

  void exit(ThreadId Thread, LockId Lock, bool StillHeld) {
    if (StillHeld)
      return;
    locksOf(Thread).erase(Lock);
  }

  const LockSet &held(ThreadId Thread) const {
    static const LockSet Empty;
    size_t Index = Thread.index();
    return Index < Sets.size() ? Sets[Index] : Empty;
  }

private:
  LockSet &locksOf(ThreadId Thread) {
    size_t Index = Thread.index();
    if (Index >= Sets.size())
      Sets.resize(Index + 1);
    return Sets[Index];
  }

  std::vector<LockSet> Sets;
};

} // namespace herd

#endif // HERD_BASELINES_LOCKTRACKER_H
