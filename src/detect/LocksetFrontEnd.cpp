//===- detect/LocksetFrontEnd.cpp - Producer-side lockset front end -------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/LocksetFrontEnd.h"

#include <cassert>

using namespace herd;

LocksetFrontEnd::LocksetFrontEnd(const RaceRuntimeOptions &Opts)
    : Opts(Opts) {
  if (uint64_t N = Opts.Plan.clamped().ExpectedThreads)
    Threads.reserve(size_t(N) + 1); // +1: thread ids are 1-based, slot 0 main
}

LocksetFrontEnd::~LocksetFrontEnd() = default;

LocksetFrontEnd::ThreadState &
LocksetFrontEnd::createThreadState(ThreadId Thread) {
  size_t Index = Thread.index();
  if (Index >= Threads.size())
    Threads.resize(Index + 1);
  Threads[Index] = std::make_unique<ThreadState>(Opts.CacheEntries);
  return *Threads[Index];
}

const LockSet &LocksetFrontEnd::lockSetOf(ThreadId Thread) const {
  static const LockSet Empty;
  const ThreadState *T = findThread(Thread);
  return T ? T->Locks : Empty;
}

void LocksetFrontEnd::onThreadCreate(ThreadId Child, ThreadId Parent,
                                     ObjectId ThreadObj, SiteId Site) {
  (void)Parent;
  (void)ThreadObj;
  (void)Site;
  ThreadState &T = threadState(Child);
  if (Opts.ModelJoin) {
    // A dummy mon-enter(S_child) at the start of the child's execution
    // (Section 2.3).  The dummy lock is not releasable during the thread's
    // life, so it is not tagged for cache eviction (see AccessCache docs).
    T.Locks.insert(dummyLockOf(Child));
    T.LocksDirty = true;
  }
}

void LocksetFrontEnd::onThreadExit(ThreadId Dying) {
  if (!Opts.ModelJoin)
    return;
  // The dummy mon-exit(S_dying) at the end of the thread's execution.
  ThreadState &T = threadState(Dying);
  T.Locks.erase(dummyLockOf(Dying));
  T.LocksDirty = true;
}

void LocksetFrontEnd::onThreadJoin(ThreadId Joiner, ThreadId Joined) {
  if (!Opts.ModelJoin)
    return;
  // A dummy mon-enter(S_joined) after the join completes: everything the
  // joiner does from now on is ordered after the joined thread, which held
  // S_joined for its entire execution.  The dummy lock is held forever.
  ThreadState &T = threadState(Joiner);
  T.Locks.insert(dummyLockOf(Joined));
  T.LocksDirty = true;
}

void LocksetFrontEnd::onMonitorEnter(ThreadId Thread, LockId Lock,
                                     bool Recursive, SiteId Site) {
  (void)Site;
  if (Recursive)
    return; // nested acquisitions are invisible to the detector (Sec 4.2)
  ThreadState &T = threadState(Thread);
  T.Locks.insert(Lock);
  T.LocksDirty = true;
  T.RealStack.push_back(Lock);
}

void LocksetFrontEnd::onMonitorExit(ThreadId Thread, LockId Lock,
                                    bool StillHeld) {
  if (StillHeld)
    return; // only the final monitorexit releases (Section 4.2)
  ThreadState &T = threadState(Thread);
  T.Locks.erase(Lock);
  T.LocksDirty = true;
  assert(!T.RealStack.empty() && T.RealStack.back() == Lock &&
         "monitor releases must be LIFO (Java structured locking)");
  T.RealStack.pop_back();
  if (Opts.UseCache) {
    T.Caches.Read.evictLock(Lock);
    T.Caches.Write.evictLock(Lock);
  }
}

void LocksetFrontEnd::evictShared(LocationKey Key) {
  if (!Opts.UseCache)
    return;
  for (auto &T : Threads) {
    if (!T)
      continue;
    T->Caches.Read.evictKey(Key);
    T->Caches.Write.evictKey(Key);
  }
}

RaceRuntimeStats LocksetFrontEnd::frontEndStats() const {
  RaceRuntimeStats S;
  S.EventsSeen = EventsSeen;
  for (size_t Index = 0; Index < Threads.size(); ++Index) {
    const auto &T = Threads[Index];
    if (!T)
      continue;
    const AccessCache &Read = T->Caches.Read, &Write = T->Caches.Write;
    S.CacheHits += Read.hits() + Write.hits();
    S.CacheMisses += Read.misses() + Write.misses();
    S.CacheEvictions += Read.evictions() + Write.evictions();
    S.Hook.FilterHits += T->Caches.InlineHits;
    S.Hook.FilterMisses += T->Caches.InlineMisses;
    ThreadCacheStats TC;
    TC.Thread = uint32_t(Index);
    TC.ReadHits = Read.hits();
    TC.ReadMisses = Read.misses();
    TC.WriteHits = Write.hits();
    TC.WriteMisses = Write.misses();
    S.PerThreadCache.push_back(TC);
  }
  return S;
}
