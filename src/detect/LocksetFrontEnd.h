//===- detect/LocksetFrontEnd.h - Producer-side lockset front end -*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer half of the runtime detection pipeline, shared by the
/// serial RaceRuntime and the sharded ShardedRuntime:
///
///   access event -> per-thread cache (Section 4) -> [backend]
///
/// It maintains each thread's lockset, models join ordering with
/// per-thread dummy locks S_j (Section 2.3), keeps the per-thread
/// read/write caches with evict-on-unlock (Section 4.2), evicts a location
/// from every cache when it turns shared (the Section 7.2 soundness fix),
/// and exposes the caches to the interpreter's inline probe
/// (docs/HOOKPATH.md).  A runtime derives from it and supplies what
/// happens to a cache miss: RaceRuntime hands it to its trie Detector;
/// ShardedRuntime runs its OwnershipFilter and submits to the shard pool.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_LOCKSETFRONTEND_H
#define HERD_DETECT_LOCKSETFRONTEND_H

#include "detect/AccessCache.h"
#include "detect/AccessEvent.h"
#include "detect/DetectorPlan.h"
#include "detect/DetectorStats.h"
#include "runtime/Hooks.h"
#include "support/LockSetInterner.h"

#include <memory>
#include <vector>

namespace herd {

/// Configuration for the runtime half of the pipeline, serial or sharded;
/// each flag maps to an ablation of the paper's experiments.
struct RaceRuntimeOptions {
  /// Per-thread read/write caches ("NoCache" disables; Table 2).
  bool UseCache = true;

  /// Ownership filter ("NoOwnership" disables; Table 3).
  bool UseOwnership = true;

  /// Object-granularity locations ("FieldsMerged"; Table 3).
  bool FieldsMerged = false;

  /// Model join ordering with dummy locks S_j (Section 2.3).  Disabling
  /// reproduces Eraser's behaviour on the mtrt join idiom (Section 8.3).
  bool ModelJoin = true;

  /// Entries per (thread, kind) access cache; must be a power of two
  /// (`herd --cache-size=N`).  The paper's experiments use 256.
  uint32_t CacheEntries = 256;

  /// Capacity hints from static analysis (planDetector; live runs plan
  /// whenever the static phase ran, replay runs stay unplanned).
  /// Applied to the detector(s), interner and thread table at
  /// construction; an empty plan means on-demand growth.
  DetectorPlan Plan;
};

/// One thread's Section 4.2 caches, one per access kind, plus the
/// counters of the interpreter's inline probe (docs/HOOKPATH.md).
struct ThreadCaches {
  explicit ThreadCaches(uint32_t Entries) : Read(Entries), Write(Entries) {}

  AccessCache Read;
  AccessCache Write;
  uint64_t InlineHits = 0;   ///< redundant accesses dropped by probe()
  uint64_t InlineMisses = 0; ///< probes handed on to the miss path

  AccessCache &of(AccessKind Access) {
    return Access == AccessKind::Read ? Read : Write;
  }

  /// The inline probe: the one lookup of \p Key in the cache of
  /// \p Access's kind.  True iff the access is redundant and needs no
  /// delivery; on false the caller enters the concrete runtime's
  /// onProbeMiss, which skips the lookup.
  bool probe(LocationKey Key, AccessKind Access) {
    if (of(Access).lookup(Key)) {
      ++InlineHits;
      return true;
    }
    ++InlineMisses;
    return false;
  }
};

/// The lockset front end: the RuntimeHooks sync events and the cache half
/// of onAccess.  Derived runtimes implement onAccess by calling
/// handleAccess with their miss continuation.
class LocksetFrontEnd : public RuntimeHooks {
public:
  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId ThreadObj,
                      SiteId Site = SiteId::invalid()) override;
  void onThreadExit(ThreadId Dying) override;
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override;
  void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                      SiteId Site = SiteId::invalid()) override;
  void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) override;

  /// The interpreter's per-quantum probe handle (docs/HOOKPATH.md): the
  /// running thread's cache pair, hoisted into the dispatch loop so the
  /// per-access probe goes through one register-resident pointer instead
  /// of the thread table.  Null when the probe cannot be hoisted — caches
  /// off, or FieldsMerged, whose key transform the probe() fallback
  /// performs.  Creates the thread's state on first use; the returned
  /// address is stable for the thread's lifetime (state is heap-allocated)
  /// and lock releases and shared transitions evict from the pointed-to
  /// caches in place.
  ThreadCaches *cacheHandle(ThreadId Thread) {
    if (!Opts.UseCache || Opts.FieldsMerged)
      return nullptr;
    return &threadState(Thread).Caches;
  }

  /// The inline probe for when the interpreter holds no handle: applies
  /// the key transform, then probes.  Always false with caches off.
  bool probe(ThreadId Thread, LocationKey Location, AccessKind Access) {
    if (!Opts.UseCache)
      return false;
    return threadState(Thread).Caches.probe(keyOf(Location), Access);
  }

  /// The current lockset of \p Thread (dummy join locks included); exposed
  /// for tests.
  const LockSet &lockSetOf(ThreadId Thread) const;

  /// The dummy lock S_j modelling ordering with thread \p Thread.  Dummy
  /// lock ids live above any heap object's lock id.
  static LockId dummyLockOf(ThreadId Thread) {
    return LockId((1u << 30) + Thread.index());
  }

protected:
  struct ThreadState {
    explicit ThreadState(uint32_t CacheEntries) : Caches(CacheEntries) {}

    LockSet Locks;                 ///< held locks incl. dummy join locks
    std::vector<LockId> RealStack; ///< releasable locks, outer to inner
    ThreadCaches Caches;

    /// Interned id of Locks, refreshed lazily: locksets only change at
    /// monitor/thread events, so the per-access cost is a dirty-bit test
    /// instead of a SortedIdSet copy.
    LockSetId LocksId = LockSetInterner::emptySet();
    bool LocksDirty = false;
  };

  explicit LocksetFrontEnd(const RaceRuntimeOptions &Opts);
  ~LocksetFrontEnd() override;

  /// The cache half of onAccess.  Field merging is applied first, so the
  /// cache and the backend index the same keys.  A cache hit is redundant
  /// and ends here; a miss calls \p Miss(Key, ThreadState &) — which may
  /// build the backend event with eventOf — and then caches the access.
  /// \p Probed marks an access whose lookup the interpreter's inline probe
  /// already made (and missed), so no access is looked up twice.  \p Miss
  /// is a template parameter so it inlines into the runtime's onAccess
  /// with no indirect call.
  template <bool Probed = false, typename MissFn>
  void handleAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                    MissFn &&Miss) {
    ++EventsSeen;
    ThreadState &T = threadState(Thread);
    LocationKey Key = keyOf(Location);
    AccessCache *Cache = Opts.UseCache ? &T.Caches.of(Access) : nullptr;
    // A hit is guaranteed redundant: a weaker access is already recorded.
    if (!Probed && Cache && Cache->lookup(Key))
      return;

    // The backend runs before the cache insert, so a shared transition it
    // triggers (evictShared) precedes caching this access.
    Miss(Key, T);

    if (Cache)
      Cache->insert(Key, T.RealStack.empty() ? LockId::invalid()
                                             : T.RealStack.back());
  }

  /// The backend event for a cache miss of \p T, interning its lockset if
  /// it changed since the last one.
  DetectorEvent eventOf(ThreadState &T, ThreadId Thread, LocationKey Key,
                        AccessKind Access, SiteId Site) {
    if (T.LocksDirty) {
      T.LocksId = Interner.intern(T.Locks);
      T.LocksDirty = false;
    }
    return DetectorEvent{Key, Thread, T.LocksId, Access, Site};
  }

  /// Section 7.2: a location entering the shared state must leave every
  /// thread's cache, otherwise a cache hit could suppress the first
  /// post-sharing access.  Wired to the backend's shared transition.
  void evictShared(LocationKey Key);

  /// Counters the front end owns: EventsSeen, the cache and inline-probe
  /// totals, and the per-thread cache breakdown.  The runtime fills in the
  /// Detector section.
  RaceRuntimeStats frontEndStats() const;

  /// The interner backend events' lockset ids resolve against.
  LockSetInterner Interner;

private:
  LocationKey keyOf(LocationKey Location) const {
    return Opts.FieldsMerged ? Location.withFieldsMerged() : Location;
  }
  ThreadState &threadState(ThreadId Thread) {
    if (ThreadState *T = findThread(Thread))
      return *T;
    return createThreadState(Thread);
  }
  ThreadState &createThreadState(ThreadId Thread);
  ThreadState *findThread(ThreadId Thread) const {
    size_t Index = Thread.index();
    return Index < Threads.size() ? Threads[Index].get() : nullptr;
  }

  RaceRuntimeOptions Opts;
  std::vector<std::unique_ptr<ThreadState>> Threads;
  uint64_t EventsSeen = 0;
};

} // namespace herd

#endif // HERD_DETECT_LOCKSETFRONTEND_H
