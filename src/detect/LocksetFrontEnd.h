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
/// and mirrors the caches in the hook-path L0 filter (docs/HOOKPATH.md).
/// A runtime derives from it and supplies what happens to a cache miss:
/// RaceRuntime hands it to its trie Detector; ShardedRuntime runs its
/// OwnershipFilter and submits to the shard pool.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_LOCKSETFRONTEND_H
#define HERD_DETECT_LOCKSETFRONTEND_H

#include "detect/AccessCache.h"
#include "detect/AccessEvent.h"
#include "detect/AccessFilter.h"
#include "detect/DetectorPlan.h"
#include "detect/DetectorStats.h"
#include "runtime/Hooks.h"
#include "support/LockSetInterner.h"

#include <cassert>
#include <memory>
#include <optional>
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

  /// Enable the hook-path fast path (`herd --hook-filter=on|off`,
  /// docs/HOOKPATH.md): the L0 filter probed before onAccess, and in the
  /// sharded runtime per-thread staged event batches.  The filter is
  /// only effective together with UseCache: its differential oracle is the
  /// detector-side cache, so without it the probe stays off.
  bool HookFilter = false;

  /// Capacity hints from static analysis (planDetector; live runs plan
  /// whenever the static phase ran, replay runs stay unplanned).
  /// Applied to the detector(s), interner and thread table at
  /// construction; an empty plan means on-demand growth.
  DetectorPlan Plan;
};

/// The lockset front end: the RuntimeHooks sync events, the cache half of
/// onAccess, and the L0 filter.  Derived runtimes implement onAccess by
/// calling handleAccess with their miss continuation.
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
  /// running thread's L0 filter, hoisted into the dispatch loop so the
  /// per-access probe is one register-resident pointer instead of a walk
  /// through the thread table.  Null when the probe cannot be hoisted —
  /// filter off, or FieldsMerged, whose key transform the filterHit
  /// fallback performs.  Creates the thread's state on first use; the
  /// returned address is stable for the thread's lifetime (state is
  /// heap-allocated) and every invalidation channel mutates the
  /// pointed-to filter in place.
  AccessFilter *filterHandle(ThreadId Thread) {
    if (!FilterOn || Opts.FieldsMerged)
      return nullptr;
    return &threadState(Thread).Filter;
  }

  /// The differential oracle behind every L0 hit (debug builds assert it):
  /// the detector-side cache must prove the same access redundant.
  bool oracleHolds(ThreadId Thread, LocationKey Key,
                   AccessKind Access) const {
    const ThreadState *T = findThread(Thread);
    return T && (Access == AccessKind::Read ? T->ReadCache : T->WriteCache)
                    .provesRedundant(Key);
  }

  /// The devirtualized L0 probe (docs/HOOKPATH.md) for when the
  /// interpreter cannot hoist the filter: applies the key transform, then
  /// probes.  True iff the access is proven redundant and needs no
  /// delivery; on false the caller delivers to the concrete runtime's
  /// onAccess.  A null thread slot (first event from this thread) misses;
  /// the full path creates it.
  bool filterHit(ThreadId Thread, LocationKey Location, AccessKind Access) {
    if (!FilterOn)
      return false;
    ThreadState *T = findThread(Thread);
    if (!T)
      return false;
    LocationKey Key =
        Opts.FieldsMerged ? Location.withFieldsMerged() : Location;
    if (!T->Filter.probe(Key, Access))
      return false;
    // The differential oracle: an L0 hit must be backed by a resident
    // detector-side cache entry, i.e. the full path would have proven the
    // same access redundant (see docs/HOOKPATH.md).
    assert(oracleHolds(Thread, Key, Access) &&
           "L0 filter hit not backed by the detector-side cache");
    return true;
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
    explicit ThreadState(uint32_t CacheEntries)
        : ReadCache(CacheEntries), WriteCache(CacheEntries) {}

    LockSet Locks;                 ///< held locks incl. dummy join locks
    std::vector<LockId> RealStack; ///< releasable locks, outer to inner
    AccessCache ReadCache;
    AccessCache WriteCache;
    AccessFilter Filter;           ///< hook-path L0 filter (HookFilter)

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
  /// \p Miss is a template parameter so it inlines into the runtime's
  /// onAccess with no indirect call.
  template <typename MissFn>
  void handleAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                    MissFn &&Miss) {
    ++EventsSeen;
    ThreadState &T = threadState(Thread);
    LocationKey Key =
        Opts.FieldsMerged ? Location.withFieldsMerged() : Location;

    AccessCache *Cache = nullptr;
    if (Opts.UseCache) {
      Cache = Access == AccessKind::Read ? &T.ReadCache : &T.WriteCache;
      if (Cache->lookup(Key)) {
        // Guaranteed redundant: a weaker access is already recorded.  Seed
        // the L0 filter so the next same-epoch repeat short-circuits at
        // the instrumentation site (the hit is backed by this cache entry).
        if (FilterOn)
          T.Filter.insert(Key, Access);
        return;
      }
    }

    // The backend runs before the cache insert, so a shared transition it
    // triggers (evictShared) precedes caching this access.
    Miss(Key, T);

    if (Cache) {
      LockId Innermost =
          T.RealStack.empty() ? LockId::invalid() : T.RealStack.back();
      std::optional<LocationKey> Displaced = Cache->insert(Key, Innermost);
      if (FilterOn) {
        // A conflict eviction removed another key's backing cache entry;
        // the L0 filter must not keep proving that key redundant.
        if (Displaced)
          T.Filter.invalidateKey(*Displaced);
        T.Filter.insert(Key, Access);
      }
    }
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
  /// post-sharing access.  The L0 filter mirrors the caches, so it drops
  /// the key everywhere too.  Wired to the backend's shared transition.
  void evictShared(LocationKey Key);

  /// Counters the front end owns: EventsSeen, the cache and L0 filter
  /// totals, and the per-thread cache breakdown.  The runtime fills in the
  /// Detector section (and any batching counters).
  RaceRuntimeStats frontEndStats() const;

  /// The interner backend events' lockset ids resolve against.
  LockSetInterner Interner;

private:
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
  bool FilterOn; ///< Opts.HookFilter gated on Opts.UseCache (the oracle)
  std::vector<std::unique_ptr<ThreadState>> Threads;
  uint64_t EventsSeen = 0;
};

} // namespace herd

#endif // HERD_DETECT_LOCKSETFRONTEND_H
