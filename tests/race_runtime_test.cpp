//===- tests/race_runtime_test.cpp - End-to-end detection tests -----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the full runtime pipeline (cache -> ownership -> trie) driven
/// both synthetically and by interpreted MiniJ programs, including the
/// paper's Figure 2 example and the mtrt join idiom of Section 8.3.  The
/// lockset front-end cases run on both the serial and the sharded runtime.
///
//===----------------------------------------------------------------------===//

#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace herd;

namespace {

constexpr AccessKind RD = AccessKind::Read;
constexpr AccessKind WR = AccessKind::Write;

LocationKey keyOf(uint32_t Obj, uint32_t Field = 0) {
  return LocationKey::forField(ObjectId(Obj), FieldId(Field));
}

/// Runs \p Body on each runtime built on the lockset front end — the
/// serial RaceRuntime and a two-shard ShardedRuntime — configured by
/// \p Opts.
template <typename BodyFn>
void forEachRuntime(const RaceRuntimeOptions &Opts, BodyFn Body) {
  {
    SCOPED_TRACE("serial");
    RaceRuntime RT(Opts);
    Body(RT);
  }
  {
    SCOPED_TRACE("sharded");
    ShardedRuntimeOptions SOpts;
    SOpts.NumShards = 2;
    SOpts.Detection = Opts;
    ShardedRuntime RT(SOpts);
    Body(RT);
  }
}

TEST(RaceRuntimeTest, LockSetTracksMonitorsAndIgnoresRecursion) {
  forEachRuntime({}, [](auto &RT) {
    ThreadId T(1);
    RT.onThreadCreate(T, ThreadId(0), ObjectId(9));
    RT.onMonitorEnter(T, LockId(5), /*Recursive=*/false);
    RT.onMonitorEnter(T, LockId(5), /*Recursive=*/true);
    RT.onMonitorEnter(T, LockId(6), /*Recursive=*/false);
    LockSet Locks = RT.lockSetOf(T);
    EXPECT_TRUE(Locks.contains(LockId(5)));
    EXPECT_TRUE(Locks.contains(LockId(6)));
    EXPECT_TRUE(Locks.contains(LocksetFrontEnd::dummyLockOf(T)));
    RT.onMonitorExit(T, LockId(6), /*StillHeld=*/false);
    RT.onMonitorExit(T, LockId(5), /*StillHeld=*/true);
    Locks = RT.lockSetOf(T);
    EXPECT_TRUE(Locks.contains(LockId(5))); // nested exit: still held
    EXPECT_FALSE(Locks.contains(LockId(6)));
  });
}

TEST(RaceRuntimeTest, JoinAddsPermanentDummyLock) {
  forEachRuntime({}, [](auto &RT) {
    LockId S1 = LocksetFrontEnd::dummyLockOf(ThreadId(1));
    RT.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
    RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(5));
    RT.onThreadExit(ThreadId(1));
    RT.onThreadJoin(ThreadId(0), ThreadId(1));
    EXPECT_TRUE(RT.lockSetOf(ThreadId(0)).contains(S1));
    // The exited thread no longer holds its own dummy lock.
    EXPECT_FALSE(RT.lockSetOf(ThreadId(1)).contains(S1));
  });
}

TEST(RaceRuntimeTest, MtrtJoinIdiomNotReported) {
  // Section 8.3: children access statistics under a common lock c; the
  // parent accesses them after join without c.  Locksets {S1,c}, {S2,c},
  // {S1,S2} are mutually intersecting: no race, although no single lock is
  // common to all three (Eraser would report).
  RaceRuntime RT;
  RT.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(10));
  RT.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(11));
  LockId C(5);

  auto AccessUnder = [&](ThreadId T) {
    RT.onMonitorEnter(T, C, false);
    RT.onAccess(T, keyOf(1), WR, SiteId());
    RT.onMonitorExit(T, C, false);
  };
  AccessUnder(ThreadId(1));
  AccessUnder(ThreadId(2));
  RT.onThreadExit(ThreadId(1));
  RT.onThreadExit(ThreadId(2));
  RT.onThreadJoin(ThreadId(0), ThreadId(1));
  RT.onThreadJoin(ThreadId(0), ThreadId(2));
  RT.onAccess(ThreadId(0), keyOf(1), WR, SiteId()); // no lock held
  EXPECT_TRUE(RT.reporter().empty());
}

TEST(RaceRuntimeTest, WithoutJoinModelingTheIdiomIsReported) {
  RaceRuntimeOptions Opts;
  Opts.ModelJoin = false;
  RaceRuntime RT(Opts);
  RT.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(10));
  RT.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(11));
  LockId C(5);
  auto AccessUnder = [&](ThreadId T) {
    RT.onMonitorEnter(T, C, false);
    RT.onAccess(T, keyOf(1), WR, SiteId());
    RT.onMonitorExit(T, C, false);
  };
  AccessUnder(ThreadId(1));
  AccessUnder(ThreadId(2));
  RT.onThreadJoin(ThreadId(0), ThreadId(1));
  RT.onThreadJoin(ThreadId(0), ThreadId(2));
  RT.onAccess(ThreadId(0), keyOf(1), WR, SiteId());
  EXPECT_FALSE(RT.reporter().empty());
}

TEST(RaceRuntimeTest, CacheHitsSuppressDetectorTraffic) {
  RaceRuntime RT;
  ThreadId T(1);
  RT.onThreadCreate(T, ThreadId(0), ObjectId(9));
  for (int I = 0; I != 1000; ++I)
    RT.onAccess(T, keyOf(1), WR, SiteId());
  RaceRuntimeStats S = RT.stats();
  EXPECT_EQ(S.EventsSeen, 1000u);
  EXPECT_EQ(S.CacheHits, 999u);
  EXPECT_EQ(S.Detector.EventsIn, 1u);
}

TEST(RaceRuntimeTest, SharedTransitionEvictsOwnerCacheEntry) {
  // Section 7.2: without forced eviction, the owner's cached entry would
  // suppress its first post-sharing access and the race would be missed.
  forEachRuntime({}, [](auto &RT) {
    RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(8));
    RT.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(9));
    RT.onAccess(ThreadId(1), keyOf(1), WR, SiteId()); // owner; cached
    RT.onAccess(ThreadId(2), keyOf(1), WR, SiteId()); // shares the location
    RT.onAccess(ThreadId(1), keyOf(1), WR, SiteId()); // must NOT hit cache
    EXPECT_EQ(RT.reporter().size(), 1u);
  });
}

TEST(RaceRuntimeTest, InlineProbeMissesAfterSharedTransitionAndRelease) {
  // The interpreter's inline probe reads the Section 4.2 caches through a
  // handle hoisted once per quantum, so both eviction channels must reach
  // the pointed-to caches in place: a shared transition (Section 7.2) and
  // the release of the lock an entry was cached under.
  forEachRuntime({}, [](auto &RT) {
    ThreadId T1(1), T2(2);
    RT.onThreadCreate(T1, ThreadId(0), ObjectId(8));
    RT.onThreadCreate(T2, ThreadId(0), ObjectId(9));
    ThreadCaches *Handle = RT.cacheHandle(T1);
    ASSERT_NE(Handle, nullptr);

    RT.onAccess(T1, keyOf(1), WR, SiteId()); // owner; cached
    EXPECT_TRUE(Handle->probe(keyOf(1), WR));
    RT.onAccess(T2, keyOf(1), WR, SiteId()); // shares the location
    EXPECT_FALSE(Handle->probe(keyOf(1), WR));
    EXPECT_FALSE(RT.probe(T1, keyOf(1), WR));

    RT.onMonitorEnter(T1, LockId(5), /*Recursive=*/false);
    RT.onAccess(T1, keyOf(2), RD, SiteId()); // cached under lock 5
    EXPECT_TRUE(Handle->probe(keyOf(2), RD));
    RT.onMonitorExit(T1, LockId(5), /*StillHeld=*/false);
    EXPECT_FALSE(Handle->probe(keyOf(2), RD));
    EXPECT_FALSE(RT.probe(T1, keyOf(2), RD));

    EXPECT_EQ(RT.cacheHandle(T1), Handle) << "the handle must stay stable";
    EXPECT_EQ(Handle->InlineHits, 2u);
    EXPECT_EQ(Handle->InlineMisses, 4u);
  });
}

TEST(RaceRuntimeTest, CacheTransparencyOnSyntheticStreams) {
  // Property 3 of DESIGN.md: the cache never changes reported locations.
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    Rng R(Seed);
    // Pre-generate a random schedule of accesses and sync operations.
    struct Op {
      int Kind; // 0 access, 1 enter, 2 exit
      uint32_t Thread;
      uint32_t Value; // object or lock
      AccessKind Access;
    };
    std::vector<Op> Ops;
    uint32_t HeldLock[3] = {0, 0, 0}; // 0 = none
    for (int I = 0; I != 2000; ++I) {
      Op O;
      O.Thread = uint32_t(R.nextBelow(3));
      uint32_t &Held = HeldLock[O.Thread];
      switch (R.nextBelow(4)) {
      case 0:
        if (Held == 0) {
          O.Kind = 1;
          O.Value = 1 + uint32_t(R.nextBelow(2));
          Held = O.Value;
          break;
        }
        [[fallthrough]];
      case 1:
        if (Held != 0 && R.nextChance(1, 2)) {
          O.Kind = 2;
          O.Value = Held;
          Held = 0;
          break;
        }
        [[fallthrough]];
      default:
        O.Kind = 0;
        O.Value = 100 + uint32_t(R.nextBelow(4)); // object
        O.Access = R.nextChance(1, 2) ? WR : RD;
        break;
      }
      Ops.push_back(O);
    }

    auto Play = [&Ops](auto &RT) {
      for (uint32_t T = 0; T != 3; ++T)
        RT.onThreadCreate(ThreadId(T), ThreadId::invalid(), ObjectId::invalid());
      for (const Op &O : Ops) {
        ThreadId T(O.Thread);
        if (O.Kind == 1)
          RT.onMonitorEnter(T, LockId(O.Value), false);
        else if (O.Kind == 2)
          RT.onMonitorExit(T, LockId(O.Value), false);
        else
          RT.onAccess(T, keyOf(O.Value), O.Access, SiteId());
      }
      return RT.reporter().reportedLocations();
    };

    // The serial runtime without caches is the reference; every runtime,
    // with and without caches, must report the same locations.
    RaceRuntimeOptions NoCache;
    NoCache.UseCache = false;
    RaceRuntime Reference(NoCache);
    std::set<LocationKey> Expected = Play(Reference);
    for (bool UseCache : {true, false}) {
      RaceRuntimeOptions Opts;
      Opts.UseCache = UseCache;
      forEachRuntime(Opts, [&](auto &RT) {
        EXPECT_EQ(Play(RT), Expected)
            << "seed " << Seed << (UseCache ? " cached" : " uncached");
      });
    }
  }
}

//===----------------------------------------------------------------------===
// Figure 2 end-to-end.
//===----------------------------------------------------------------------===

/// Builds the paper's Figure 2 program.  \p SamePQ selects the Section 2.2
/// variant where the two synchronized blocks use the same lock object.
struct Fig2Program {
  Program P;
  FieldId F, G;
};

Fig2Program buildFigure2(bool SamePQ) {
  Fig2Program Out;
  IRBuilder B(Out.P);
  ClassId Data = B.makeClass("Data");
  Out.F = B.makeField(Data, "f");
  Out.G = B.makeField(Data, "g");
  ClassId LockCls = B.makeClass("LockObj");

  // class Child1 { Data a; Data b; LockObj p; synchronized foo() {...} }
  ClassId Child1 = B.makeClass("Child1");
  FieldId C1A = B.makeField(Child1, "a");
  FieldId C1B = B.makeField(Child1, "b");
  FieldId C1P = B.makeField(Child1, "p");
  MethodId Foo = B.startMethod(Child1, "foo", 1, /*IsStatic=*/false,
                               /*IsSynchronized=*/true); // T10
  {
    B.site("T11");
    RegId A = B.emitGetField(B.thisReg(), C1A);
    B.emitPutField(A, Out.F, B.emitConst(50)); // T11: a.f = 50
    RegId Pl = B.emitGetField(B.thisReg(), C1P);
    B.sync(Pl, [&] { // T13: synchronized(p)
      B.site("T14");
      RegId Bo = B.emitGetField(B.thisReg(), C1B);
      RegId Read = B.emitGetField(Bo, Out.F); // T14: ... = b.f
      B.emitPutField(Bo, Out.G, Read);        // T14: b.g = ...
    });
    B.emitReturn();
  }
  B.startMethod(Child1, "run", 1);
  B.emitCallVoid(Foo, {B.thisReg()});
  B.emitReturn();

  // class Child2 { Data d; LockObj q; run() { synchronized(q) d.f = 10 } }
  ClassId Child2 = B.makeClass("Child2");
  FieldId C2D = B.makeField(Child2, "d");
  FieldId C2Q = B.makeField(Child2, "q");
  B.startMethod(Child2, "run", 1);
  {
    RegId Q = B.emitGetField(B.thisReg(), C2Q);
    B.sync(Q, [&] { // T20: synchronized(q)
      B.site("T21");
      RegId D = B.emitGetField(B.thisReg(), C2D);
      B.emitPutField(D, Out.F, B.emitConst(10)); // T21: d.f = 10
    });
    B.emitReturn();
  }

  // main
  B.startMain();
  RegId X = B.emitNew(Data);
  B.site("T01");
  B.emitPutField(X, Out.F, B.emitConst(100)); // T01: x.f = 100
  RegId T1 = B.emitNew(Child1);               // T02
  RegId T2 = B.emitNew(Child2);               // T03
  RegId PLock = B.emitNew(LockCls);
  RegId QLock = SamePQ ? PLock : B.emitNew(LockCls);
  B.emitPutField(T1, C1A, X);
  B.emitPutField(T1, C1B, X);
  B.emitPutField(T1, C1P, PLock);
  B.emitPutField(T2, C2D, X);
  B.emitPutField(T2, C2Q, QLock);
  B.emitThreadStart(T1); // T04
  B.emitThreadStart(T2); // T05
  B.emitReturn();
  return Out;
}

std::set<LocationKey> runFigure2(bool SamePQ, uint64_t Seed,
                                 RaceRuntime &RT) {
  Fig2Program Fig = buildFigure2(SamePQ);
  EXPECT_TRUE(verifyProgram(Fig.P).empty());
  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(Fig.P, &RT, Opts);
  InterpResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return RT.reporter().reportedLocations();
}

TEST(Figure2Test, RaceOnFReportedAndNothingElse) {
  for (uint64_t Seed : {1u, 7u, 42u}) {
    RaceRuntime RT;
    std::set<LocationKey> Locs = runFigure2(/*SamePQ=*/false, Seed, RT);
    // Exactly one racy location: the shared Data object's field f.
    ASSERT_EQ(Locs.size(), 1u) << "seed " << Seed;
    // T01's main-thread initialization must not be implicated: ownership
    // absorbed it (the start-order approximation of Section 2.3).
    for (const RaceRecord &Rec : RT.reporter().records())
      EXPECT_NE(Rec.CurrentThread, ThreadId(0));
  }
}

TEST(Figure2Test, FeasibleRaceStillReportedWhenLocksCoincide) {
  // Section 2.2: with p == q, a happened-before detector that witnesses
  // T1's critical section before T2's would miss the race between T11 and
  // T21; the lockset approach reports it for every schedule.
  for (uint64_t Seed : {1u, 7u, 42u, 1000u}) {
    RaceRuntime RT;
    std::set<LocationKey> Locs = runFigure2(/*SamePQ=*/true, Seed, RT);
    EXPECT_EQ(Locs.size(), 1u) << "seed " << Seed;
  }
}

TEST(Figure2Test, FieldGNeverReported) {
  RaceRuntime RT;
  runFigure2(false, 3, RT);
  Fig2Program Fig = buildFigure2(false);
  for (const RaceRecord &Rec : RT.reporter().records()) {
    // LocationKey packs the field id in the low 32 bits for field keys.
    EXPECT_EQ(uint32_t(Rec.Location.raw() & 0xFFFFFFFF), Fig.F.index());
  }
}

TEST(Figure2Test, DeterministicReportsAcrossIdenticalRuns) {
  RaceRuntime RT1, RT2;
  auto L1 = runFigure2(false, 11, RT1);
  auto L2 = runFigure2(false, 11, RT2);
  EXPECT_EQ(L1, L2);
  EXPECT_EQ(RT1.reporter().size(), RT2.reporter().size());
}

} // namespace
