//===- tests/plan_test.cpp - DetectorPlan correctness and equivalence -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DetectorPlan layer's regression net.  Three concerns:
///
///  * Equivalence — a plan pre-sizes memory, it must never change what is
///    reported.  A live run plans from the static race set; a replay of its
///    recorded trace runs unplanned.  Both must report the same race
///    records in the same order, serial and sharded, on the hand-written
///    test programs, the fuzz corpus and the benchmark replicas.
///
///  * Reserve arithmetic — FlatTable::capacityFor / Arena::chunksFor and
///    their reserve() counterparts at the edges (zero, load-factor
///    boundaries, saturation at SIZE_MAX).
///
///  * Plan arithmetic — empty(), clamped() caps, forShard() slicing.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TempPath.h"
#include "TestPrograms.h"
#include "analysis/DetectorPlanner.h"
#include "detect/EventLog.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "herd/Pipeline.h"
#include "support/Arena.h"
#include "support/FlatTable.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;
using testprogs::buildFigure2;

namespace {

//===----------------------------------------------------------------------===
// Equivalence: plans never change reports
//===----------------------------------------------------------------------===

/// The reporter's records in report order, one key each: the fingerprint
/// (sites, kinds, field) plus the full location (object included).
/// Formatted races are not comparable across live and replay: the trace
/// does not carry the heap's class names.
std::vector<std::string> recordKeys(const RaceReporter &Reports) {
  std::vector<std::string> Keys;
  for (const RaceRecord &Rec : Reports.records())
    Keys.push_back(std::to_string(Rec.Fingerprint) + "@" +
                   std::to_string(Rec.Location.raw()));
  return Keys;
}

/// Runs \p P live under \p Config, planned from the static race set and
/// recording its trace, then replays that trace unplanned; serial and
/// sharded.  The two runs must report identical records in order.
void expectPlanInvariantLive(const Program &P, ToolConfig Config) {
  const std::string Path = tempPath("herd_plan_test.trace");
  for (uint32_t Shards : {0u, 3u}) {
    SCOPED_TRACE(std::to_string(Shards) + " shards");
    Config.Shards = Shards;
    Config.RecordTracePath = Path;
    PipelineResult Planned = runPipeline(P, Config);
    ASSERT_TRUE(Planned.Run.Ok) << Planned.Run.Error;
    ASSERT_TRUE(Planned.Trace.Ok) << Planned.Trace.Error;
    Config.RecordTracePath.clear();
    PipelineResult Unplanned = replayTracePipeline(P, Config, Path);
    ASSERT_TRUE(Unplanned.Run.Ok) << Unplanned.Run.Error;
    EXPECT_EQ(recordKeys(Planned.Reports), recordKeys(Unplanned.Reports));
    EXPECT_EQ(Planned.Stats.Detector.RacesReported,
              Unplanned.Stats.Detector.RacesReported);
  }
  std::remove(Path.c_str());
}

TEST(PlanEquivalence, HandWrittenProgramsSerialAndSharded) {
  for (bool SamePQ : {true, false}) {
    SCOPED_TRACE(SamePQ ? "samePQ" : "distinctPQ");
    expectPlanInvariantLive(buildFigure2(SamePQ), ToolConfig::full());
  }
}

TEST(PlanEquivalence, FuzzCorpusSerialAndSharded) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ToolConfig Config = ToolConfig::full();
    Config.Seed = Seed;
    expectPlanInvariantLive(generateProgram(Seed), Config);
  }
}

TEST(PlanEquivalence, WorkloadReplicas) {
  for (Workload &W : buildAllWorkloads(1)) {
    SCOPED_TRACE(W.Name);
    expectPlanInvariantLive(W.P, ToolConfig::full());
  }
}

//===----------------------------------------------------------------------===
// FlatTable reserve arithmetic
//===----------------------------------------------------------------------===

using TestTable = LocationTable<uint32_t>;

TEST(FlatTableReserve, CapacityForEdges) {
  // Minimum table is 64 slots; grow keeps load <= 3/4.
  EXPECT_EQ(TestTable::capacityFor(0), 64u);
  EXPECT_EQ(TestTable::capacityFor(1), 64u);
  EXPECT_EQ(TestTable::capacityFor(48), 64u);  // 64 * 3/4 == 48 fits
  EXPECT_EQ(TestTable::capacityFor(49), 128u); // one past the boundary
  EXPECT_EQ(TestTable::capacityFor(96), 128u);
  EXPECT_EQ(TestTable::capacityFor(97), 256u);
  // Saturation: absurd requests return the largest power of two instead
  // of looping forever or overflowing.
  const size_t MaxPow2 = ~(~size_t(0) >> 1);
  EXPECT_EQ(TestTable::capacityFor(SIZE_MAX), MaxPow2);
  EXPECT_EQ(TestTable::capacityFor(MaxPow2), MaxPow2);
}

TEST(FlatTableReserve, ReserveThenFillDoesNotLoseEntries) {
  TestTable T;
  T.reserve(1000); // 2048 slots: 1000 <= 3/4 * 2048
  for (uint32_t I = 0; I != 1000; ++I) {
    LocationKey K = LocationKey::forField(ObjectId(I), FieldId(I % 7));
    *T.tryEmplace(K).first = I;
  }
  for (uint32_t I = 0; I != 1000; ++I) {
    LocationKey K = LocationKey::forField(ObjectId(I), FieldId(I % 7));
    uint32_t *V = T.find(K);
    ASSERT_NE(V, nullptr) << I;
    EXPECT_EQ(*V, I);
  }
}

TEST(FlatTableReserve, ReserveAfterInsertRehashesExisting) {
  TestTable T;
  for (uint32_t I = 0; I != 10; ++I)
    *T.tryEmplace(LocationKey::forField(ObjectId(I), FieldId(0))).first = I;
  T.reserve(5000);
  for (uint32_t I = 0; I != 10; ++I) {
    uint32_t *V = T.find(LocationKey::forField(ObjectId(I), FieldId(0)));
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I);
  }
  // Shrinking reserve is a no-op, never a rehash down.
  T.reserve(0);
  EXPECT_NE(T.find(LocationKey::forField(ObjectId(3), FieldId(0))),
            nullptr);
}

//===----------------------------------------------------------------------===
// Arena / TrieEdgePool reserve arithmetic
//===----------------------------------------------------------------------===

TEST(ArenaReserve, ChunksForEdges) {
  using A = Arena<uint64_t>;
  EXPECT_EQ(A::chunksFor(0), 0u);
  EXPECT_EQ(A::chunksFor(1), 1u);
  EXPECT_EQ(A::chunksFor(4096), 1u);
  EXPECT_EQ(A::chunksFor(4097), 2u);
  // The index space tops out at 0xFFFFFFFE slots; requests beyond clamp
  // instead of overflowing the chunk math.
  EXPECT_EQ(A::chunksFor(SIZE_MAX), (size_t(0xFFFFFFFE) + 4095) / 4096);
}

TEST(ArenaReserve, ReserveIsUsableAndIdempotent) {
  Arena<uint64_t> A;
  A.reserve(10000);
  size_t Reserved = A.reservedSlots();
  EXPECT_GE(Reserved, 10000u);
  A.reserve(100); // shrink request: no-op
  EXPECT_EQ(A.reservedSlots(), Reserved);
  // Allocations land inside the reserved chunks and slots are default
  // initialized even though the chunk was created before first use.
  for (uint32_t I = 0; I != 10000; ++I) {
    uint32_t Idx = A.allocate();
    EXPECT_EQ(A[Idx], 0u);
    A[Idx] = I + 1;
  }
  EXPECT_EQ(A.reservedSlots(), Reserved);
  A.reserve(0);
  EXPECT_EQ(A.reservedSlots(), Reserved);
}

TEST(TrieEdgePoolReserve, ReserveCoversSubsequentBlocks) {
  TrieEdgePool Pool;
  Pool.reserveEdges(20000);
  size_t Reserved = Pool.reservedEdges();
  EXPECT_GE(Reserved, 20000u);
  // Carving blocks out of the pre-reserved chunks adds nothing: 2000
  // blocks of 2^3 = 8 edges fit in the reserved 20000+.
  std::vector<uint32_t> Blocks;
  for (int I = 0; I != 2000; ++I)
    Blocks.push_back(Pool.allocate(3));
  EXPECT_EQ(Pool.reservedEdges(), Reserved);
  // Blocks are writable and distinct.
  Pool.at(Blocks[0])[0].Label = LockId(7);
  Pool.at(Blocks[1999])[7].Label = LockId(9);
  EXPECT_EQ(Pool.at(Blocks[0])[0].Label, LockId(7));
  // Note: reserveEdges clamps to the 31-bit edge address space but will
  // happily materialize gigabytes for a near-limit request — callers go
  // through DetectorPlan::clamped() (<= 2^24 edges), which
  // DetectorPlanTest.ClampedCapsHostileValues pins.
}

//===----------------------------------------------------------------------===
// DetectorPlan arithmetic
//===----------------------------------------------------------------------===

/// A plan sized by hand for \p Locations locations, all shared, with two
/// trie nodes and two edge slots per location (histories stay shallow).
DetectorPlan handMadePlan(uint64_t Locations) {
  DetectorPlan P;
  P.ExpectedLocations = P.ExpectedSharedLocations = Locations;
  P.ExpectedTrieNodes = P.ExpectedTrieEdges = Locations * 2;
  return P;
}

TEST(DetectorPlanTest, EmptyAndSized) {
  EXPECT_TRUE(DetectorPlan().empty());
  // Any single hint makes a plan non-empty.
  for (uint64_t DetectorPlan::*Field :
       {&DetectorPlan::ExpectedLocations,
        &DetectorPlan::ExpectedSharedLocations,
        &DetectorPlan::ExpectedTrieNodes, &DetectorPlan::ExpectedTrieEdges,
        &DetectorPlan::ExpectedThreads, &DetectorPlan::ExpectedLocksets}) {
    DetectorPlan P;
    P.*Field = 1;
    EXPECT_FALSE(P.empty());
  }
  DetectorPlan Preintern;
  Preintern.PreinternLocksets.emplace_back();
  EXPECT_FALSE(Preintern.empty());
}

TEST(DetectorPlanTest, ClampedCapsHostileValues) {
  DetectorPlan P;
  P.ExpectedLocations = ~uint64_t(0);
  P.ExpectedSharedLocations = ~uint64_t(0);
  P.ExpectedTrieNodes = ~uint64_t(0);
  P.ExpectedTrieEdges = ~uint64_t(0);
  P.ExpectedThreads = ~uint64_t(0);
  P.ExpectedLocksets = ~uint64_t(0);
  DetectorPlan C = P.clamped();
  EXPECT_EQ(C.ExpectedLocations, uint64_t(1) << 22);
  EXPECT_LE(C.ExpectedSharedLocations, C.ExpectedLocations);
  EXPECT_EQ(C.ExpectedTrieNodes, uint64_t(1) << 24);
  EXPECT_EQ(C.ExpectedThreads, 4096u);
  EXPECT_EQ(C.ExpectedLocksets, uint64_t(1) << 20);
}

TEST(DetectorPlanTest, ForShardSlicesWithHeadroom) {
  DetectorPlan P = handMadePlan(1000);
  P.ExpectedThreads = 7;
  P.ExpectedLocksets = 99;
  DetectorPlan S = P.forShard(0, 4);
  // 5/4 headroom per shard: 4 shards jointly over-cover the total.
  EXPECT_GE(S.ExpectedLocations * 4, P.ExpectedLocations);
  EXPECT_LE(S.ExpectedLocations, P.ExpectedLocations);
  EXPECT_EQ(S.ExpectedThreads, 7u); // threads are global, not sliced
  // Interner-scoped fields are pool-level, not per shard.
  EXPECT_EQ(S.ExpectedLocksets, 0u);
  EXPECT_TRUE(S.PreinternLocksets.empty());
  // Degenerate shard counts.
  EXPECT_TRUE(P.forShard(0, 0).empty());
  DetectorPlan One = P.forShard(0, 1);
  EXPECT_GE(One.ExpectedLocations, P.ExpectedLocations);
}

//===----------------------------------------------------------------------===
// Lockset-depth heuristic: deep must-sync nesting widens the trie budget
//===----------------------------------------------------------------------===

TEST(PlannerDepthTest, TrieNodesPerLocationCurve) {
  // 2^(depth+1) — the +1 is the per-thread dummy join lock — clamped to
  // [TrieNodesPerLocation=2, MaxTrieNodesPerLocation=64].
  EXPECT_EQ(trieNodesPerLocationForDepth(0), 2u);
  EXPECT_EQ(trieNodesPerLocationForDepth(1), 4u);
  EXPECT_EQ(trieNodesPerLocationForDepth(2), 8u);
  EXPECT_EQ(trieNodesPerLocationForDepth(3), 16u);
  EXPECT_EQ(trieNodesPerLocationForDepth(4), 32u);
  EXPECT_EQ(trieNodesPerLocationForDepth(5), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(6), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(100), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(UINT64_MAX), 64u); // no overflow
  // The clamp ends are tunable.
  DetectorPlannerOptions Wide;
  Wide.TrieNodesPerLocation = 16;
  Wide.MaxTrieNodesPerLocation = 1 << 10;
  EXPECT_EQ(trieNodesPerLocationForDepth(0, Wide), 16u);
  EXPECT_EQ(trieNodesPerLocationForDepth(8, Wide), 512u);
  EXPECT_EQ(trieNodesPerLocationForDepth(20, Wide), 1u << 10);
}

/// Two workers race on Shared.count; the first wraps its access in
/// \p Depth nested synchronized blocks (each on a distinct single-instance
/// lock object), the second accesses bare — so the pair survives the
/// common-sync filter while the deepest must-held lockset over the race
/// set is exactly \p Depth.
Program buildNestedSyncRace(uint64_t Depth) {
  Program P;
  IRBuilder B(P);
  ClassId Shared = B.makeClass("Shared");
  FieldId Count = B.makeField(Shared, "count");
  ClassId LockCls = B.makeClass("LockObj");

  ClassId Deep = B.makeClass("DeepWorker");
  FieldId DeepTarget = B.makeField(Deep, "target");
  std::vector<FieldId> LockFields;
  for (uint64_t I = 0; I != Depth; ++I)
    LockFields.push_back(
        B.makeField(Deep, ("lock" + std::to_string(I)).c_str()));
  B.startMethod(Deep, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), DeepTarget);
    std::function<void(uint64_t)> Nest = [&](uint64_t I) {
      if (I == Depth) {
        B.site("DEEP");
        RegId Cur = B.emitGetField(Obj, Count);
        RegId One = B.emitConst(1);
        B.emitPutField(Obj, Count,
                       B.emitBinOp(BinOpKind::Add, Cur, One));
        return;
      }
      RegId L = B.emitGetField(B.thisReg(), LockFields[I]);
      B.sync(L, [&] { Nest(I + 1); });
    };
    Nest(0);
    B.emitReturn();
  }

  ClassId Bare = B.makeClass("BareWorker");
  FieldId BareTarget = B.makeField(Bare, "target");
  B.startMethod(Bare, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), BareTarget);
    B.site("BARE");
    B.emitPutField(Obj, Count, B.emitConst(5));
    B.emitReturn();
  }

  B.startMain();
  RegId SharedObj = B.emitNew(Shared);
  RegId W1 = B.emitNew(Deep);
  RegId W2 = B.emitNew(Bare);
  B.emitPutField(W1, DeepTarget, SharedObj);
  B.emitPutField(W2, BareTarget, SharedObj);
  for (uint64_t I = 0; I != Depth; ++I)
    B.emitPutField(W1, LockFields[I], B.emitNew(LockCls));
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitReturn();
  return P;
}

TEST(PlannerDepthTest, NestedSyncScalesPlannedTrieBudget) {
  // End to end through SyncAnalysis: the per-location trie budget the
  // planner charges must follow the program's deepest must-held lockset.
  for (uint64_t Depth : {0ull, 1ull, 2ull, 3ull}) {
    SCOPED_TRACE("depth " + std::to_string(Depth));
    Program P = buildNestedSyncRace(Depth);
    StaticRaceAnalysis SRA(P);
    SRA.run();
    ASSERT_GT(SRA.raceSet().size(), 0u);
    DetectorPlan Plan = planDetector(P, SRA);
    ASSERT_GT(Plan.ExpectedSharedLocations, 0u);
    EXPECT_EQ(Plan.ExpectedTrieNodes,
              Plan.ExpectedSharedLocations *
                  trieNodesPerLocationForDepth(Depth));
    EXPECT_EQ(Plan.ExpectedTrieEdges, Plan.ExpectedTrieNodes);
  }
  // And a deep-lockset program really does get the 64-node ceiling.
  Program P = buildNestedSyncRace(6);
  StaticRaceAnalysis SRA(P);
  SRA.run();
  DetectorPlan Plan = planDetector(P, SRA);
  ASSERT_GT(Plan.ExpectedSharedLocations, 0u);
  EXPECT_EQ(Plan.ExpectedTrieNodes, Plan.ExpectedSharedLocations * 64);
}

TEST(PlannerDepthTest, DeepNestingStillReportsIdentically) {
  // The wider budget is a hint: plans must not change reports.
  expectPlanInvariantLive(buildNestedSyncRace(4), ToolConfig::full());
}

//===----------------------------------------------------------------------===
// Plan application: pre-sizing is observable, reports unchanged
//===----------------------------------------------------------------------===

void expectSameDetection(const RaceRuntimeStats &A,
                         const RaceRuntimeStats &B) {
  EXPECT_EQ(A.EventsSeen, B.EventsSeen);
  EXPECT_EQ(A.Detector.EventsIn, B.Detector.EventsIn);
  EXPECT_EQ(A.Detector.RacesReported, B.Detector.RacesReported);
  EXPECT_EQ(A.Detector.TrieNodes, B.Detector.TrieNodes);
}

TEST(PlanApplication, RuntimeHonorsPlanWithoutChangingStats) {
  // One recorded event stream replayed into serial and sharded runtimes,
  // each built with and without a generous hand-made plan: the detector
  // counters and the race records must match exactly.
  Program P = buildFigure2(/*SamePQ=*/true);
  const std::string Path = tempPath("herd_plan_application.trace");
  ToolConfig Config = ToolConfig::full();
  Config.RecordTracePath = Path;
  ASSERT_TRUE(runPipeline(P, Config).Trace.Ok);
  EventLog Log;
  TraceResult Read = readTraceFile(Path, Log);
  std::remove(Path.c_str());
  ASSERT_TRUE(Read.Ok) << Read.Error;

  RaceRuntimeOptions Opts;
  RaceRuntimeOptions PlannedOpts = Opts;
  PlannedOpts.Plan = handMadePlan(1 << 14);
  PlannedOpts.Plan.ExpectedThreads = 8;
  PlannedOpts.Plan.ExpectedLocksets = 64;

  RaceRuntime Off(Opts), On(PlannedOpts);
  Log.replayInto(Off);
  Log.replayInto(On);
  RaceRuntimeStats SerialStats = Off.stats();
  expectSameDetection(SerialStats, On.stats());
  EXPECT_EQ(recordKeys(Off.reporter()), recordKeys(On.reporter()));
  ASSERT_GT(SerialStats.Detector.RacesReported, 0u);

  ShardedRuntimeOptions ShardedOff, ShardedOn;
  ShardedOff.NumShards = ShardedOn.NumShards = 2;
  ShardedOff.Detection = Opts;
  ShardedOn.Detection = PlannedOpts;
  ShardedRuntime SOff(ShardedOff), SOn(ShardedOn);
  Log.replayInto(SOff);
  Log.replayInto(SOn);
  expectSameDetection(SerialStats, SOff.stats());
  expectSameDetection(SerialStats, SOn.stats());
  EXPECT_EQ(recordKeys(SOff.reporter()), recordKeys(SOn.reporter()));
}

} // namespace
