//===- tests/hook_filter_differential_test.cpp - Fast path on vs off ------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence lockdown for the hook-path fast path (docs/HOOKPATH.md):
/// `--hook-filter=off` is the reference semantics — every access event
/// travels the virtual RuntimeHooks path into the detection runtime — and
/// `--hook-filter=on` (devirtualized delivery with the interpreter probing
/// the Section 4.2 cache inline) must be observationally
/// indistinguishable from it.  Every program in the shared corpus plus a
/// slice of the fuzz generator runs with the fast path on and off, under
/// both dispatch modes, serial and sharded, across schedule seeds, and
/// must produce byte-identical race reports, output, heaps, instruction
/// counts and recorded traces.  The inline probe is the cache's own
/// lookup, so even the cache and detector counters must match exactly.
///
/// Also here: a unit test of the AccessCache::provesRedundant predicate,
/// and the counter-reconciliation identity
/// (run.access_events == hook.filter_hits + runtime.events_seen) that
/// scripts/check_bench_gates.py enforces on benchmark artifacts.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TempPath.h"
#include "TestPrograms.h"
#include "detect/AccessCache.h"
#include "herd/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;

namespace {

LocationKey locKey(uint32_t Obj, uint32_t Field) {
  return LocationKey::forField(ObjectId(Obj), FieldId(Field));
}

TEST(AccessCacheTest, ProvesRedundantHasNoSideEffects) {
  AccessCache C(16);
  LocationKey K = locKey(3, 1);
  EXPECT_FALSE(C.provesRedundant(K));
  EXPECT_EQ(C.hits() + C.misses(), 0u) << "the predicate must not count";
  C.insert(K, LockId());
  EXPECT_TRUE(C.provesRedundant(K));
  EXPECT_EQ(C.hits() + C.misses(), 0u);
  // lookup() agrees with the predicate and is the one that counts.
  EXPECT_TRUE(C.lookup(K));
  EXPECT_EQ(C.hits(), 1u);
}

//===----------------------------------------------------------------------===
// Pipeline-level equivalence: filter on vs off
//===----------------------------------------------------------------------===

std::vector<std::pair<std::string, Program>> namedCorpus() {
  std::vector<std::pair<std::string, Program>> Out;
  Out.emplace_back("counter-unlocked",
                   testprogs::buildCounter(/*Locked=*/false, 25).P);
  Out.emplace_back("counter-locked",
                   testprogs::buildCounter(/*Locked=*/true, 25).P);
  Out.emplace_back("figure2", testprogs::buildFigure2(/*SamePQ=*/false));
  Out.emplace_back("figure2-samepq",
                   testprogs::buildFigure2(/*SamePQ=*/true));
  Out.emplace_back("fig3-loop", testprogs::buildFig3Loop(40));
  return Out;
}

/// Asserts that a fast-path run is indistinguishable from the filter-off
/// reference.  Everything observable must match — including the cache and
/// detector counters, because the inline probe is the cache's own lookup:
/// every access that reaches the cache is looked up exactly once either
/// way.
void expectSameRun(const PipelineResult &Ref, const PipelineResult &Got,
                   const std::string &What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(Ref.Run.Ok, Got.Run.Ok) << Got.Run.Error;
  EXPECT_EQ(Ref.Run.Error, Got.Run.Error);
  EXPECT_EQ(Ref.FormattedRaces, Got.FormattedRaces);
  EXPECT_EQ(Ref.FormattedDeadlocks, Got.FormattedDeadlocks);
  EXPECT_EQ(Ref.Run.Output, Got.Run.Output);
  EXPECT_EQ(Ref.Run.InstructionsExecuted, Got.Run.InstructionsExecuted);
  EXPECT_EQ(Ref.Run.AccessEvents, Got.Run.AccessEvents);
  EXPECT_EQ(Ref.Run.ContextSwitches, Got.Run.ContextSwitches);
  EXPECT_EQ(Ref.Run.ThreadsCreated, Got.Run.ThreadsCreated);
  EXPECT_EQ(Ref.Stats.Detector.EventsIn, Got.Stats.Detector.EventsIn);
  EXPECT_EQ(Ref.Stats.Detector.RacesReported,
            Got.Stats.Detector.RacesReported);
  EXPECT_EQ(Ref.Stats.Detector.OwnedFiltered,
            Got.Stats.Detector.OwnedFiltered);
  EXPECT_EQ(Ref.Stats.Detector.WeakerFiltered,
            Got.Stats.Detector.WeakerFiltered);
  EXPECT_EQ(Ref.Stats.CacheHits, Got.Stats.CacheHits);
  EXPECT_EQ(Ref.Stats.CacheMisses, Got.Stats.CacheMisses);
  EXPECT_EQ(Ref.Stats.CacheEvictions, Got.Stats.CacheEvictions);
  ASSERT_EQ(Ref.Stats.PerThreadCache.size(), Got.Stats.PerThreadCache.size());
  for (size_t I = 0; I != Ref.Stats.PerThreadCache.size(); ++I) {
    const ThreadCacheStats &A = Ref.Stats.PerThreadCache[I];
    const ThreadCacheStats &B = Got.Stats.PerThreadCache[I];
    EXPECT_EQ(A.Thread, B.Thread);
    EXPECT_EQ(A.ReadHits, B.ReadHits) << "thread " << A.Thread;
    EXPECT_EQ(A.ReadMisses, B.ReadMisses) << "thread " << A.Thread;
    EXPECT_EQ(A.WriteHits, B.WriteHits) << "thread " << A.Thread;
    EXPECT_EQ(A.WriteMisses, B.WriteMisses) << "thread " << A.Thread;
  }
}

/// The counter-reconciliation identity for a run on the direct path with
/// caches on: every access the interpreter emitted either hit the inline
/// probe or reached the detection runtime.  Nothing is dropped, nothing is
/// double-counted.  Inline hits are cache hits, and on the direct path
/// every lookup is the inline one, so the two counts are equal.
void expectCountersReconcile(const PipelineResult &R,
                             const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_TRUE(R.Stats.Hook.FilterEnabled);
  EXPECT_EQ(R.Run.AccessEvents,
            R.Stats.Hook.FilterHits + R.Stats.EventsSeen);
  EXPECT_EQ(R.Stats.Hook.FilterHits + R.Stats.Hook.FilterMisses,
            R.Run.AccessEvents)
      << "every emitted access must be probed exactly once";
  EXPECT_LE(R.Stats.Hook.FilterHits, R.Stats.CacheHits);
  EXPECT_EQ(R.Stats.Hook.FilterHits, R.Stats.CacheHits);
}

/// Runs \p P with the fast path off (reference) and on, in both dispatch
/// modes, and asserts equivalence along every axis.  Returns the total
/// inline hits so callers can assert the fast path actually engaged.
uint64_t runBothFilters(const Program &P, ToolConfig Config,
                        const std::string &What) {
  uint64_t FilterHits = 0;
  for (DispatchMode Mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    Config.Dispatch = Mode;
    std::string Tag =
        What + (Mode == DispatchMode::Switch ? " [switch]" : " [threaded]");

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    EXPECT_FALSE(Ref.Stats.Hook.FilterEnabled);
    EXPECT_EQ(Ref.Stats.Hook.FilterHits, 0u);

    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Tag);
    if (Config.Instrument && Config.UseCache)
      expectCountersReconcile(On, Tag);
    FilterHits += On.Stats.Hook.FilterHits;
  }
  return FilterHits;
}

TEST(HookFilterDifferentialTest, NamedProgramsAllConfigs) {
  uint64_t FilterHits = 0;
  for (auto &[Name, P] : namedCorpus()) {
    for (uint64_t Seed : {1u, 13u}) {
      for (uint32_t Shards : {0u, 3u}) {
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        FilterHits += runBothFilters(
            P, Full,
            Name + " full seed=" + std::to_string(Seed) +
                " shards=" + std::to_string(Shards));
      }
      // NoStatic: instrument every access and keep the in-loop traces, so
      // redundant accesses actually recur at runtime — this is where the
      // inline probe earns its keep (the full config statically removes
      // most provably-redundant traces before the runtime ever sees them).
      ToolConfig NoStatic = ToolConfig::noStatic();
      NoStatic.StaticWeakerThan = false;
      NoStatic.LoopPeeling = false;
      NoStatic.Seed = Seed;
      FilterHits += runBothFilters(
          P, NoStatic, Name + " nostatic seed=" + std::to_string(Seed));

      // FieldsMerged: no hoisted handle; the front end's probe applies the
      // key transform before the lookup.
      ToolConfig Merged = ToolConfig::fieldsMerged();
      Merged.Seed = Seed;
      FilterHits += runBothFilters(
          P, Merged, Name + " fieldsmerged seed=" + std::to_string(Seed));

      // NoCache: nothing to probe — the run degenerates to devirtualized
      // delivery only.
      ToolConfig NoCache = ToolConfig::noCache();
      NoCache.Seed = Seed;
      runBothFilters(P, NoCache,
                     Name + " nocache seed=" + std::to_string(Seed));
    }
  }
  EXPECT_GT(FilterHits, 0u)
      << "the corpus never hit the inline probe; the fast path went "
         "untested";
}

TEST(HookFilterDifferentialTest, MultiSinkConfigsDisableDevirtButAgree) {
  // With the deadlock detector attached the detection runtime is no longer
  // the sole sink, so the pipeline must fall back to (lazy) fanout
  // delivery — and results still match the filter-off reference.
  for (auto &[Name, P] : namedCorpus()) {
    ToolConfig Config = ToolConfig::full();
    Config.Seed = 7;
    Config.DetectDeadlocks = true;

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Name + " deadlocks");
    // Access events travel the virtual fanout path, so the inline probe
    // never runs.
    EXPECT_EQ(On.Stats.Hook.FilterHits, 0u);
  }
}

class HookFilterFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HookFilterFuzzTest, GeneratedProgramsAgree) {
  Program P = generateProgram(GetParam());
  for (uint64_t Seed : {1u, 13u}) {
    ToolConfig Full = ToolConfig::full();
    Full.Seed = Seed;
    runBothFilters(P, Full, "fuzz full seed=" + std::to_string(Seed));
  }
  ToolConfig Sharded = ToolConfig::full();
  Sharded.Seed = 7;
  Sharded.Shards = 3;
  runBothFilters(P, Sharded, "fuzz sharded");
}

INSTANTIATE_TEST_SUITE_P(Programs, HookFilterFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===
// Quantum edges: the per-quantum handle must never serve a stale hit
//===----------------------------------------------------------------------===

TEST(HookFilterDifferentialTest, QuantumEdgesStayIdentical) {
  // MaxQuantum=1 and 2 maximize handle churn: the interpreter re-hoists the
  // running thread's cache handle after nearly every instruction, so any
  // drift between the hoisted probe and the virtual path would surface
  // here.  The schedule is decided before any access is probed, so
  // instruction counts and context switches must match the reference
  // exactly.
  for (auto &[Name, P] : namedCorpus()) {
    for (uint32_t MaxQ : {1u, 2u}) {
      for (uint32_t Shards : {0u, 2u}) {
        ToolConfig Config = ToolConfig::full();
        Config.Seed = 13;
        Config.MaxQuantum = MaxQ;
        Config.Shards = Shards;
        runBothFilters(P, Config,
                       Name + " maxq=" + std::to_string(MaxQ) +
                           " shards=" + std::to_string(Shards));
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Record/replay interop
//===----------------------------------------------------------------------===

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

TEST(HookFilterDifferentialTest, RecordedTracesKeepEveryEvent) {
  // Filtering applies to detector delivery, never to `--record`: with a
  // trace recorder attached the runtime is not the sole sink, so every
  // event travels the fanout path and the recorded bytes are identical
  // with the filter on and off.
  for (auto &[Name, P] : namedCorpus()) {
    std::string OnPath =
        tempPath("herd_hookfilter_on_" + Name + ".trace");
    std::string OffPath =
        tempPath("herd_hookfilter_off_" + Name + ".trace");

    ToolConfig Rec = ToolConfig::full();
    Rec.Seed = 21;
    Rec.HookFilter = true;
    Rec.RecordTracePath = OnPath;
    PipelineResult On = runPipeline(P, Rec);
    ASSERT_TRUE(On.Run.Ok && On.Trace.Ok) << On.Run.Error << On.Trace.Error;
    EXPECT_EQ(On.Stats.Hook.FilterHits, 0u)
        << "recording must disable the inline probe so the trace is complete";

    Rec.HookFilter = false;
    Rec.RecordTracePath = OffPath;
    PipelineResult Off = runPipeline(P, Rec);
    ASSERT_TRUE(Off.Run.Ok && Off.Trace.Ok);

    EXPECT_EQ(On.TraceRecords, Off.TraceRecords);
    EXPECT_EQ(slurp(OnPath), slurp(OffPath))
        << Name << ": recorded traces differ with the filter on vs off";

    // Replaying the filter-on recording re-detects identically with the
    // filter on and off, serial and sharded (replay delivers events over
    // the virtual path).
    for (uint32_t Shards : {0u, 2u}) {
      ToolConfig Re = ToolConfig::full();
      Re.Seed = 99; // ignored: the trace is the event source
      Re.Shards = Shards;
      Re.HookFilter = false;
      PipelineResult RefReplay = replayTracePipeline(P, Re, OnPath);
      Re.HookFilter = true;
      PipelineResult OnReplay = replayTracePipeline(P, Re, OnPath);
      expectSameRun(RefReplay, OnReplay,
                    Name + " replay shards=" + std::to_string(Shards));
      // Replay has no heap, so formatted reports degrade to object
      // indices; the detected race set itself must match the live run.
      EXPECT_EQ(RefReplay.Stats.Detector.RacesReported,
                On.Stats.Detector.RacesReported)
          << Name << ": replay must reproduce the live run's races";
      EXPECT_EQ(RefReplay.FormattedRaces.size(), On.FormattedRaces.size());
    }
    std::remove(OnPath.c_str());
    std::remove(OffPath.c_str());
  }
}

} // namespace
