//===- tests/fuzz_test.cpp - Random-program property tests ----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random multithreaded MiniJ programs — shared objects, lock
/// objects, nested synchronized regions, loops, start/join — and checks
/// the system-level invariants of DESIGN.md on each:
///
///   1. with full instrumentation (no static pruning / elimination /
///      peeling), the detector's reported locations equal the exact O(N²)
///      oracle's racy locations (Definition 1 + precision);
///   2. the cache never changes the reported set;
///   3. every optimized configuration's reports are a subset of the
///      oracle's (no optimization can create a false positive);
///   4. Eraser reports a superset of our per-object reports;
///   5. runs are deterministic per seed;
///   6. instrumentation never breaks program well-formedness.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "baselines/EpochDetector.h"
#include "baselines/EraserDetector.h"
#include "baselines/NaiveDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/RaceRuntime.h"
#include "herd/Pipeline.h"
#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace herd;
using fuzzprogs::generateProgram;

namespace {

/// Instruments every access, then runs once with the detector and the
/// exact oracle observing the SAME execution (ownership is
/// schedule-sensitive, so the oracle must see the very same event order).
struct SharedRun {
  std::set<LocationKey> Detector;
  std::set<LocationKey> Oracle;
  std::set<LocationKey> OracleNoOwnership;
  std::set<ObjectId> EraserObjects;
};

SharedRun runDetectorAndOraclesTogether(Program P, uint64_t Seed) {
  InstrumenterOptions IOpts;
  IOpts.UseStaticRaceSet = false;
  IOpts.StaticWeakerThan = false;
  IOpts.LoopPeeling = false;
  instrumentProgram(P, IOpts, nullptr);

  RaceRuntime RT;
  NaiveDetector Oracle;
  NaiveDetector::Options NoOwnOpts;
  NoOwnOpts.UseOwnership = false;
  NaiveDetector OracleNoOwn(NoOwnOpts);
  EraserDetector Eraser;
  FanoutHooks Fanout{&RT, &Oracle, &OracleNoOwn, &Eraser};

  InterpOptions Opts;
  Opts.Seed = Seed;
  Interpreter Interp(P, &Fanout, Opts);
  InterpResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;

  SharedRun Out;
  Out.Detector = RT.reporter().reportedLocations();
  Out.Oracle = Oracle.racyLocations();
  Out.OracleNoOwnership = OracleNoOwn.racyLocations();
  for (LocationKey Loc : Eraser.reportedLocations())
    Out.EraserObjects.insert(Loc.object());
  return Out;
}

ToolConfig unoptimizedConfig(uint64_t Seed) {
  ToolConfig Config;
  Config.StaticAnalysis = false;
  Config.StaticWeakerThan = false;
  Config.LoopPeeling = false;
  Config.Seed = Seed;
  return Config;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, GeneratedProgramIsWellFormedAndTerminates) {
  Program P = generateProgram(GetParam());
  auto Problems = verifyProgram(P);
  ASSERT_TRUE(Problems.empty()) << Problems[0];
  PipelineResult R = runPipeline(P, ToolConfig::base());
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
}

TEST_P(FuzzTest, UnoptimizedReportsEqualTheOracle) {
  for (uint64_t ScheduleSeed : {1u, 13u}) {
    SharedRun Run =
        runDetectorAndOraclesTogether(generateProgram(GetParam()),
                                      ScheduleSeed);
    EXPECT_EQ(Run.Detector, Run.Oracle)
        << "program seed " << GetParam() << " schedule " << ScheduleSeed;
  }
}

TEST_P(FuzzTest, CacheIsTransparent) {
  Program P = generateProgram(GetParam());
  ToolConfig WithCache = unoptimizedConfig(7);
  ToolConfig NoCache = unoptimizedConfig(7);
  NoCache.UseCache = false;
  PipelineResult A = runPipeline(P, WithCache);
  PipelineResult B = runPipeline(P, NoCache);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  EXPECT_EQ(A.Reports.reportedLocations(), B.Reports.reportedLocations());
}

TEST_P(FuzzTest, OptimizedConfigsNeverInventRaces) {
  // The comparison oracle disables ownership: its racy-location set is
  // then schedule-independent for these programs (per-thread event
  // sequences do not depend on shared data), so it soundly bounds every
  // configuration's reports regardless of how instrumentation perturbs
  // the schedule.  Ownership and the optimizations can only *remove*
  // events, never manufacture a conflicting pair.
  Program P = generateProgram(GetParam());
  SharedRun Ref = runDetectorAndOraclesTogether(P, 7);
  for (ToolConfig Config :
       {ToolConfig::full(), ToolConfig::noStatic(), ToolConfig::noPeeling(),
        ToolConfig::noDominators(), ToolConfig::noCache()}) {
    Config.Seed = 7;
    PipelineResult R = runPipeline(P, Config);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    for (LocationKey Loc : R.Reports.reportedLocations())
      EXPECT_TRUE(Ref.OracleNoOwnership.count(Loc))
          << "false positive from an optimized configuration "
          << "(program seed " << GetParam() << ")";
  }
}

TEST_P(FuzzTest, EraserReportsASuperset) {
  SharedRun Run = runDetectorAndOraclesTogether(generateProgram(GetParam()),
                                                7);
  for (LocationKey Loc : Run.Detector)
    EXPECT_TRUE(Run.EraserObjects.count(Loc.object()))
        << "Eraser missed an object we report (program seed "
        << GetParam() << ")";
}

TEST_P(FuzzTest, DeterministicPerSeed) {
  Program P = generateProgram(GetParam());
  ToolConfig Config = ToolConfig::full();
  Config.Seed = 21;
  PipelineResult A = runPipeline(P, Config);
  PipelineResult B = runPipeline(P, Config);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted);
  EXPECT_EQ(A.Reports.reportedLocations(), B.Reports.reportedLocations());
  EXPECT_EQ(A.Run.Output, B.Run.Output);
}

TEST_P(FuzzTest, DispatchModesAgree) {
  // Fused vs unfused (docs/INTERPRETER.md): same reports, same output,
  // same final heap — superinstructions are an implementation detail,
  // never an observable one.  The full cross-product lives in
  // dispatch_differential_test.cpp; this is the fuzz-level cross-check,
  // and the only one that compares final heaps through the pipeline's
  // generated programs.
  Program P = generateProgram(GetParam());
  ToolConfig Unfused = ToolConfig::full();
  Unfused.Seed = 7;
  Unfused.Superinstructions = false;
  ToolConfig Fused = Unfused;
  Fused.Superinstructions = true;
  PipelineResult A = runPipeline(P, Unfused);
  PipelineResult B = runPipeline(P, Fused);
  ASSERT_TRUE(A.Run.Ok) << A.Run.Error;
  ASSERT_TRUE(B.Run.Ok) << B.Run.Error;
  EXPECT_EQ(A.FormattedRaces, B.FormattedRaces);
  EXPECT_EQ(A.Run.Output, B.Run.Output);
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted);
  EXPECT_EQ(A.Run.AccessEvents, B.Run.AccessEvents);
  EXPECT_EQ(A.Run.ContextSwitches, B.Run.ContextSwitches);

  // Final heap state, compared through the raw interpreter (the pipeline
  // does not expose its heap): every object's every slot must match.
  auto FinalHeap = [&](bool UseShadow) {
    Program Copy = P;
    InterpOptions Opts;
    Opts.Seed = 7;
    ThreadedCode TC = buildThreadedCode(Copy);
    Opts.Fused = UseShadow ? &TC : nullptr;
    Interpreter Interp(Copy, nullptr, Opts);
    InterpResult R = Interp.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    std::vector<std::vector<Value>> Slots;
    for (uint32_t Id = 0; Id != Interp.heap().size(); ++Id)
      Slots.push_back(Interp.heap().object(ObjectId(Id)).Slots);
    return Slots;
  };
  auto UnfusedHeap = FinalHeap(false);
  auto FusedHeap = FinalHeap(true);
  ASSERT_EQ(UnfusedHeap.size(), FusedHeap.size());
  for (size_t Obj = 0; Obj != UnfusedHeap.size(); ++Obj) {
    ASSERT_EQ(UnfusedHeap[Obj].size(), FusedHeap[Obj].size()) << Obj;
    for (size_t Slot = 0; Slot != UnfusedHeap[Obj].size(); ++Slot)
      EXPECT_TRUE(UnfusedHeap[Obj][Slot] == FusedHeap[Obj][Slot])
          << "object " << Obj << " slot " << Slot;
  }
}

TEST_P(FuzzTest, EpochAndVectorClockAgreeOnSharedSchedule) {
  // The epoch backend must be race-set equivalent to the vector-clock
  // baseline on the very same event stream (docs/DETECTORS.md): both
  // detectors observe one execution through a fanout, so the comparison
  // is exact, not schedule-modulo.  Two schedule seeds per program.
  for (uint64_t ScheduleSeed : {1u, 13u}) {
    Program P = generateProgram(GetParam());
    InstrumenterOptions IOpts;
    IOpts.UseStaticRaceSet = false;
    IOpts.StaticWeakerThan = false;
    IOpts.LoopPeeling = false;
    instrumentProgram(P, IOpts, nullptr);

    EpochDetector Epoch;
    VectorClockDetector VC;
    FanoutHooks Fanout{&Epoch, &VC};
    InterpOptions Opts;
    Opts.Seed = ScheduleSeed;
    Interpreter Interp(P, &Fanout, Opts);
    InterpResult R = Interp.run();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(Epoch.reportedLocations(), VC.reportedLocations())
        << "program seed " << GetParam() << " schedule " << ScheduleSeed;
    EXPECT_EQ(Epoch.stats().RacesReported, Epoch.reportedLocations().size());
  }
}

TEST_P(FuzzTest, InstrumentationPreservesWellFormedness) {
  for (bool Peel : {false, true}) {
    Program P = generateProgram(GetParam());
    InstrumenterOptions Opts;
    Opts.UseStaticRaceSet = false;
    Opts.StaticWeakerThan = true;
    Opts.LoopPeeling = Peel;
    instrumentProgram(P, Opts, nullptr);
    auto Problems = verifyProgram(P);
    EXPECT_TRUE(Problems.empty())
        << "seed " << GetParam() << " peel=" << Peel << ": " << Problems[0];
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, FuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
