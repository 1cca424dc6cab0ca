//===- tests/dispatch_differential_test.cpp - Fused vs unfused ------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence lockdown for the interpreter fast path
/// (docs/INTERPRETER.md): the engine run over the original blocks is the
/// reference semantics, and the same engine over superinstruction shadow
/// code — fused sequences, batched quantum retirement — must be
/// observationally indistinguishable from it.  Every program in the shared
/// corpus (TestPrograms.h plus the fuzz generator) runs both ways and must
/// produce byte-identical race reports, output, instruction counts,
/// context switches and runtime event streams, with hooks on and off,
/// serial and sharded, across schedule seeds.  Record/replay must also
/// interoperate: a schedule recorded one way replays exactly the other.
///
/// The reference shares the quantum and budget accounting with the fused
/// runs, so that accounting is also checked on its own: recorded slices
/// add up to the instructions executed, each slice stays within the
/// quantum, and an instruction budget faults at exactly one past it.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "herd/Pipeline.h"
#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;

namespace {

//===----------------------------------------------------------------------===
// Corpus
//===----------------------------------------------------------------------===

/// Every named program the repo's unit tests exercise, plus a slice of the
/// fuzz generator's space (the full range runs in the fuzz-level test
/// below).
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

//===----------------------------------------------------------------------===
// Pipeline-level equivalence
//===----------------------------------------------------------------------===

/// Asserts that two pipeline results describe the same execution.  The
/// fused-execution counters are deliberately NOT compared: they describe
/// how the work was dispatched, not what the program did.
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
  EXPECT_EQ(Ref.Stats.EventsSeen, Got.Stats.EventsSeen);
  EXPECT_EQ(Ref.Stats.CacheHits, Got.Stats.CacheHits);
  EXPECT_EQ(Ref.Stats.Detector.EventsIn, Got.Stats.Detector.EventsIn);
  EXPECT_EQ(Ref.Stats.Detector.RacesReported,
            Got.Stats.Detector.RacesReported);
}

/// Runs \p P without shadow code (the reference) and with it, with
/// otherwise-identical configs, and asserts equivalence.
void runBothModes(const Program &P, ToolConfig Config,
                  const std::string &What) {
  Config.Superinstructions = false;
  PipelineResult Ref = runPipeline(P, Config);
  EXPECT_EQ(Ref.Fusion.sites(), 0u);
  EXPECT_EQ(Ref.Run.Fused.total(), 0u);
  EXPECT_EQ(Ref.Run.BlockRetireHits, 0u);

  Config.Superinstructions = true;
  PipelineResult Fused = runPipeline(P, Config);
  expectSameRun(Ref, Fused, What + " [fused]");
}

TEST(DispatchDifferentialTest, NamedProgramsAllConfigs) {
  for (auto &[Name, P] : namedCorpus()) {
    for (uint64_t Seed : {1u, 13u}) {
      for (uint32_t Shards : {0u, 3u}) {
        // Full pipeline: Trace-instrumented hooks (the production path).
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        runBothModes(P, Full,
                     Name + " full seed=" + std::to_string(Seed) +
                         " shards=" + std::to_string(Shards));
      }
      // Base: uninstrumented, so the no-hook lane carries every step.
      ToolConfig Base = ToolConfig::base();
      Base.Seed = Seed;
      runBothModes(P, Base, Name + " base seed=" + std::to_string(Seed));
    }
  }
}

class DispatchFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchFuzzTest, GeneratedProgramsAgree) {
  Program P = generateProgram(GetParam());
  for (uint64_t Seed : {1u, 13u}) {
    ToolConfig Full = ToolConfig::full();
    Full.Seed = Seed;
    runBothModes(P, Full, "fuzz full seed=" + std::to_string(Seed));
  }
  ToolConfig Sharded = ToolConfig::full();
  Sharded.Seed = 7;
  Sharded.Shards = 3;
  runBothModes(P, Sharded, "fuzz sharded");
  ToolConfig Base = ToolConfig::base();
  Base.Seed = 7;
  runBothModes(P, Base, "fuzz base");
}

INSTANTIATE_TEST_SUITE_P(Programs, DispatchFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===
// Raw-interpreter equivalence: the exact hook event stream
//===----------------------------------------------------------------------===

/// Serializes every RuntimeHooks callback into one line, so two runs can
/// be compared event-for-event (order included).
class EventLog : public RuntimeHooks {
public:
  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId Obj,
                      SiteId = SiteId::invalid()) override {
    add("create", Child.index(), Parent.isValid() ? Parent.index() : ~0u,
        Obj.isValid() ? Obj.index() : ~0u);
  }
  void onThreadExit(ThreadId Dying) override {
    add("exit", Dying.index(), 0, 0);
  }
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override {
    add("join", Joiner.index(), Joined.index(), 0);
  }
  void onMonitorEnter(ThreadId T, LockId L, bool Recursive,
                      SiteId = SiteId::invalid()) override {
    add("enter", T.index(), L.index(), Recursive);
  }
  void onMonitorExit(ThreadId T, LockId L, bool StillHeld) override {
    add("leave", T.index(), L.index(), StillHeld);
  }
  void onAccess(ThreadId T, LocationKey Loc, AccessKind Kind,
                SiteId Site) override {
    std::ostringstream S;
    S << "access t" << T.index() << " loc" << Loc.raw()
      << (Kind == AccessKind::Write ? " W" : " R") << " s"
      << (Site.isValid() ? int64_t(Site.index()) : -1);
    Lines.push_back(S.str());
  }
  void onRunEnd() override { Lines.push_back("end"); }

  const std::vector<std::string> &lines() const { return Lines; }

private:
  void add(const char *Kind, uint64_t A, uint64_t B, uint64_t C) {
    std::ostringstream S;
    S << Kind << ' ' << A << ' ' << B << ' ' << C;
    Lines.push_back(S.str());
  }
  std::vector<std::string> Lines;
};

struct RawRun {
  InterpResult R;
  std::vector<std::string> Events;
  std::string HeapDigest;
  ScheduleTrace Recorded;
};

/// Renders the final heap — every object's identity and slot values — as
/// text, so fused and unfused runs can assert end-state equality.
std::string digestHeap(const Heap &H) {
  std::ostringstream S;
  for (uint32_t Id = 0; Id != H.size(); ++Id) {
    const HeapObject &O = H.object(ObjectId(Id));
    S << 'o' << Id << (O.IsArray ? " arr" : "") << ':';
    for (const Value &V : O.Slots) {
      if (V.isRef())
        S << " r" << (V.isNull() ? -1 : int64_t(V.asRef().index()));
      else
        S << ' ' << V.asInt();
    }
    S << '\n';
  }
  return S.str();
}

/// Runs \p P over \p Fused shadow code, or over the original blocks (the
/// reference) when it is null.
RawRun runRaw(const Program &P, uint64_t Seed, bool TraceEveryAccess,
              const ThreadedCode *Fused,
              const ScheduleTrace *Replay = nullptr,
              uint32_t MaxQuantum = 40,
              uint64_t MaxInstructions = InterpOptions().MaxInstructions) {
  RawRun Out;
  EventLog Log;
  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxQuantum = MaxQuantum;
  Opts.MaxInstructions = MaxInstructions;
  Opts.TraceEveryAccess = TraceEveryAccess;
  Opts.Fused = Fused;
  Opts.Record = Replay ? nullptr : &Out.Recorded;
  Opts.Replay = Replay;
  Interpreter Interp(P, &Log, Opts);
  Out.R = Interp.run();
  Out.Events = Log.lines();
  Out.HeapDigest = digestHeap(Interp.heap());
  return Out;
}

/// Compares an unfused run and a fused run step-for-step: events, heap,
/// output, counts, and the recorded schedule slice by slice.
void expectRawEqual(const RawRun &Ref, const RawRun &Thr) {
  ASSERT_EQ(Ref.R.Ok, Thr.R.Ok) << Thr.R.Error;
  EXPECT_EQ(Ref.R.Error, Thr.R.Error);
  EXPECT_EQ(Ref.Events, Thr.Events);
  EXPECT_EQ(Ref.HeapDigest, Thr.HeapDigest);
  EXPECT_EQ(Ref.R.Output, Thr.R.Output);
  EXPECT_EQ(Ref.R.InstructionsExecuted, Thr.R.InstructionsExecuted);
  EXPECT_EQ(Ref.R.ContextSwitches, Thr.R.ContextSwitches);
  ASSERT_EQ(Ref.Recorded.Slices.size(), Thr.Recorded.Slices.size());
  for (size_t I = 0; I != Ref.Recorded.Slices.size(); ++I) {
    EXPECT_EQ(Ref.Recorded.Slices[I].ThreadIndex,
              Thr.Recorded.Slices[I].ThreadIndex)
        << "slice " << I;
    EXPECT_EQ(Ref.Recorded.Slices[I].Steps, Thr.Recorded.Slices[I].Steps)
        << "slice " << I;
  }
}

/// The scheduler accounting of one completed run, checked on its own
/// terms: every instruction charged was retired in exactly one recorded
/// slice, and no slice is empty or longer than the quantum allows.
void expectAccountingHolds(const RawRun &Run, uint32_t MaxQuantum) {
  ASSERT_TRUE(Run.R.Ok) << Run.R.Error;
  uint64_t Steps = 0;
  for (const ScheduleTrace::Slice &S : Run.Recorded.Slices) {
    EXPECT_GE(S.Steps, 1u);
    EXPECT_LE(S.Steps, MaxQuantum);
    Steps += S.Steps;
  }
  EXPECT_EQ(Steps, Run.R.InstructionsExecuted);
}

TEST(DispatchDifferentialTest, EventStreamsAndHeapsIdentical) {
  for (auto &[Name, Plain] : namedCorpus()) {
    // Instrumented variant: Trace instructions drive the hooks, and the
    // superinstruction pass must respect the instrumented-access
    // boundaries the instrumenter created.
    Program Instrumented = Plain;
    InstrumenterOptions IOpts;
    IOpts.UseStaticRaceSet = false;
    IOpts.StaticWeakerThan = false;
    IOpts.LoopPeeling = false;
    instrumentProgram(Instrumented, IOpts, nullptr);
    ASSERT_TRUE(verifyProgram(Instrumented).empty());

    struct Variant {
      const char *Label;
      const Program *P;
      bool EmitAll;
    } Variants[] = {
        {"no hooks", &Plain, false},
        {"trace-every-access", &Plain, true},
        {"instrumented", &Instrumented, false},
    };
    for (const Variant &V : Variants) {
      ThreadedCode TC = buildThreadedCode(*V.P);
      for (uint64_t Seed : {1u, 13u, 21u}) {
        SCOPED_TRACE(Name + " " + V.Label + " seed=" +
                     std::to_string(Seed));
        RawRun Ref = runRaw(*V.P, Seed, V.EmitAll, nullptr);
        RawRun Thr = runRaw(*V.P, Seed, V.EmitAll, &TC);
        // The scheduler's decisions — slice by slice — must be identical:
        // this is what keeps seeds, recordings and reports portable
        // between fused and unfused runs.
        expectRawEqual(Ref, Thr);
        expectAccountingHolds(Ref, 40);
        expectAccountingHolds(Thr, 40);
      }
    }
  }
}

TEST(DispatchDifferentialTest, RecordReplayInteroperates) {
  // A schedule recorded unfused must replay exactly fused, and the
  // reverse.
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P);
    RawRun RecUnfused = runRaw(P, 21, /*TraceEveryAccess=*/true, nullptr);
    RawRun RecFused = runRaw(P, 21, /*TraceEveryAccess=*/true, &TC);
    ASSERT_TRUE(RecUnfused.R.Ok) << RecUnfused.R.Error;

    RawRun ReplayFused = runRaw(P, 99, /*TraceEveryAccess=*/true, &TC,
                                &RecUnfused.Recorded);
    RawRun ReplayUnfused = runRaw(P, 99, /*TraceEveryAccess=*/true, nullptr,
                                  &RecFused.Recorded);
    SCOPED_TRACE(Name);
    ASSERT_TRUE(ReplayFused.R.Ok) << ReplayFused.R.Error;
    ASSERT_TRUE(ReplayUnfused.R.Ok) << ReplayUnfused.R.Error;
    EXPECT_EQ(RecUnfused.Events, ReplayFused.Events);
    EXPECT_EQ(RecUnfused.HeapDigest, ReplayFused.HeapDigest);
    EXPECT_EQ(RecUnfused.Events, ReplayUnfused.Events);
    EXPECT_EQ(RecUnfused.HeapDigest, ReplayUnfused.HeapDigest);
    EXPECT_EQ(RecUnfused.R.Output, ReplayFused.R.Output);
    EXPECT_EQ(RecUnfused.R.Output, ReplayUnfused.R.Output);
  }
}

TEST(DispatchDifferentialTest, QuantumEdgesStayIdentical) {
  // MaxQuantum=1 and 2 are the nastiest cases for the fast path: every
  // superinstruction has more constituents than the remaining quantum, so
  // the fused run must take the fall-back-to-plain lane on virtually
  // every fused site, and block batches can almost never fit.  The
  // schedule, events and accounting must still match the unfused run
  // byte for byte, and with MaxQuantum=1 every slice is a single step.
  uint64_t FusedSites = 0;
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P);
    FusedSites += TC.Stats.sites();
    for (uint32_t MaxQ : {1u, 2u}) {
      for (uint64_t Seed : {1u, 13u}) {
        SCOPED_TRACE(Name + " maxq=" + std::to_string(MaxQ) +
                     " seed=" + std::to_string(Seed));
        RawRun Ref = runRaw(P, Seed, /*TraceEveryAccess=*/true, nullptr,
                            nullptr, MaxQ);
        RawRun Thr = runRaw(P, Seed, /*TraceEveryAccess=*/true, &TC,
                            nullptr, MaxQ);
        expectRawEqual(Ref, Thr);
        expectAccountingHolds(Ref, MaxQ);
        expectAccountingHolds(Thr, MaxQ);
      }
    }
  }
  EXPECT_GT(FusedSites, 0u) << "corpus must exercise fused fall-back lanes";
}

TEST(DispatchDifferentialTest, ForcedBatchesStayIdentical) {
  // The default MinBatchLen leaves short blocks unbatched, so the batch
  // runtime path would go untested on small corpus programs.  Force it:
  // with MinBatchLen=2 every eligible prefix is planned, and the threaded
  // run must both take the batch path (hits > 0) and stay byte-identical
  // to the unfused run — including at quantum edges where batches only
  // sometimes fit in the remaining quantum.
  SuperinstrOptions SOpts;
  SOpts.MinBatchLen = 2;
  bool SawBatches = false;
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P, SOpts);
    for (uint32_t MaxQ : {1u, 2u, 5u, 40u}) {
      for (uint64_t Seed : {1u, 13u}) {
        SCOPED_TRACE(Name + " maxq=" + std::to_string(MaxQ) +
                     " seed=" + std::to_string(Seed));
        RawRun Ref = runRaw(P, Seed, /*TraceEveryAccess=*/true, nullptr,
                            nullptr, MaxQ);
        RawRun Thr = runRaw(P, Seed, /*TraceEveryAccess=*/true, &TC,
                            nullptr, MaxQ);
        expectRawEqual(Ref, Thr);
        expectAccountingHolds(Thr, MaxQ);
        if (Thr.R.BlockRetireHits > 0) {
          SawBatches = true;
          EXPECT_GE(Thr.R.BlockRetiredSteps, Thr.R.BlockRetireHits);
        }
      }
    }
  }
  EXPECT_TRUE(SawBatches)
      << "no run ever entered a batch; the batch path went untested";
}

TEST(DispatchDifferentialTest, FusionActuallyFires) {
  // Guard against the differential suite silently passing because nothing
  // fused: the counter program's increment is the canonical
  // GetField;Const;BinOp;PutField sequence.
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_GT(TC.Stats.sites(), 0u);
  RawRun Thr = runRaw(P, 1, /*TraceEveryAccess=*/false, &TC);
  ASSERT_TRUE(Thr.R.Ok) << Thr.R.Error;
  EXPECT_GT(Thr.R.Fused.total(), 0u);

  // And over the original blocks the counters stay zero.
  RawRun Ref = runRaw(P, 1, /*TraceEveryAccess=*/false, nullptr);
  EXPECT_EQ(Ref.R.Fused.total(), 0u);
  EXPECT_EQ(Ref.R.BlockRetireHits, 0u);
}

TEST(DispatchDifferentialTest, BudgetExhaustionFaultsAtTheSameCount) {
  // MaxInstructions=N must fault on the (N+1)-th charged instruction
  // whether the run is fused, unfused or batch-heavy: the derived
  // accounting folds the budget into each slice's effective quantum, and
  // a budget edge that lands inside a superinstruction or a batch must
  // not move the fault.  Events, heap and schedule up to the fault match
  // too.
  SuperinstrOptions Forced;
  Forced.MinBatchLen = 2;
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P);
    ThreadedCode Batched = buildThreadedCode(P, Forced);
    for (uint64_t Seed : {1u, 13u}) {
      uint64_t Total =
          runRaw(P, Seed, /*TraceEveryAccess=*/true, nullptr)
              .R.InstructionsExecuted;
      for (uint64_t Budget : {uint64_t(1), Total / 3, Total / 2, Total - 1}) {
        SCOPED_TRACE(Name + " seed=" + std::to_string(Seed) +
                     " budget=" + std::to_string(Budget));
        RawRun Ref = runRaw(P, Seed, /*TraceEveryAccess=*/true, nullptr,
                            nullptr, 40, Budget);
        EXPECT_FALSE(Ref.R.Ok);
        EXPECT_NE(Ref.R.Error.find("budget"), std::string::npos)
            << Ref.R.Error;
        EXPECT_EQ(Ref.R.InstructionsExecuted, Budget + 1);
        for (const ThreadedCode *Shadow : {&TC, &Batched})
          expectRawEqual(Ref, runRaw(P, Seed, /*TraceEveryAccess=*/true,
                                     Shadow, nullptr, 40, Budget));
      }
    }
  }
}

} // namespace
