//===- perfbench/src/main.cpp - The repository benchmark harness ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives HERD through its public entry points on one seeded workload and
/// prints every metric by name and unit (perfbench/README.md):
///
///   herd_perfbench --workload <live_replicas|replay_trie|compile_large>
///                  --seed N --seconds S --trace 0|1
///                  [--tmp-dir DIR] [--spans-out FILE]
///
/// Every iteration runs the same four stages on the workload's inputs —
/// compile the workload's MiniJ source, run each program through
/// runPipeline(Full) paired with runPipeline(Base), export the Full reports
/// as JSON and SARIF, and replay the workload's recorded traces through the
/// serial, two-shard and epoch backends — and checks every result against
/// answer keys computed independently of the code under test.  The
/// workloads differ in their inputs, so a different stage dominates each.
///
/// --trace 0 measures the end-to-end metrics, their timings at reference
/// speed: scaled by the fixed reference work timed between iterations
/// (Reference.h), so the host's drift cancels.  --trace 1 alternates plain
/// iterations with traced ones — the same iteration with a MetricsRegistry
/// attached, so HERD's phase spans and the harness's spans around each
/// public call are recorded — plus rounds of the interpretation ladder; it
/// reports the per-layer metrics and the tracing overhead.
///
/// The last stdout line is the result object {correct, attempted, failed,
/// metrics}; the line before it stamps the host and the sample counts.  The
/// exit status is 0 only when every iteration passed its checks.
///
//===----------------------------------------------------------------------===//

#include "Generators.h"
#include "Ledger.h"
#include "Reference.h"

#include "analysis/StaticRace.h"
#include "baselines/VectorClockDetector.h"
#include "detect/EventLog.h"
#include "detect/TraceFile.h"
#include "frontend/Frontend.h"
#include "herd/Pipeline.h"
#include "herd/ReportExport.h"
#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "runtime/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace herd;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===
// Workload parameters
//===----------------------------------------------------------------------===

/// Replica scale of live_replicas: large enough that interpretation and
/// scheduling dwarf every other stage, small enough for 100+ iterations a
/// run.
constexpr uint32_t ReplicaScale = 50;

/// Data classes of the small program live_replicas compiles each iteration,
/// so the frontend's per-program cost is measured next to the replicas.
constexpr uint32_t CompanionGroups = 16;

/// Data classes of compile_large's program: ~300 KB of source.
constexpr uint32_t LargeGroups = 240;

/// replay_trie's recorded program: ~220k events, most of which miss the
/// per-thread caches.
constexpr uint32_t RecordedCells = 4096, RecordedRounds = 300;

/// replay_trie's live program: the same family, small, with a footprint
/// small enough that the planted race shows in a short run.
constexpr uint32_t LiveCells = 256, LiveRounds = 30;

constexpr int SetupRepeats = 5;

/// Instruction budget of every live run: far above what any workload
/// executes, so only a runaway program hits it.
constexpr uint64_t MaxInstructions = 500'000'000;

//===----------------------------------------------------------------------===
// Small helpers
//===----------------------------------------------------------------------===

double msSince(uint64_t StartNs) { return double(nowNs() - StartNs) / 1e6; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The field name of a reported location, or empty for arrays and
/// locations without a declared field.
std::string fieldNameOf(const Program &P, LocationKey Loc) {
  uint32_t FieldBits = uint32_t(Loc.raw() & 0xFFFFFFFFu);
  if (FieldBits >= P.numFields())
    return std::string();
  return std::string(P.Names.text(P.field(FieldId(FieldBits)).Name));
}

/// A racy location as a replayed epoch run prints it.  Replay has no heap,
/// so objects appear by index.
std::string replayLocationLine(const Program &P, LocationKey Loc) {
  std::string Line = "race on object #" + std::to_string(Loc.object().index());
  std::string Field = fieldNameOf(P, Loc);
  if (!Field.empty())
    Line += " field " + Field;
  return Line;
}

std::set<uint64_t> raceFingerprints(const std::vector<ReportEntry> &Entries) {
  std::set<uint64_t> Out;
  for (const ReportEntry &E : Entries)
    if (E.EntryKind == ReportEntry::Kind::Race)
      Out.insert(E.Fingerprint);
  return Out;
}

size_t countOccurrences(const std::string &Haystack, const char *Needle) {
  size_t Count = 0, Len = std::strlen(Needle);
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Len))
    ++Count;
  return Count;
}

/// The per-process temporary directory for recorded traces, removed with
/// everything in it when the run ends.
class TempDir {
public:
  explicit TempDir(const std::string &Parent) {
    std::string Pattern = Parent + "/perfbench-XXXXXX";
    std::vector<char> Buf(Pattern.begin(), Pattern.end());
    Buf.push_back('\0');
    if (::mkdtemp(Buf.data()))
      Path = Buf.data();
  }
  ~TempDir() {
    for (const std::string &F : Files)
      std::remove(F.c_str());
    if (!Path.empty())
      ::rmdir(Path.c_str());
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  bool ok() const { return !Path.empty(); }

  std::string file(const std::string &Name) {
    std::string F = Path + "/" + Name;
    if (std::find(Files.begin(), Files.end(), F) == Files.end())
      Files.push_back(F);
    return F;
  }

private:
  std::string Path;
  std::vector<std::string> Files;
};

/// Confines the calling thread, and every thread it starts while this
/// lives, to the CPU it is running on, and restores the previous mask
/// after.  The two-shard replays run under it: on a virtual machine,
/// waking a shard worker parked on another vCPU costs whatever the host
/// makes it cost, and on trie-bound streams the two-shard throughput
/// flipped between ~1x and ~1.8x serial from one ten-minute window to the
/// next.  On one CPU it measures the sharded pipeline's own cost, steadily.
class PinToCurrentCpu {
public:
  PinToCurrentCpu() {
    Saved = ::sched_getaffinity(0, sizeof(Old), &Old) == 0;
    int Cpu = ::sched_getcpu();
    if (Saved && Cpu >= 0) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpu, &One);
      ::sched_setaffinity(0, sizeof(One), &One);
    }
  }
  ~PinToCurrentCpu() {
    if (Saved)
      ::sched_setaffinity(0, sizeof(Old), &Old);
  }
  PinToCurrentCpu(const PinToCurrentCpu &) = delete;
  PinToCurrentCpu &operator=(const PinToCurrentCpu &) = delete;

private:
  cpu_set_t Old;
  bool Saved = false;
};

//===----------------------------------------------------------------------===
// Inputs and answer keys
//===----------------------------------------------------------------------===

/// What a program's Full run must report and print.  Replicas carry the
/// racy-object count their Workload records; generated programs carry the
/// generator's planted fields and printed values.
struct AnswerKey {
  std::optional<size_t> RacyObjects;
  std::set<std::string> RacyFields;
  std::set<std::string> RaceFreeFields;
  std::optional<std::vector<int64_t>> Output;
};

/// A program run live every iteration.
struct Subject {
  std::string Name;
  std::string Source; ///< compiled every iteration when non-empty
  Program Prebuilt;   ///< the program when Source is empty
  AnswerKey Key;
};

/// A trace recorded at setup and replayed every iteration.
struct ReplayInput {
  std::string Name;
  Program P; ///< the recorded program (replay formats reports with it)
  std::string TracePath;
  uint64_t Records = 0;
  std::set<LocationKey> HbRacy;      ///< VectorClockDetector's set
  std::set<std::string> HbRacyLines; ///< the same, as epoch replay prints
};

struct WorkloadInputs {
  std::vector<Subject> Subjects;
  std::vector<ReplayInput> Replays;
  double BuildMs = 0; ///< time in replica constructors and generators
};

AnswerKey keyOf(const GeneratedProgram &G) {
  AnswerKey K;
  K.RacyFields = G.RacyFields;
  K.RaceFreeFields = G.RaceFreeFields;
  K.Output = G.ExpectedOutput;
  return K;
}

/// Records \p P's Full run into \p Path and computes the happens-before
/// reference the epoch replays must match.
bool recordReplayInput(ReplayInput &R, uint64_t Seed, std::string &Why) {
  ToolConfig C = ToolConfig::full();
  C.Seed = Seed;
  C.RecordTracePath = R.TracePath;
  PipelineResult Rec = runPipeline(R.P, C);
  if (!Rec.Run.Ok || !Rec.Trace.Ok) {
    Why = R.Name + ": recording failed: " + Rec.Run.Error + Rec.Trace.Error;
    return false;
  }
  R.Records = Rec.TraceRecords;
  EventLog Log;
  if (TraceResult TR = readTraceFile(R.TracePath, Log); !TR.Ok) {
    Why = R.Name + ": " + TR.Error;
    return false;
  }
  VectorClockDetector Hb;
  Log.replayInto(Hb);
  R.HbRacy = Hb.reportedLocations();
  R.HbRacyLines.clear();
  for (LocationKey Loc : R.HbRacy)
    R.HbRacyLines.insert(replayLocationLine(R.P, Loc));
  return R.Records != 0;
}

bool compileOrFail(const std::string &Name, const std::string &Source,
                   Program &Out, std::string &Why) {
  CompileResult C = compileMiniJ(Source);
  if (!C.Ok) {
    Why = Name + ": generated source does not compile";
    if (!C.Diags.empty())
      Why += ": " + C.Diags.front().Message;
    return false;
  }
  Out = std::move(C.P);
  return true;
}

bool setupWorkload(const std::string &Name, uint64_t Seed, TempDir &Tmp,
                   WorkloadInputs &In, std::string &Why) {
  In = WorkloadInputs();
  uint64_t Build0 = nowNs();
  if (Name == "live_replicas") {
    for (Workload W : {buildMtrt(ReplicaScale), buildTsp(ReplicaScale),
                       buildSor2(ReplicaScale)}) {
      Subject S;
      S.Name = W.Name;
      S.Prebuilt = std::move(W.P);
      S.Key.RacyObjects = W.ExpectedRacyObjectsFull;
      In.Subjects.push_back(std::move(S));
    }
    GeneratedProgram G = generateClassesProgram(Seed, CompanionGroups);
    In.BuildMs = msSince(Build0);
    for (const Subject &S : In.Subjects) {
      ReplayInput R;
      R.Name = S.Name;
      R.P = S.Prebuilt;
      R.TracePath = Tmp.file(S.Name + ".trace");
      In.Replays.push_back(std::move(R));
    }
    Subject Companion;
    Companion.Name = "companion";
    Companion.Source = std::move(G.Source);
    Companion.Key = keyOf(G);
    In.Subjects.push_back(std::move(Companion));
  } else if (Name == "replay_trie") {
    GeneratedProgram Live =
        generateRotationProgram(Seed, LiveCells, LiveRounds);
    GeneratedProgram Rec =
        generateRotationProgram(Seed, RecordedCells, RecordedRounds);
    In.BuildMs = msSince(Build0);
    Subject S;
    S.Name = "rotation-live";
    S.Source = std::move(Live.Source);
    S.Key = keyOf(Live);
    In.Subjects.push_back(std::move(S));
    ReplayInput R;
    R.Name = "rotation-recorded";
    if (!compileOrFail(R.Name, Rec.Source, R.P, Why))
      return false;
    R.TracePath = Tmp.file("rotation.trace");
    In.Replays.push_back(std::move(R));
  } else if (Name == "compile_large") {
    GeneratedProgram G = generateClassesProgram(Seed, LargeGroups);
    In.BuildMs = msSince(Build0);
    ReplayInput R;
    R.Name = "classes";
    if (!compileOrFail(R.Name, G.Source, R.P, Why))
      return false;
    R.TracePath = Tmp.file("classes.trace");
    In.Replays.push_back(std::move(R));
    Subject S;
    S.Name = "classes";
    S.Source = std::move(G.Source);
    S.Key = keyOf(G);
    In.Subjects.push_back(std::move(S));
  } else {
    Why = "unknown workload '" + Name + "'";
    return false;
  }
  for (ReplayInput &R : In.Replays)
    if (!recordReplayInput(R, Seed, Why))
      return false;
  return true;
}

//===----------------------------------------------------------------------===
// Checks
//===----------------------------------------------------------------------===

/// Collects the first failure of an iteration; later ones only count.
struct CheckLog {
  bool Failed = false;
  std::string First;

  void fail(const std::string &Why) {
    if (!Failed)
      First = Why;
    Failed = true;
  }
  void expect(bool Cond, const std::string &Why) {
    if (!Cond)
      fail(Why);
  }
};

/// Checks a Full run's reports and output against the subject's answer key.
void checkFull(const Subject &S, const Program &P, const InterpResult &Run,
               const RaceReporter &Reports, CheckLog &Log) {
  Log.expect(Run.Ok, S.Name + ": Full run failed: " + Run.Error);
  if (S.Key.RacyObjects)
    Log.expect(Reports.countDistinctObjects() == *S.Key.RacyObjects,
               S.Name + ": racy-object count differs from the replica's");
  std::set<std::string> Reported;
  for (LocationKey Loc : Reports.reportedLocations())
    Reported.insert(fieldNameOf(P, Loc));
  for (const std::string &F : S.Key.RacyFields)
    Log.expect(Reported.count(F) != 0, S.Name + ": planted race on " + F +
                                           " not reported");
  for (const std::string &F : S.Key.RaceFreeFields)
    Log.expect(Reported.count(F) == 0,
               S.Name + ": lock-protected field " + F + " reported");
  if (S.Key.Output)
    Log.expect(Run.Output == *S.Key.Output, S.Name + ": Full output differs");
}

void checkBase(const Subject &S, const InterpResult &Run, CheckLog &Log) {
  Log.expect(Run.Ok, S.Name + ": Base run failed: " + Run.Error);
  if (S.Key.Output)
    Log.expect(Run.Output == *S.Key.Output, S.Name + ": Base output differs");
}

void checkExport(const Subject &S, const PipelineResult &Full,
                 const std::string &Json, const std::string &Sarif,
                 CheckLog &Log) {
  Log.expect(countOccurrences(Json, "\"fingerprint\":") == Full.Entries.size(),
             S.Name + ": JSON report entry count differs");
  Log.expect(countOccurrences(Sarif, "\"herdRace/v1\":") ==
                 Full.Entries.size(),
             S.Name + ": SARIF result count differs");
}

//===----------------------------------------------------------------------===
// Iterations
//===----------------------------------------------------------------------===

enum Backend : int { Serial = 0, Sharded2 = 1, Epoch = 2, NumBackends = 3 };
const char *const BackendNames[NumBackends] = {"serial", "sharded2", "epoch"};

/// One iteration's timings and the counts its PipelineResults report.
struct IterTotals {
  double WallMs = 0;
  double CompileMs = 0;
  uint64_t SourceBytes = 0;
  double FullMs = 0, BaseMs = 0;
  double FullExecMs = 0;
  double ReplayMs[NumBackends] = {0, 0, 0};
  uint64_t ReplayEvents = 0;

  // Full runs.
  uint64_t RaceSetSize = 0, MayRacePairs = 0;
  uint64_t TracesInserted = 0, TracesRemoved = 0, LoopsPeeled = 0;
  uint64_t FusedSites = 0;
  uint64_t Instructions = 0, ContextSwitches = 0;
  uint64_t AccessEvents = 0, FilterHits = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
  uint64_t ReportEntries = 0;
  // Full runs and serial replays.
  uint64_t TrieNodes = 0, Locations = 0, RacesReported = 0;
  // Replays.
  uint64_t DetectorEventsIn = 0, OwnedFiltered = 0, WeakerFiltered = 0;
  double ShardImbalance = 0; ///< summed over replays
  uint64_t EpochEvents = 0, EpochSameEpoch = 0, EpochInflations = 0;

  /// Race fingerprints of every Full run, then of every serial replay;
  /// filled only when asked for.
  std::vector<std::set<uint64_t>> Prints;
};

void addDetectorStats(IterTotals &T, const DetectorStats &D) {
  T.TrieNodes += D.TrieNodes;
  T.Locations += D.LocationsTracked;
  T.RacesReported += D.RacesReported;
}

void countFull(IterTotals &T, const PipelineResult &Full) {
  T.FullExecMs += Full.ExecSeconds * 1e3;
  T.Instructions += Full.Run.InstructionsExecuted;
  T.ContextSwitches += Full.Run.ContextSwitches;
  T.AccessEvents += Full.Run.AccessEvents;
  T.RaceSetSize += Full.Static.RaceSetSize;
  T.MayRacePairs += Full.Static.MayRacePairs;
  T.TracesInserted += Full.Instr.TracesInserted;
  T.TracesRemoved += Full.Instr.TracesRemoved;
  T.LoopsPeeled += Full.Instr.LoopsPeeled;
  T.FusedSites += Full.Fusion.sites();
  T.FilterHits += Full.Stats.Hook.FilterHits;
  T.CacheHits += Full.Stats.CacheHits;
  T.CacheLookups += Full.Stats.CacheHits + Full.Stats.CacheMisses;
  T.ReportEntries += Full.Entries.size();
  addDetectorStats(T, Full.Stats.Detector);
}

void countReplays(IterTotals &T, const PipelineResult (&Res)[NumBackends]) {
  const DetectorStats &D = Res[Serial].Stats.Detector;
  T.DetectorEventsIn += D.EventsIn;
  T.OwnedFiltered += D.OwnedFiltered;
  T.WeakerFiltered += D.WeakerFiltered;
  addDetectorStats(T, D);
  double Max = 0, Sum = 0;
  for (const ShardStats &St : Res[Sharded2].ShardBreakdown) {
    Max = std::max(Max, double(St.EventsIngested));
    Sum += double(St.EventsIngested);
  }
  T.ShardImbalance +=
      ratio(Max * double(Res[Sharded2].ShardBreakdown.size()), Sum);
  const EpochStats &E = Res[Epoch].Epoch;
  T.EpochEvents += E.Events;
  T.EpochSameEpoch += E.SameEpochReads + E.SameEpochWrites;
  T.EpochInflations += E.ReadInflations;
}

struct Context {
  uint64_t Seed = 1;
  WorkloadInputs In;
};

/// One iteration through the public entry points.  With \p Reg set it is a
/// traced iteration: compileMiniJ, runPipeline and replayTracePipeline
/// record their phase spans on \p Reg, and the harness adds a span around
/// each public call and each check.
IterTotals runIteration(const Context &Cx, uint32_t Iter, CheckLog &Log,
                        MetricsRegistry *Reg, bool KeepPrints) {
  IterTotals T;
  uint64_t Start = nowNs();
  for (const Subject &S : Cx.In.Subjects) {
    Program Compiled;
    const Program *P = &S.Prebuilt;
    if (!S.Source.empty()) {
      uint64_t C0 = nowNs();
      CompileResult C;
      {
        Span Sp(Reg, "compileMiniJ", "frontend");
        C = compileMiniJ(S.Source, Reg);
      }
      T.CompileMs += msSince(C0);
      T.SourceBytes += S.Source.size();
      Log.expect(C.Ok, S.Name + ": does not compile");
      if (!C.Ok)
        continue;
      Compiled = std::move(C.P);
      P = &Compiled;
    }
    ToolConfig FullCfg = ToolConfig::full(), BaseCfg = ToolConfig::base();
    FullCfg.Seed = BaseCfg.Seed = Cx.Seed;
    FullCfg.Metrics = BaseCfg.Metrics = Reg;
    PipelineResult Full, Base;
    // Alternate which configuration runs first, so neither always pays
    // for a cold cache.
    for (int Leg = 0; Leg != 2; ++Leg) {
      bool RunFull = (Leg == 0) == (Iter % 2 == 0);
      uint64_t L0 = nowNs();
      if (RunFull) {
        {
          Span Sp(Reg, FullRunSpan, "herd");
          Full = runPipeline(*P, FullCfg);
        }
        T.FullMs += msSince(L0);
      } else {
        {
          Span Sp(Reg, BaseRunSpan, "herd");
          Base = runPipeline(*P, BaseCfg);
        }
        T.BaseMs += msSince(L0);
      }
    }
    {
      Span Sp(Reg, "check-runs", CheckCategory);
      checkFull(S, *P, Full.Run, Full.Reports, Log);
      checkBase(S, Base.Run, Log);
    }
    std::string Json, Sarif;
    {
      Span Sp(Reg, "renderReportJson", "herd");
      Json = renderReportJson(*P, Full);
    }
    {
      Span Sp(Reg, "renderReportSarif", "herd");
      Sarif = renderReportSarif(*P, Full);
    }
    {
      Span Sp(Reg, "check-export", CheckCategory);
      checkExport(S, Full, Json, Sarif, Log);
      if (KeepPrints)
        T.Prints.push_back(raceFingerprints(Full.Entries));
    }
    countFull(T, Full);
  }
  for (const ReplayInput &R : Cx.In.Replays) {
    PipelineResult Res[NumBackends];
    // Rotate the backend order across iterations.
    for (int K = 0; K != NumBackends; ++K) {
      int B = (K + int(Iter)) % NumBackends;
      ToolConfig C = ToolConfig::full();
      C.Metrics = Reg;
      if (B == Sharded2)
        C.Shards = 2;
      if (B == Epoch)
        C.Backend = ToolConfig::DetectorBackend::Epoch;
      std::optional<PinToCurrentCpu> Pin;
      if (B == Sharded2)
        Pin.emplace();
      uint64_t R0 = nowNs();
      {
        Span Sp(Reg, ReplaySpans[B], "herd");
        Res[B] = replayTracePipeline(R.P, C, R.TracePath);
      }
      T.ReplayMs[B] += msSince(R0);
    }
    T.ReplayEvents += R.Records;
    {
      Span Sp(Reg, "check-replays", CheckCategory);
      for (int B = 0; B != NumBackends; ++B)
        Log.expect(Res[B].Run.Ok, R.Name + ": " + BackendNames[B] +
                                      " replay failed: " + Res[B].Run.Error);
      Log.expect(Res[Serial].Reports.reportedLocations() ==
                     Res[Sharded2].Reports.reportedLocations(),
                 R.Name + ": serial and sharded2 racy locations differ");
      std::set<std::string> EpochLines(Res[Epoch].FormattedRaces.begin(),
                                       Res[Epoch].FormattedRaces.end());
      Log.expect(EpochLines == R.HbRacyLines,
                 R.Name + ": epoch racy locations differ from vector clocks");
      if (KeepPrints)
        T.Prints.push_back(raceFingerprints(Res[Serial].Entries));
    }
    countReplays(T, Res);
  }
  T.WallMs = msSince(Start);
  return T;
}

//===----------------------------------------------------------------------===
// The interpretation ladder
//===----------------------------------------------------------------------===

/// A sink that accepts every hook and does nothing: the null-sink rung pays
/// for hook delivery without detection, the decode rung for decoding only.
class NullSink : public RuntimeHooks {};

/// One live program prepared once for the ladder: as compiled, and
/// instrumented the way runPipeline(Full) instruments it, with its shadow
/// code.
struct LadderSubject {
  Program Compiled, Instrumented;
  std::unique_ptr<ThreadedCode> Code;
};

struct RungResult {
  double Ms = 0;
  uint64_t Instructions = 0, Switches = 0, AccessEvents = 0;
  bool Ok = true;
};

/// Rungs 1-4 (indices 0-3) climb from bare interpretation to a Full live
/// run; rung 5 decodes the workload's traces into a do-nothing sink, the
/// decode-only cost every replay pays.  The last step is not a rung: an
/// unpinned two-shard replay, run with the ladder so its order rotates
/// too.
constexpr int NumRungs = 5, NumSteps = 6, UnpinnedStep = 5;
const char *const RungNames[NumRungs] = {
    "base-q1024", "base-q40", "instrumented-null-sink", "full",
    "replay-decode"};

/// Total duration of the pipeline-thread spans named \p Name.
double spanMs(const MetricsRegistry &Reg, std::string_view Name) {
  uint64_t Ns = 0;
  for (const TraceEvent &E : Reg.traceEvents())
    if (E.Phase == 'X' && E.Tid == 0 && E.Name == Name)
      Ns += E.DurNanos;
  return double(Ns) / 1e6;
}

RungResult runStep(int Step, const Context &Cx,
                   const std::vector<LadderSubject> &Subjects) {
  RungResult R;
  if (Step == 4) {
    for (const ReplayInput &In : Cx.In.Replays) {
      uint64_t T0 = nowNs();
      TraceReader Reader;
      NullSink Sink;
      bool Ok = Reader.open(In.TracePath).Ok && Reader.replayInto(Sink).Ok;
      R.Ms += msSince(T0);
      R.Ok = R.Ok && Ok;
      R.AccessEvents += Reader.recordsRead();
    }
    return R;
  }
  if (Step == UnpinnedStep) {
    for (const ReplayInput &In : Cx.In.Replays) {
      MetricsRegistry Reg;
      ToolConfig C = ToolConfig::full();
      C.Shards = 2;
      C.Metrics = &Reg;
      PipelineResult Res = replayTracePipeline(In.P, C, In.TracePath);
      R.Ms += spanMs(Reg, "replay") + spanMs(Reg, "detect-drain");
      R.Ok = R.Ok && Res.Run.Ok;
      R.AccessEvents += In.Records;
    }
    return R;
  }
  for (const LadderSubject &L : Subjects) {
    InterpResult Run;
    if (Step == 2) {
      // The instrumented program with runPipeline's interpreter settings,
      // its hooks going nowhere.
      ToolConfig C = ToolConfig::full();
      InterpOptions O;
      O.Seed = Cx.Seed;
      O.MaxQuantum = C.MaxQuantum;
      O.MaxInstructions = C.MaxInstructions;
      O.Dispatch = C.Dispatch;
      O.Fused = L.Code.get();
      NullSink Sink;
      Interpreter Interp(L.Instrumented, &Sink, O);
      uint64_t T0 = nowNs();
      Run = Interp.run();
      R.Ms += msSince(T0);
    } else {
      MetricsRegistry Reg;
      ToolConfig C = Step == 3 ? ToolConfig::full() : ToolConfig::base();
      C.Seed = Cx.Seed;
      C.Metrics = &Reg;
      if (Step == 0)
        C.MaxQuantum = 1024;
      Run = runPipeline(L.Compiled, C).Run;
      R.Ms += spanMs(Reg, "execute");
    }
    R.Ok = R.Ok && Run.Ok;
    R.Instructions += Run.InstructionsExecuted;
    R.Switches += Run.ContextSwitches;
    R.AccessEvents += Run.AccessEvents;
  }
  return R;
}

bool prepareLadder(const WorkloadInputs &In,
                   std::vector<LadderSubject> &Out) {
  for (const Subject &S : In.Subjects) {
    LadderSubject L;
    if (S.Source.empty()) {
      L.Compiled = S.Prebuilt;
    } else {
      CompileResult C = compileMiniJ(S.Source);
      if (!C.Ok)
        return false;
      L.Compiled = std::move(C.P);
    }
    L.Instrumented = L.Compiled;
    StaticRaceAnalysis Races(L.Instrumented);
    Races.run();
    instrumentProgram(L.Instrumented, InstrumenterOptions(), &Races);
    L.Code =
        std::make_unique<ThreadedCode>(buildThreadedCode(L.Instrumented));
    Out.push_back(std::move(L));
  }
  return true;
}

//===----------------------------------------------------------------------===
// Output
//===----------------------------------------------------------------------===

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  size_t Samples = 0;
};

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid(0x80000000u, &Regs[0], &Regs[1], &Regs[2], &Regs[3]) &&
      Regs[0] >= 0x80000004u) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[I * 4], &Regs[I * 4 + 1],
                  &Regs[I * 4 + 2], &Regs[I * 4 + 3]);
    std::string Brand(reinterpret_cast<const char *>(Regs), sizeof(Regs));
    Brand.erase(std::find(Brand.begin(), Brand.end(), '\0'), Brand.end());
    size_t First = Brand.find_first_not_of(' ');
    return First == std::string::npos ? "unknown" : Brand.substr(First);
  }
#endif
  return "unknown";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out += Ch;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TmpDir = ".";
  std::string SpansOut;
};

/// Prints the metric table, the stamp and the result object; returns the
/// exit status: 0 when every iteration passed its checks and there are
/// samples to report.
/// \p TableOnly rows are printed in the table but are not result metrics.
int printResult(const Options &O, const std::vector<Metric> &Metrics,
                uint64_t Attempted, uint64_t Failed, bool HaveSamples,
                const std::vector<Metric> &TableOnly = {}) {
  bool Correct = Failed == 0 && HaveSamples;
  for (const std::vector<Metric> *Rows : {&Metrics, &TableOnly})
    for (const Metric &M : *Rows)
      std::printf("%-36s %14s %-10s n=%zu\n", M.Name.c_str(),
                  number(M.Value).c_str(), M.Unit.c_str(), M.Samples);
  double ErrorRate = ratio(double(Failed), double(Attempted));
  std::printf("%-36s %14s %-10s n=%llu\n", "error_rate",
              number(ErrorRate).c_str(), "ratio",
              (unsigned long long)Attempted);
  std::string Stamp = "{\"stamp\": {\"workload\": " + jsonString(O.Workload) +
                      ", \"seed\": " + std::to_string(O.Seed) +
                      ", \"seconds\": " + number(O.Seconds) +
                      ", \"trace\": " + (O.Trace ? "1" : "0") +
                      ", \"nproc\": " +
                      std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"cpu_model\": " + jsonString(cpuModel()) +
                      ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
                      ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                      ", \"error_rate\": " + number(ErrorRate) +
                      "}, \"samples\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Stamp += (I ? ", " : "") + jsonString(Metrics[I].Name) + ": " +
             std::to_string(Metrics[I].Samples);
  std::printf("%s}}\n", Stamp.c_str());
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Metrics[I].Name) +
           ": {\"value\": " + number(Metrics[I].Value) +
           ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  std::printf("%s}}\n", Out.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

/// Per-iteration samples, reduced to medians at the end.
class SampleSet {
public:
  void add(const std::string &Name, double V) { Values[Name].push_back(V); }
  const std::vector<double> &of(const std::string &Name) {
    return Values[Name];
  }

private:
  std::map<std::string, std::vector<double>> Values;
};

Metric medianMetric(SampleSet &S, const std::string &Name,
                    const std::string &Unit) {
  const std::vector<double> &V = S.of(Name);
  return {Name, Unit, median(V), V.size()};
}

//===----------------------------------------------------------------------===
// The two run modes
//===----------------------------------------------------------------------===

double peakRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Counts one iteration's outcome, reporting its first failure.
void tally(const CheckLog &Log, const char *What, uint32_t Iter,
           uint64_t &Attempted, uint64_t &Failed) {
  ++Attempted;
  if (!Log.Failed)
    return;
  ++Failed;
  std::fprintf(stderr, "check failed (%s %u): %s\n", What, Iter,
               Log.First.c_str());
}

/// Times one reference run.  Its checksum must not change: the reference is
/// a measuring stick, and one that computes something else measures nothing.
double referenceMs(ReferenceKernel &Ref, CheckLog &Log) {
  uint64_t T0 = nowNs();
  uint64_t Sum = Ref.run();
  double Ms = msSince(T0);
  Log.expect(Sum == Ref.expected(), "the reference kernel's checksum changed");
  return Ms;
}

/// The factor that takes a time measured between reference runs of
/// \p BeforeMs and \p AfterMs to reference speed (Reference.h).
double toReference(double BeforeMs, double AfterMs) {
  return ratio(ReferenceKernel::NominalMs, (BeforeMs + AfterMs) / 2);
}

/// Set-up times, in seconds at reference speed and as measured.
struct SetupTimes {
  std::vector<double> Scaled, Raw;
};

int runEndToEnd(const Options &O, const Context &Cx, const SetupTimes &Setup,
                ReferenceKernel &Ref, CheckLog &RefLog) {
  uint64_t Attempted = 0, Failed = 0;
  CheckLog Warm;
  runIteration(Cx, 0, Warm, nullptr, false); // discarded warm-up
  tally(Warm, "warm-up", 0, Attempted, Failed);
  SampleSet S;
  // Every iteration sits between two reference runs; its timings are
  // reported at reference speed, and the table also shows them as measured.
  double Before = referenceMs(Ref, RefLog);
  uint64_t Start = nowNs();
  for (uint32_t Iter = 1; msSince(Start) < O.Seconds * 1e3; ++Iter) {
    CheckLog Log;
    IterTotals T = runIteration(Cx, Iter, Log, nullptr, false);
    double After = referenceMs(Ref, RefLog);
    double Scale = toReference(Before, After);
    S.add("reference_ms", After);
    Before = After;
    tally(Log, "iteration", Iter, Attempted, Failed);
    if (Log.Failed)
      continue;
    S.add("iter_ms", T.WallMs * Scale);
    S.add("iter_ms.raw", T.WallMs);
    double LiveRate = ratio(double(T.Instructions) / 1e6, T.FullExecMs / 1e3);
    S.add("live_minstr_per_s", LiveRate / Scale);
    S.add("live_minstr_per_s.raw", LiveRate);
    S.add("detect_slowdown_x", ratio(T.FullMs, T.BaseMs));
    for (int B = 0; B != NumBackends; ++B) {
      std::string Name = std::string("replay_mevents_per_s.") + BackendNames[B];
      double Rate = ratio(double(T.ReplayEvents) / 1e6, T.ReplayMs[B] / 1e3);
      S.add(Name, Rate / Scale);
      S.add(Name + ".raw", Rate);
    }
    double SourceRate =
        ratio(double(T.SourceBytes) / 1024.0, T.CompileMs / 1e3);
    S.add("source_kb_per_s", SourceRate / Scale);
    S.add("source_kb_per_s.raw", SourceRate);
  }
  tally(RefLog, "reference", 0, Attempted, Failed);
  const std::vector<double> &Iters = S.of("iter_ms");
  const std::vector<double> &RawIters = S.of("iter_ms.raw");
  std::vector<Metric> M, Raw;
  M.push_back({"setup_s", "s", median(Setup.Scaled), Setup.Scaled.size()});
  M.push_back({"iter_ms_p50", "ms", median(Iters), Iters.size()});
  M.push_back({"iter_ms_p90", "ms", percentile(Iters, 0.9), Iters.size()});
  M.push_back(medianMetric(S, "live_minstr_per_s", "Minstr/s"));
  M.push_back(medianMetric(S, "detect_slowdown_x", "x"));
  for (int B = 0; B != NumBackends; ++B)
    M.push_back(medianMetric(
        S, std::string("replay_mevents_per_s.") + BackendNames[B],
        "Mevents/s"));
  M.push_back(medianMetric(S, "source_kb_per_s", "KiB/s"));
  M.push_back({"peak_rss_mb", "MiB", peakRssMb(), 1});
  // The same figures as measured, before scaling to reference speed.
  Raw.push_back(medianMetric(S, "reference_ms", "ms"));
  Raw.push_back({"setup_s.raw", "s", median(Setup.Raw), Setup.Raw.size()});
  Raw.push_back({"iter_ms_p50.raw", "ms", median(RawIters), RawIters.size()});
  Raw.push_back(
      {"iter_ms_p90.raw", "ms", percentile(RawIters, 0.9), RawIters.size()});
  Raw.push_back(medianMetric(S, "live_minstr_per_s.raw", "Minstr/s"));
  for (int B = 0; B != NumBackends; ++B)
    Raw.push_back(medianMetric(
        S, std::string("replay_mevents_per_s.") + BackendNames[B] + ".raw",
        "Mevents/s"));
  Raw.push_back(medianMetric(S, "source_kb_per_s.raw", "KiB/s"));
  return printResult(O, M, Attempted, Failed, !Iters.empty(), Raw);
}

/// One traced iteration, kept until the ladder's medians are known.
struct TracedIteration {
  IterationSpans Spans;
  IterTotals Totals;
  CheckLog Log;
};

int runTraced(const Options &O, const Context &Cx, double BuildMs,
              ReferenceKernel &Ref, CheckLog &RefLog) {
  uint64_t Attempted = 0, Failed = 0;
  CheckLog Warm;
  runIteration(Cx, 0, Warm, nullptr, false); // discarded warm-up
  tally(Warm, "warm-up", 0, Attempted, Failed);
  std::vector<LadderSubject> Ladder;
  bool Ready = prepareLadder(Cx.In, Ladder);
  if (!Ready) {
    ++Failed;
    std::fprintf(stderr, "check failed: ladder preparation failed\n");
  }

  std::vector<TracedIteration> Traced;
  std::vector<double> PlainMs, ReferenceMs;
  std::vector<double> StepMs[NumSteps];
  RungResult StepCounts[NumSteps];
  CheckLog LadderLog;
  uint64_t Start = nowNs();
  for (uint32_t Round = 1; Ready && msSince(Start) < O.Seconds * 1e3;
       ++Round) {
    // ABAB: plain and traced iterations swap order every round, and the
    // ladder climbs up on even rounds and down on odd ones.
    IterTotals Plain;
    CheckLog PlainLog;
    TracedIteration T;
    for (int Leg = 0; Leg != 2; ++Leg) {
      if ((Leg == 0) == (Round % 2 == 0)) {
        Plain = runIteration(Cx, Round, PlainLog, nullptr, true);
      } else {
        MetricsRegistry Reg;
        uint64_t T0 = Reg.nowNanos();
        T.Totals = runIteration(Cx, Round, T.Log, &Reg, true);
        T.Spans = collectSpans(Reg, Round, T0, Reg.nowNanos());
      }
    }
    tally(PlainLog, "plain round", Round, Attempted, Failed);
    if (!PlainLog.Failed)
      PlainMs.push_back(Plain.WallMs);
    // Tracing only listens: the traced iteration must find what the plain
    // one found.
    T.Log.expect(T.Totals.Prints == Plain.Prints,
                 "the traced iteration's race fingerprints differ from the "
                 "plain iteration's");
    Traced.push_back(std::move(T));
    for (int K = 0; K != NumSteps; ++K) {
      int Step = Round % 2 == 0 ? K : NumSteps - 1 - K;
      RungResult R = runStep(Step, Cx, Ladder);
      LadderLog.expect(R.Ok, std::string("a ladder step's run failed"));
      StepMs[Step].push_back(R.Ms);
      StepCounts[Step] = R;
    }
    // The null-sink rung must run what the Full rung runs.
    LadderLog.expect(
        StepCounts[2].Instructions == StepCounts[3].Instructions &&
            StepCounts[2].AccessEvents == StepCounts[3].AccessEvents,
        "the null-sink rung and the Full rung executed different work");
    ReferenceMs.push_back(referenceMs(Ref, RefLog));
  }
  tally(LadderLog, "ladder", 0, Attempted, Failed);
  tally(RefLog, "reference", 0, Attempted, Failed);

  double RungMs[NumSteps];
  for (int K = 0; K != NumSteps; ++K)
    RungMs[K] = median(StepMs[K]);
  LadderSplit Split;
  // Rung 2 (Base at the default quantum) over rung 4 (Full) is the share of
  // a detector-attached interpreter run that is interpretation and
  // scheduling; the rest is hook delivery and live detection.
  Split.RuntimeShare = ratio(RungMs[1], RungMs[3]);
  Split.DecodeNsPerEvent =
      ratio(RungMs[4] * 1e6, double(StepCounts[4].AccessEvents));
  Split.ReplayEvents = StepCounts[4].AccessEvents;

  SampleSet S;
  std::vector<IterationSpans> AllSpans;
  for (TracedIteration &T : Traced) {
    IterationLedger L = buildLedger(T.Spans, Split);
    if (!L.holds())
      T.Log.fail("ledger: " + L.Problem);
    tally(T.Log, "traced round", T.Spans.Id, Attempted, Failed);
    const IterTotals &C = T.Totals;
    const IterationSpans &It = T.Spans;
    auto Ms = [&](std::string_view Name, std::string_view Parent = {}) {
      return double(totalNs(It, Name, Parent)) / 1e6;
    };
    double CompileMs = Ms("compileMiniJ");
    S.add("frontend.compile_ms", CompileMs);
    S.add("frontend.ns_per_byte",
          ratio(CompileMs * 1e6, double(C.SourceBytes)));
    S.add("analysis.static_race_ms", Ms("static-race"));
    S.add("analysis.plan_ms", Ms("plan"));
    S.add("analysis.race_set_size", double(C.RaceSetSize));
    S.add("analysis.may_race_pairs", double(C.MayRacePairs));
    S.add("instr.instrument_ms", Ms("instrument"));
    S.add("instr.fuse_ms", Ms("fuse"));
    S.add("instr.traces_inserted", double(C.TracesInserted));
    S.add("instr.traces_removed", double(C.TracesRemoved));
    S.add("instr.loops_peeled", double(C.LoopsPeeled));
    S.add("instr.fused_sites", double(C.FusedSites));
    S.add("runtime.instructions", double(C.Instructions));
    S.add("runtime.context_switches", double(C.ContextSwitches));
    S.add("runtime.exec_ms", Ms("execute"));
    S.add("detect.l0_hit_rate",
          ratio(double(C.FilterHits), double(C.AccessEvents)));
    S.add("detect.cache_hit_rate",
          ratio(double(C.CacheHits), double(C.CacheLookups)));
    // A backend's own cost: its replay and drain phases, less the
    // decode-only rung's cost per event.
    auto BackendNs = [&](Backend B) {
      double BackendMs = Ms("replay", ReplaySpans[B]) +
                         Ms("detect-drain", ReplaySpans[B]);
      return ratio(BackendMs * 1e6, double(C.ReplayEvents)) -
             Split.DecodeNsPerEvent;
    };
    S.add("detect.serial_ns_per_event", BackendNs(Serial));
    S.add("detect.owned_filtered_frac",
          ratio(double(C.OwnedFiltered), double(C.DetectorEventsIn)));
    S.add("detect.weaker_filtered_frac",
          ratio(double(C.WeakerFiltered), double(C.DetectorEventsIn)));
    S.add("detect.sharded2_ns_per_event", BackendNs(Sharded2));
    S.add("detect.shard_imbalance",
          ratio(C.ShardImbalance, double(Cx.In.Replays.size())));
    S.add("detect.trie_nodes", double(C.TrieNodes));
    S.add("detect.locations", double(C.Locations));
    S.add("detect.races_reported", double(C.RacesReported));
    S.add("baselines.epoch_ns_per_event", BackendNs(Epoch));
    S.add("baselines.epoch_same_epoch_frac",
          ratio(double(C.EpochSameEpoch), double(C.EpochEvents)));
    S.add("baselines.epoch_read_inflations", double(C.EpochInflations));
    S.add("herd.report_json_ms", Ms("renderReportJson"));
    S.add("herd.report_sarif_ms", Ms("renderReportSarif"));
    S.add("herd.report_entries", double(C.ReportEntries));
    S.add("herd.unattributed_ms", L.UnattributedMs);
    for (size_t K = 0; K != NumLayers; ++K)
      if (Layer(K) != Layer::Workloads)
        S.add(std::string(layerName(Layer(K))) + ".self_ms", L.SelfMs[K]);
    S.add("traced_iter_ms", C.WallMs);
    AllSpans.push_back(std::move(T.Spans));
  }
  if (!O.SpansOut.empty() && !writeSpansJson(AllSpans, O.SpansOut))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 O.SpansOut.c_str());

  const RungResult &R1 = StepCounts[0], &R2 = StepCounts[1],
                   &R3 = StepCounts[2];
  double Events = double(R3.AccessEvents);
  std::vector<Metric> M;
  auto Add = [&](const std::string &Name, const std::string &Unit) {
    M.push_back(medianMetric(S, Name, Unit));
  };
  auto AddLadder = [&](const std::string &Name, const std::string &Unit,
                       double V) {
    M.push_back({Name, Unit, V, StepMs[0].size()});
  };
  Add("frontend.compile_ms", "ms");
  Add("frontend.ns_per_byte", "ns/B");
  Add("frontend.self_ms", "ms");
  Add("analysis.static_race_ms", "ms");
  Add("analysis.plan_ms", "ms");
  Add("analysis.race_set_size", "count");
  Add("analysis.may_race_pairs", "count");
  Add("analysis.self_ms", "ms");
  Add("instr.instrument_ms", "ms");
  Add("instr.fuse_ms", "ms");
  Add("instr.traces_inserted", "count");
  Add("instr.traces_removed", "count");
  Add("instr.loops_peeled", "count");
  Add("instr.fused_sites", "count");
  Add("instr.self_ms", "ms");
  AddLadder("runtime.interp_ns_per_instr", "ns/instr",
            ratio(RungMs[0] * 1e6, double(R1.Instructions)));
  AddLadder("runtime.sched_ns_per_switch", "ns/switch",
            ratio((RungMs[1] - RungMs[0]) * 1e6,
                  double(R2.Switches) - double(R1.Switches)));
  Add("runtime.instructions", "count");
  Add("runtime.context_switches", "count");
  Add("runtime.exec_ms", "ms");
  Add("runtime.self_ms", "ms");
  AddLadder("detect.hook_ns_per_event", "ns/event",
            ratio((RungMs[2] - RungMs[1]) * 1e6, Events));
  AddLadder("detect.live_detect_ns_per_event", "ns/event",
            ratio((RungMs[3] - RungMs[2]) * 1e6, Events));
  Add("detect.l0_hit_rate", "ratio");
  Add("detect.cache_hit_rate", "ratio");
  AddLadder("detect.decode_ns_per_event", "ns/event", Split.DecodeNsPerEvent);
  Add("detect.serial_ns_per_event", "ns/event");
  Add("detect.owned_filtered_frac", "ratio");
  Add("detect.weaker_filtered_frac", "ratio");
  Add("detect.sharded2_ns_per_event", "ns/event");
  AddLadder("detect.sharded2_unpinned_ns_per_event", "ns/event",
            ratio(RungMs[UnpinnedStep] * 1e6,
                  double(StepCounts[UnpinnedStep].AccessEvents)) -
                Split.DecodeNsPerEvent);
  Add("detect.shard_imbalance", "ratio");
  Add("detect.trie_nodes", "count");
  Add("detect.locations", "count");
  Add("detect.races_reported", "count");
  Add("detect.self_ms", "ms");
  Add("baselines.epoch_ns_per_event", "ns/event");
  Add("baselines.epoch_same_epoch_frac", "ratio");
  Add("baselines.epoch_read_inflations", "count");
  Add("baselines.self_ms", "ms");
  Add("herd.report_json_ms", "ms");
  Add("herd.report_sarif_ms", "ms");
  Add("herd.report_entries", "count");
  Add("herd.unattributed_ms", "ms");
  Add("herd.self_ms", "ms");
  M.push_back({"workloads.build_ms", "ms", BuildMs, SetupRepeats});
  for (int K = 0; K != NumRungs; ++K)
    AddLadder(std::string("ladder.") + RungNames[K] + "_ms", "ms", RungMs[K]);
  double TracedP50 = median(S.of("traced_iter_ms"));
  M.push_back({"bench.traced_iter_ms_p50", "ms", TracedP50,
               S.of("traced_iter_ms").size()});
  M.push_back({"bench.tracing_overhead_ms", "ms", TracedP50 - median(PlainMs),
               PlainMs.size()});
  M.push_back({"bench.reference_ms", "ms", median(ReferenceMs),
               ReferenceMs.size()});
  return printResult(O, M, Attempted, Failed, !Traced.empty());
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    errno = 0;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      if (!(O.Seconds > 0))
        return false;
    } else if (Key == "--trace") {
      if (Val != "0" && Val != "1")
        return false;
      O.Trace = Val == "1";
    } else if (Key == "--tmp-dir") {
      O.TmpDir = Val;
    } else if (Key == "--spans-out") {
      O.SpansOut = Val;
    } else {
      return false;
    }
    if (End && (*End != '\0' || errno != 0 || Val.empty()))
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: herd_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmp-dir DIR] [--spans-out FILE]\n");
    return 2;
  }
  TempDir Tmp(O.TmpDir);
  if (!Tmp.ok()) {
    std::fprintf(stderr, "cannot create a temporary directory in %s\n",
                 O.TmpDir.c_str());
    return 1;
  }
  // Set up several times and keep the last; setup_s is the median, at
  // reference speed like the other end-to-end timings.
  Context Cx;
  Cx.Seed = O.Seed;
  ReferenceKernel Ref;
  CheckLog RefLog;
  SetupTimes Setup;
  std::vector<double> BuildMs;
  double Before = referenceMs(Ref, RefLog);
  for (int I = 0; I != SetupRepeats; ++I) {
    std::string Why;
    uint64_t T0 = nowNs();
    if (!setupWorkload(O.Workload, O.Seed, Tmp, Cx.In, Why)) {
      std::fprintf(stderr, "setup failed: %s\n", Why.c_str());
      return 1;
    }
    double Seconds = msSince(T0) / 1e3;
    double After = referenceMs(Ref, RefLog);
    Setup.Scaled.push_back(Seconds * toReference(Before, After));
    Setup.Raw.push_back(Seconds);
    Before = After;
    BuildMs.push_back(Cx.In.BuildMs);
  }
  return O.Trace ? runTraced(O, Cx, median(BuildMs), Ref, RefLog)
                 : runEndToEnd(O, Cx, Setup, Ref, RefLog);
}
