//===- herd/Pipeline.cpp - The end-to-end detection pipeline --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "herd/Pipeline.h"

#include "analysis/DetectorPlanner.h"
#include "detect/TraceFile.h"
#include "instr/Superinstr.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"

#include <cassert>
#include <chrono>
#include <optional>

using namespace herd;

ToolConfig ToolConfig::base() {
  ToolConfig C;
  C.Instrument = false;
  return C;
}

ToolConfig ToolConfig::full() { return ToolConfig(); }

ToolConfig ToolConfig::noStatic() {
  ToolConfig C;
  C.StaticAnalysis = false;
  return C;
}

ToolConfig ToolConfig::noDominators() {
  ToolConfig C;
  C.StaticWeakerThan = false;
  C.LoopPeeling = false; // useless without the weaker-than check (Sec 8.2)
  return C;
}

ToolConfig ToolConfig::noPeeling() {
  ToolConfig C;
  C.LoopPeeling = false;
  return C;
}

ToolConfig ToolConfig::noCache() {
  ToolConfig C;
  C.UseCache = false;
  return C;
}

ToolConfig ToolConfig::fieldsMerged() {
  ToolConfig C;
  C.FieldsMerged = true;
  return C;
}

ToolConfig ToolConfig::noOwnership() {
  ToolConfig C;
  C.UseOwnership = false;
  return C;
}

namespace {

/// Renders a site reference for diagnostics: the symbolic label, plus
/// "(file:line)" when the frontend recorded a source line ("L7
/// (prog.mj:7)"); empty for an invalid site.
std::string siteRef(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return std::string();
  const SourceSite &S = P.site(Site);
  std::string Out(P.Names.text(S.Label));
  if (S.Line != 0 && !P.SourceName.empty()) {
    Out += " (";
    Out += P.SourceName;
    Out += ':';
    Out += std::to_string(S.Line);
    Out += ')';
  }
  return Out;
}

/// The 1-based source line of \p Site, or 0 when unknown.
uint32_t siteLine(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return 0;
  return P.site(Site).Line;
}

/// The symbolic label of \p Site, or empty when unknown.
std::string siteLabel(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return std::string();
  return std::string(P.Names.text(P.site(Site).Label));
}

/// Appends the `--provenance=on` detail lines to a formatted race: where
/// the earlier access was, how the racing thread was spawned, where each
/// held lock was acquired, and the thread's recent access history.  Every
/// line is indented continuation text of the same report.
void appendProvenanceDetail(std::string &Out, const Program &P,
                            const ProvenanceStore &Prov,
                            const RaceRecord &Rec) {
  if (Rec.PriorSite.isValid()) {
    Out += "\n    earlier access at ";
    Out += siteRef(P, Rec.PriorSite);
  }
  ProvenanceStore::Spawn Sp = Prov.spawnOf(Rec.CurrentThread);
  if (Sp.Parent.isValid()) {
    Out += "\n    thread ";
    Out += std::to_string(Rec.CurrentThread.index());
    Out += " spawned by thread ";
    Out += std::to_string(Sp.Parent.index());
    if (Sp.Site.isValid()) {
      Out += " at ";
      Out += siteRef(P, Sp.Site);
    }
  }
  for (LockId L : Rec.CurrentLocks) {
    if (L.index() >= (1u << 30))
      continue; // dummy join locks have no acquisition statement
    ProvenanceStore::LockAcquire Acq = Prov.lockAcquire(L);
    if (!Acq.Site.isValid())
      continue;
    Out += "\n    lock #";
    Out += std::to_string(L.index());
    Out += " acquired by thread ";
    Out += std::to_string(Acq.Thread.index());
    Out += " at ";
    Out += siteRef(P, Acq.Site);
  }
  std::vector<ProvenanceStore::AccessEntry> Recent =
      Prov.recentAccesses(Rec.CurrentThread);
  if (!Recent.empty()) {
    Out += "\n    recent by thread ";
    Out += std::to_string(Rec.CurrentThread.index());
    Out += ':';
    // Newest last mirrors program order; cap keeps reports readable.
    size_t Shown = 0;
    size_t First = Recent.size() > 4 ? Recent.size() - 4 : 0;
    for (size_t I = First; I != Recent.size(); ++I) {
      const ProvenanceStore::AccessEntry &A = Recent[I];
      Out += Shown++ ? ", " : " ";
      Out += A.Access == AccessKind::Write ? "write" : "read";
      std::string Site = siteLabel(P, A.Site);
      if (!Site.empty()) {
        Out += " at ";
        Out += Site;
      }
    }
  }
}

/// Renders a location as "race on <class> #N field f" using program
/// metadata and, when available, the final heap (for object class names).
/// Replay runs have no heap — the trace carries only event ids — so
/// \p TheHeap may be null, in which case objects are reported by index
/// alone.  The epoch backend reports locations, not full race records, so
/// its lines are exactly this; formatRace appends the attribution.
std::string formatRacyLocation(const Program &P, const Heap *TheHeap,
                               LocationKey Location) {
  std::string Out = "race on ";
  ObjectId Obj = Location.object();
  if (TheHeap && Obj.index() < TheHeap->size()) {
    const HeapObject &H = TheHeap->object(Obj);
    if (H.IsArray) {
      Out += "array";
    } else if (H.IsClassStatics) {
      Out += "statics";
    } else if (H.Class.isValid()) {
      Out += P.Names.text(P.classDecl(H.Class).Name);
    } else {
      Out += "object";
    }
  } else {
    Out += "object";
  }
  Out += " #";
  Out += std::to_string(Obj.index());
  uint32_t FieldBits = uint32_t(Location.raw() & 0xFFFFFFFF);
  if (FieldBits < P.numFields()) {
    Out += " field ";
    Out += P.Names.text(P.field(FieldId(FieldBits)).Name);
  }
  return Out;
}

/// Renders one race record: its location, then the racing accesses.
std::string formatRace(const Program &P, const Heap *TheHeap,
                       const RaceRecord &Rec) {
  std::string Out = formatRacyLocation(P, TheHeap, Rec.Location);
  Out += ": ";
  Out += Rec.CurrentAccess == AccessKind::Write ? "write" : "read";
  Out += " by thread ";
  Out += std::to_string(Rec.CurrentThread.index());
  if (Rec.CurrentSite.isValid()) {
    Out += " at ";
    Out += P.Names.text(P.site(Rec.CurrentSite).Label);
  }
  Out += " conflicts with earlier ";
  Out += Rec.PriorAccess == AccessKind::Write ? "write" : "read";
  if (Rec.PriorThreadKnown) {
    Out += " by thread ";
    Out += std::to_string(Rec.PriorThread.index());
  } else {
    Out += " (thread unknown: multiple earlier threads)";
  }
  // Dummy join locks (Section 2.3) are an implementation device; report
  // only program locks, but surface the join ordering when present.
  size_t RealLocks = 0;
  bool HasDummy = false;
  for (LockId L : Rec.PriorLocks) {
    if (L.index() >= (1u << 30))
      HasDummy = true;
    else
      ++RealLocks;
  }
  Out += " holding ";
  Out += std::to_string(RealLocks);
  Out += " lock(s)";
  if (HasDummy)
    Out += " (+join ordering)";
  return Out;
}

/// Stable identity of a deadlock cycle: the canonicalized lock sequence
/// with each edge's acquisition site (detect/RaceReport.h's mixer).
/// Threads are excluded — the same cycle witnessed by other threads is the
/// same bug.
uint64_t deadlockFingerprint(const DeadlockCycle &Cycle) {
  uint64_t H = fingerprintMix(0xD1);
  for (size_t I = 0; I != Cycle.Locks.size(); ++I) {
    SiteId S = I < Cycle.Sites.size() ? Cycle.Sites[I] : SiteId::invalid();
    H = fingerprintMix(H ^ ((uint64_t(Cycle.Locks[I].index()) << 32) |
                            uint64_t(S.index())));
  }
  return H;
}

/// Stable identity of a static allocation-site cycle.
uint64_t staticDeadlockFingerprint(const StaticLockCycle &Cycle) {
  uint64_t H = fingerprintMix(0xD2);
  for (AllocSiteId Site : Cycle.Sites)
    H = fingerprintMix(H ^ uint64_t(Site.index()));
  return H;
}

/// Runs the static half of the deadlock co-analysis over \p Input, reads
/// the dynamic cycles out of \p Deadlocks, and formats both into
/// \p Result.  Shared between live runs and trace replay.
void collectDeadlockResults(const Program &Input, DeadlockDetector &Deadlocks,
                            PipelineResult &Result) {
  // Static half of the co-analysis: whole-program candidates.
  PointsToAnalysis PT(Input);
  PT.run();
  SingleInstanceAnalysis SI(Input, PT);
  SI.run();
  LockOrderAnalysis LO(Input, PT, SI);
  LO.run();
  Result.StaticDeadlockCandidates = LO.findCycles();
  for (const StaticLockCycle &Cycle : Result.StaticDeadlockCandidates) {
    std::string Line = "static deadlock candidate: allocation-site cycle";
    for (AllocSiteId Site : Cycle.Sites) {
      Line += " -> site #";
      Line += std::to_string(Site.index());
      ClassId Cls = Input.allocSite(Site).Class;
      if (Cls.isValid()) {
        Line += " (";
        Line += Input.Names.text(Input.classDecl(Cls).Name);
        Line += ')';
      }
    }
    if (Cycle.Sites.size() == 1)
      Line += " [two instances of one site in opposite orders]";
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::DeadlockCandidate;
    Entry.Message = Line;
    Entry.Fingerprint = staticDeadlockFingerprint(Cycle);
    Result.Entries.push_back(std::move(Entry));
    Result.FormattedDeadlocks.push_back(std::move(Line));
  }

  Result.Deadlocks = Deadlocks.findPotentialDeadlocks();
  for (const DeadlockCycle &Cycle : Result.Deadlocks) {
    std::string Line = "potential deadlock: lock cycle";
    for (LockId L : Cycle.Locks) {
      Line += " -> object #";
      Line += std::to_string(L.index());
    }
    Line += " (threads";
    for (ThreadId T : Cycle.Threads) {
      Line += ' ';
      Line += std::to_string(T.index());
    }
    Line += ")";
    // Edge acquisition sites ride along when the event stream carried
    // them (live MiniJ runs and v1 traces recorded from them); traces
    // from site-less sources degrade to the bare cycle.
    bool AnySite = false;
    for (SiteId S : Cycle.Sites)
      AnySite = AnySite || S.isValid();
    if (AnySite) {
      Line += " acquired at";
      for (SiteId S : Cycle.Sites) {
        Line += ' ';
        std::string Ref = siteRef(Input, S);
        Line += Ref.empty() ? std::string("?") : Ref;
      }
    }
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::Deadlock;
    Entry.Message = Line;
    Entry.Fingerprint = deadlockFingerprint(Cycle);
    for (SiteId S : Cycle.Sites) {
      if (!S.isValid())
        continue;
      Entry.SiteLabel = siteLabel(Input, S);
      Entry.Line = siteLine(Input, S);
      break;
    }
    Result.Entries.push_back(std::move(Entry));
    Result.FormattedDeadlocks.push_back(std::move(Line));
  }
}

/// The shared report-formatting phase: renders the human lines (optionally
/// provenance-enriched) and builds the deduplicated ReportEntry list the
/// document renderers consume.  \p TheHeap may be null (replay runs).
void formatRaceResults(const Program &P, const Heap *TheHeap,
                       const EpochDetector *Epoch,
                       const ProvenanceStore *Prov, PipelineResult &Result) {
  if (Epoch) {
    for (LocationKey Loc : Epoch->reportedLocations())
      Result.FormattedRaces.push_back(formatRacyLocation(P, TheHeap, Loc));
    // Entries come from the first racing access per location, which
    // carries thread/site attribution the location set cannot.
    for (const EpochDetector::RacyAccess &RA : Epoch->racyAccesses()) {
      ReportEntry Entry;
      Entry.EntryKind = ReportEntry::Kind::RacyLocation;
      Entry.Message = formatRacyLocation(P, TheHeap, RA.Location);
      // Happens-before trips on the second access of a pair; the earlier
      // one is unknown, so it fingerprints as the invalid site (stable,
      // documented in docs/REPORTS.md).
      Entry.Fingerprint = raceFingerprint(RA.Location, RA.Site, RA.Access,
                                          SiteId::invalid(),
                                          AccessKind::Read);
      Entry.SiteLabel = siteLabel(P, RA.Site);
      Entry.Line = siteLine(P, RA.Site);
      Result.Entries.push_back(std::move(Entry));
    }
  }
  for (const RaceRecord &Rec : Result.Reports.records()) {
    std::string Line = formatRace(P, TheHeap, Rec);
    if (Prov)
      appendProvenanceDetail(Line, P, *Prov, Rec);
    Result.FormattedRaces.push_back(std::move(Line));
  }
  for (const RaceReporter::Group &G : Result.Reports.groups()) {
    const RaceRecord &Rec = Result.Reports.records()[G.FirstRecord];
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::Race;
    Entry.Message = formatRace(P, TheHeap, Rec);
    Entry.Fingerprint = G.Fingerprint;
    Entry.Occurrences = G.Count;
    Entry.SiteLabel = siteLabel(P, Rec.CurrentSite);
    Entry.Line = siteLine(P, Rec.CurrentSite);
    Entry.PriorSiteLabel = siteLabel(P, Rec.PriorSite);
    Entry.PriorLine = siteLine(P, Rec.PriorSite);
    Result.Entries.push_back(std::move(Entry));
  }
}

/// The detection half of a run, assembled the same way for live runs and
/// trace replay: the backend \p Config selects (serial RaceRuntime,
/// ShardedRuntime, or the epoch detector), the listeners next to it
/// (provenance, deadlock detector, trace recorder), and the fanout that
/// delivers events to all of them.  Holds pointers into itself, so it is
/// neither copied nor moved.
class DetectionAssembly {
public:
  /// \p Plan carries the capacity hints the caller resolved for this run
  /// (empty = no pre-sizing).  \p Observed is false for uninstrumented
  /// ("Base") live runs: they produce no access events, so the backend
  /// and provenance store are built but not attached — Base also skips
  /// sync tracking.  \p Recorder, when set, is attached last.
  DetectionAssembly(const ToolConfig &Config, const DetectorPlan &Plan,
                    bool Observed, TraceWriter *Recorder)
      : Config(Config) {
    if (Config.Backend == ToolConfig::DetectorBackend::Epoch) {
      // Serial only (HerdOptions rejects epoch + --shards); the plan's
      // capacity hints pre-size the clock store and location table.
      Epoch = std::make_unique<EpochDetector>(Plan);
      Detect = Epoch.get();
    } else {
      RaceRuntimeOptions Opts;
      Opts.UseCache = Config.UseCache;
      Opts.CacheEntries = Config.CacheEntries;
      Opts.UseOwnership = Config.UseOwnership;
      Opts.FieldsMerged = Config.FieldsMerged;
      Opts.ModelJoin = Config.ModelJoin;
      Opts.Plan = Plan;
      if (Config.Shards >= 1) {
        ShardedRuntimeOptions SOpts;
        SOpts.NumShards = Config.Shards;
        SOpts.Detection = Opts;
        SOpts.Metrics = Config.Metrics;
        Sharded = std::make_unique<ShardedRuntime>(SOpts);
        Detect = Sharded.get();
      } else {
        Serial = std::make_unique<RaceRuntime>(Opts);
        Detect = Serial.get();
      }
    }
    if (Observed)
      Sinks.push_back(Detect);
    // Provenance is a pure listener next to the detector: present only
    // when asked for (zero-cost-when-off), and a second sink by design —
    // which disables the devirtualized delivery lane, never the race set.
    if (Config.Provenance && Observed) {
      Prov.emplace();
      Sinks.push_back(&*Prov);
    }
    if (Config.DetectDeadlocks)
      Sinks.push_back(&Deadlocks);
    if (Recorder)
      Sinks.push_back(Recorder);
    // FanoutHooks is only materialized when several sinks actually watch
    // the run; the common single-sink configuration passes the sink
    // directly and pays no forwarding loop.
    if (Sinks.size() == 1) {
      Hooks = Sinks.front();
    } else if (Sinks.size() > 1) {
      Fanout.emplace(Sinks);
      Hooks = &*Fanout;
    }
  }

  DetectionAssembly(const DetectionAssembly &) = delete;
  DetectionAssembly &operator=(const DetectionAssembly &) = delete;

  /// Where the event source delivers; null when nothing listens.
  RuntimeHooks *hooks() const { return Hooks; }

  /// Devirtualized delivery (docs/HOOKPATH.md): when the detection runtime
  /// is the *sole* sink — no recorder, no deadlock detector — and no
  /// profiler wants to time hook calls, the interpreter probes the
  /// runtime's caches inline and delivers misses straight to the concrete
  /// runtime.  Any extra sink disables it so recorded traces keep every
  /// event.
  void setDirectSink(InterpOptions &IOpts) const {
    if (Config.HookFilter && !Config.Profiler && Sinks.size() == 1 &&
        Hooks == Detect) {
      IOpts.SerialSink = Serial.get();
      IOpts.ShardedSink = Sharded.get();
    }
  }

  /// Reads the backend's counters and reports into \p Result, draining a
  /// sharded runtime first.
  void harvest(PipelineResult &Result) {
    if (Epoch) {
      Result.EpochBackend = true;
      Result.Epoch = Epoch->stats();
      return;
    }
    if (Sharded) {
      Sharded->finish();
      Result.Stats = Sharded->stats();
      Result.Reports = Sharded->reporter();
      Result.ShardBreakdown = Sharded->shardStats();
    } else {
      Result.Stats = Serial->stats();
      Result.Reports = Serial->reporter();
    }
    // The inline probe needs a cache to probe.
    Result.Stats.Hook.FilterEnabled = Config.HookFilter && Config.UseCache;
  }

  /// Formats the harvested findings against \p P (and \p TheHeap, null
  /// for replay), hands over the provenance store, and — with
  /// DetectDeadlocks — adds the dynamic and static deadlock results, whose
  /// static half analyses \p Input.
  void finish(const Program &P, const Heap *TheHeap, const Program &Input,
              PipelineResult &Result) {
    {
      Span FormatSpan(Config.Metrics, "format-reports");
      formatRaceResults(P, TheHeap, Epoch.get(), Prov ? &*Prov : nullptr,
                        Result);
    }
    if (Prov) {
      Result.ProvenanceOn = true;
      Result.Provenance = std::move(*Prov);
    }
    if (Config.DetectDeadlocks)
      collectDeadlockResults(Input, Deadlocks, Result);
  }

private:
  const ToolConfig &Config;
  std::unique_ptr<RaceRuntime> Serial;
  std::unique_ptr<ShardedRuntime> Sharded;
  std::unique_ptr<EpochDetector> Epoch;
  RuntimeHooks *Detect = nullptr; ///< whichever backend was built
  std::optional<ProvenanceStore> Prov;
  DeadlockDetector Deadlocks;
  std::vector<RuntimeHooks *> Sinks;
  std::optional<FanoutHooks> Fanout;
  RuntimeHooks *Hooks = nullptr;
};

} // namespace

PipelineResult herd::runPipeline(const Program &Input,
                                 const ToolConfig &Config) {
  using Clock = std::chrono::steady_clock;
  PipelineResult Result;

  assert(verifyProgram(Input).empty() &&
         "pipeline input must be a verified program");

  // Phase 1+2: static analysis and instrumentation, on a private copy.
  Program P = Input;
  MetricsRegistry *Metrics = Config.Metrics;
  DetectorPlan Plan;
  Clock::time_point T0 = Clock::now();
  if (Config.Instrument) {
    std::unique_ptr<StaticRaceAnalysis> Races;
    if (Config.StaticAnalysis) {
      {
        Span AnalysisSpan(Metrics, "static-race");
        Races = std::make_unique<StaticRaceAnalysis>(P);
        Races->run(Metrics);
        Result.Static = Races->stats();
      }
      // The race set bounds what the runtime can see: turn it into
      // capacity hints so the detector pre-sizes instead of growing
      // through the cold pass (charged to analysis time, where it
      // belongs — it is the analysis paying for runtime efficiency).
      {
        Span PlanSpan(Metrics, "plan");
        Plan = planDetector(P, *Races);
      }
    }
    Span InstrSpan(Metrics, "instrument");
    InstrumenterOptions Opts;
    Opts.UseStaticRaceSet = Config.StaticAnalysis;
    Opts.StaticWeakerThan = Config.StaticWeakerThan;
    Opts.LoopPeeling = Config.LoopPeeling;
    Result.Instr = instrumentProgram(P, Opts, Races.get());
    assert(verifyProgram(P).empty() &&
           "instrumentation must preserve well-formedness");
  }
  // Superinstruction shadow code, built from the program's final
  // (post-instrumentation) form at plan time.  The verified IR is never
  // rewritten; the interpreter runs the shadow blocks
  // (docs/INTERPRETER.md).  Charged to analysis time: it is the plan
  // paying for runtime efficiency, like detector pre-sizing.
  std::unique_ptr<ThreadedCode> Shadow;
  if (Config.Superinstructions) {
    Span FuseSpan(Metrics, "fuse");
    Shadow = std::make_unique<ThreadedCode>(buildThreadedCode(P));
    Result.Fusion = Shadow->Stats;
  }
  Result.AnalysisSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();

  // Phase 3+4: execution with the runtime optimizer and detector.  The
  // detection runtime is either the serial RaceRuntime or, with
  // Config.Shards >= 1, the sharded batched runtime (docs/SHARDING.md) —
  // both produce the identical race-report set for the same schedule.
  TraceWriter Writer;
  if (!Config.RecordTracePath.empty()) {
    Result.Trace = Writer.open(Config.RecordTracePath);
    if (!Result.Trace.Ok) {
      Result.Run.Error = "cannot record trace: " + Result.Trace.Error;
      return Result;
    }
  }
  // The interpreter gets whichever sinks this configuration wants: the
  // race detector (only when the program is instrumented), the deadlock
  // detector, and the trace recorder.
  DetectionAssembly Detection(Config, Plan, Config.Instrument,
                              Writer.isOpen() ? &Writer : nullptr);

  InterpOptions IOpts;
  IOpts.Seed = Config.Seed;
  IOpts.MaxQuantum = Config.MaxQuantum;
  IOpts.MaxInstructions = Config.MaxInstructions;
  IOpts.Profiler = Config.Profiler;
  IOpts.Fused = Shadow.get();
  Detection.setDirectSink(IOpts);
  Interpreter Interp(P, Detection.hooks(), IOpts);

  Clock::time_point T1 = Clock::now();
  {
    Span ExecSpan(Metrics, "execute");
    Result.Run = Interp.run();
  }
  Result.ExecSeconds =
      std::chrono::duration<double>(Clock::now() - T1).count();

  {
    Span DrainSpan(Metrics, "detect-drain");
    Detection.harvest(Result);
  }
  Detection.finish(P, &Interp.heap(), Input, Result);
  if (Metrics) {
    Metrics->counter("run.instructions").add(Result.Run.InstructionsExecuted);
    Metrics->counter("run.access_events").add(Result.Run.AccessEvents);
    Metrics->counter("run.context_switches").add(Result.Run.ContextSwitches);
    Metrics->counter("run.races").add(Result.FormattedRaces.size());
  }

  if (Writer.isOpen()) {
    TraceResult Closed = Writer.close();
    if (Result.Trace.Ok && !Closed.Ok)
      Result.Trace = Closed;
    Result.TraceRecords = Writer.recordsWritten();
    Result.TraceBytes = Writer.bytesWritten();
  }
  return Result;
}

PipelineResult herd::replayTracePipeline(const Program &Input,
                                         const ToolConfig &Config,
                                         const std::string &TracePath) {
  using Clock = std::chrono::steady_clock;
  PipelineResult Result;

  // Build the same detection assembly a live run with this Config would
  // use; the trace replaces the interpreter as the event source, so the
  // compile-time phases are skipped entirely.  Planning needs the static
  // race set those phases compute, so replay runs unplanned.  v1 traces
  // carry sites on monitor-enter / thread-create records, so replayed
  // runs can capture the same provenance a live run would.
  DetectionAssembly Detection(Config, DetectorPlan(),
                              /*Observed=*/true, /*Recorder=*/nullptr);
  RuntimeHooks *Sink = Detection.hooks();

  MetricsRegistry *Metrics = Config.Metrics;
  TraceReader Reader;
  Result.Trace = Reader.open(TracePath);
  if (Result.Trace.Ok) {
    Clock::time_point T0 = Clock::now();
    {
      Span ReplaySpan(Metrics, "replay");
      Result.Trace = Reader.replayInto(*Sink);
    }
    // Always close out the detectors — a sharded runtime must drain and
    // join its workers even when the trace turned out to be malformed.
    {
      Span DrainSpan(Metrics, "detect-drain");
      Sink->onRunEnd();
    }
    Result.ExecSeconds =
        std::chrono::duration<double>(Clock::now() - T0).count();
    Result.TraceRecords = Reader.recordsRead();
    Result.TraceBytes =
        tracefmt::HeaderBytes + Result.TraceRecords * tracefmt::RecordBytes;
  }
  Result.Run.Ok = Result.Trace.Ok;
  if (!Result.Trace.Ok) {
    Result.Run.Error = "trace replay failed: " + Result.Trace.Error;
    return Result;
  }
  Result.Run.AccessEvents = Result.TraceRecords;

  Detection.harvest(Result);
  // No heap exists in a replay run; formatRace degrades to object indices.
  Detection.finish(Input, nullptr, Input, Result);
  return Result;
}
