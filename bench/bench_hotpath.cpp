//===- bench/bench_hotpath.cpp - Detector hot-path regression harness -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation/throughput regression harness for the detector hot path
/// (docs/PERFORMANCE.md).  Records a set of traces once — a synthetic
/// detector-bound "refhot" stream plus the five benchmark replicas — then
/// replays each through the serial RaceRuntime and the ShardedRuntime,
/// measuring events/sec, bytes/event on disk, and allocations/event via a
/// counting global allocator.  Every trace is replayed three times per
/// runtime: the cold pass builds the access structures, the warm pass
/// flushes the ownership filter's first-touch shadow (accesses it absorbed
/// before their locations went shared), and the steady pass measures the
/// converged steady state — which the interned/arena'd hot path keeps
/// allocation-free.  The whole three-pass sequence is repeated --reps
/// times on a fresh runtime each and the best throughput per pass is
/// reported: on a shared/1-core box, run-to-run scheduler noise easily
/// reaches 2x, and best-of-N is the standard way to recover the machine's
/// actual capability from under it.
///
/// The refhot stream is crafted to defeat the per-thread access caches
/// (every access happens under a lock whose release evicts it) so nearly
/// every event reaches the trie detector — the paper's dominant cost and
/// the path this harness guards.
///
/// Two sections beyond the plain pass grid:
///
///  * A cold-pass A/B — each trace is additionally replayed through a
///    serial runtime pre-sized by a DetectorPlan ("serial+plan"): the
///    replicas use the analysis-driven planner (exactly what a live
///    pipeline run computes), refhot synthesizes its plan from the stream
///    parameters (there is no program to analyze).  The cold rows of the
///    two serial runtimes are the before/after of analysis-driven
///    pre-sizing; the JSON carries them as `cold_ab`.
///
///  * A live-vs-replay comparison — each replica also runs live
///    (interpreter driving the serial runtime directly) and the best live
///    throughput is reported against the replay cold pass.  Replay strips
///    the interpretation cost, so the ratio bounds how much of a live run
///    the detector itself accounts for.  The live run happens twice
///    (docs/INTERPRETER.md): `unfused` runs the interpreter over the
///    original blocks (the reference), `threaded` over the
///    superinstruction shadow code.  The JSON keys the per-lane results
///    as `live_by_dispatch` and keeps `live` as the threaded entry;
///    scripts/check_bench_gates.py gates the smoke run against the
///    checked-in baseline.
///
///  * A hook-path A/B (docs/HOOKPATH.md) — the threaded live run repeats
///    with the hook fast path engaged: the interpreter probes the running
///    thread's access cache inline and delivers misses through the
///    devirtualized sink, exactly what a default `herd` invocation does.
///    The JSON's per-trace `hook_path` section carries the unfiltered and
///    filtered live throughputs, the inline hit rate, and the
///    counter-reconciliation
///    identity (access_events == filter_hits + events_delivered);
///    scripts/check_bench_gates.py gates both.
///
///  * A provenance A/B (docs/REPORTS.md) — each replica's default live
///    configuration (devirtualized sink, inline cache probe) repeats with
///    `--provenance=on`: a ProvenanceStore fanned out next to the
///    detector, which disables the single-sink devirtualized lane.  The
///    JSON's per-trace `provenance_ab` section carries both throughputs
///    and the overhead ratio — the honest cost (capture + lost devirt
///    lane) the docs quote; the race sets must agree.
///
///  * An epoch-vs-vector-clock A/B (docs/DETECTORS.md) — each trace also
///    replays through the epoch happens-before backend (`--detector=epoch`)
///    and the vector-clock baseline it optimizes: one timed cold replay
///    per detector, plus a second replay into the same epoch instance for
///    the converged steady state (where every structure exists and the
///    pooled ClockStore recycles rows, so allocs/event is ~0).  The two
///    must report identical racy-location sets — that feeds the trace's
///    `agreement` flag — and the JSON's per-trace `epoch_ab` section
///    carries both throughputs, the cold speedup, and the steady
///    allocation rate; scripts/check_bench_gates.py gates all of it.
///
/// `--smoke` shrinks every trace for CI; `--reps=N` sets the repetition
/// count (default 3, 1 under --smoke); `--out=PATH` writes the JSON report
/// (the checked-in BENCH_hotpath.json is a full run).
///
//===----------------------------------------------------------------------===//

#include "analysis/DetectorPlanner.h"
#include "analysis/StaticRace.h"
#include "baselines/EpochDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/Provenance.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "runtime/Interpreter.h"
#include "support/Metrics.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

using namespace herd;

//===----------------------------------------------------------------------===
// Counting allocator: every global new/delete in the process, including the
// shard worker threads, lands here.  Counters are relaxed atomics; the
// measurement windows are bracketed by joins/drains, so totals are exact.
//===----------------------------------------------------------------------===

namespace {
std::atomic<uint64_t> GAllocCalls{0};
std::atomic<uint64_t> GAllocBytes{0};

void *countedAlloc(std::size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    std::abort();
  GAllocCalls.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  return P;
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

void *operator new(std::size_t Size, std::align_val_t Align) {
  std::size_t A = std::size_t(Align);
  void *P = std::aligned_alloc(A, (Size + A - 1) / A * A);
  if (!P)
    std::abort();
  GAllocCalls.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  return P;
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return operator new(Size, Align);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

//===----------------------------------------------------------------------===
// The synthetic reference stream
//===----------------------------------------------------------------------===

/// Shape of the detector-bound reference stream.  Every access happens
/// under at least one real lock, so the per-lock cache eviction at the
/// matching monitorexit guarantees the next round misses the cache; the
/// location window strides through a footprint far larger than the cache,
/// and threads overlap on the same objects under differing locksets, so
/// the tries see growth, weaker-than filtering, and genuine races.
struct RefParams {
  uint32_t Threads = 8;  ///< worker threads (ids 1..Threads; 0 is main)
  uint32_t Locks = 16;   ///< real lock universe
  uint32_t Objects = 4096;
  uint32_t Fields = 4;
  uint32_t Window = 64;  ///< accesses per locked region
  uint32_t Rounds = 3600;
};

/// Emits the reference stream into \p Sink (a TraceWriter when recording).
/// Fully deterministic arithmetic — no RNG — so old and new builds replay
/// the byte-identical trace.
void emitReferenceStream(RuntimeHooks &Sink, const RefParams &P) {
  for (uint32_t T = 1; T <= P.Threads; ++T)
    Sink.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));

  for (uint32_t Round = 0; Round != P.Rounds; ++Round) {
    for (uint32_t T = 1; T <= P.Threads; ++T) {
      LockId Outer = LockId((Round + T) % P.Locks);
      LockId Inner = LockId((Round * 5 + T * 7 + 1) % P.Locks);
      bool Nest = ((Round + T) % 3 == 0) && Inner != Outer;

      Sink.onMonitorEnter(ThreadId(T), Outer, /*Recursive=*/false);
      if (Nest)
        Sink.onMonitorEnter(ThreadId(T), Inner, /*Recursive=*/false);

      for (uint32_t I = 0; I != P.Window; ++I) {
        uint32_t Obj = (Round * 97 + T * 31 + I * 13) % P.Objects;
        uint32_t Field = I % P.Fields;
        AccessKind Kind =
            (I + T) % 3 == 0 ? AccessKind::Write : AccessKind::Read;
        Sink.onAccess(ThreadId(T), LocationKey::forField(ObjectId(Obj),
                                                         FieldId(Field)),
                      Kind, SiteId(I % 32));
      }

      if (Nest)
        Sink.onMonitorExit(ThreadId(T), Inner, /*StillHeld=*/false);
      Sink.onMonitorExit(ThreadId(T), Outer, /*StillHeld=*/false);
    }
  }
}

/// Synthesizes the capacity plan for the reference stream from its own
/// parameters — the stand-in for planDetector on a trace that has no
/// program behind it.  The location count is exact (every (object, field)
/// pair is touched); the trie sizing uses the measured full-run density of
/// ~54 nodes per location, rounded up to 64.
DetectorPlan refhotPlan(const RefParams &P) {
  DetectorPlan Plan;
  Plan.ExpectedLocations = uint64_t(P.Objects) * P.Fields;
  Plan.ExpectedSharedLocations = Plan.ExpectedLocations;
  Plan.ExpectedTrieNodes = Plan.ExpectedLocations * 64;
  Plan.ExpectedTrieEdges = Plan.ExpectedTrieNodes;
  Plan.ExpectedThreads = P.Threads;
  // Locksets: {S_t, outer} and {S_t, outer, inner} per (thread, lock)
  // combination, plus transients — 8*16 + 8*16*16 ≈ 2.2k for the default
  // shape; the next power of two covers it.
  Plan.ExpectedLocksets = 4096;
  for (uint32_t T = 1; T <= P.Threads; ++T) {
    SortedIdSet<LockId> Dummy;
    Dummy.insert(RaceRuntime::dummyLockOf(ThreadId(T)));
    Plan.PreinternLocksets.push_back(std::move(Dummy));
  }
  return Plan;
}

//===----------------------------------------------------------------------===
// The hook-bound synthetic workload (docs/HOOKPATH.md)
//===----------------------------------------------------------------------===

/// `hotfield` — a tight single-threaded loop whose body is sixteen accesses
/// to the same field.  After the first iteration every access is a
/// detector-side cache hit, so under the fused threaded dispatch the
/// per-event interpretation cost is a few nanoseconds and the hook path is
/// what dominates a live run.  That makes this the trace where the
/// inline probe's benefit is directly visible: the five replicas are
/// interpretation-bound (live-vs-replay ratios well below 1), so their
/// filtered/unfiltered live A/B hovers near 1.0x no matter how cheap the
/// probe is; hotfield isolates the hook path.
Workload buildHotField(uint32_t Scale) {
  Workload W;
  W.Name = "hotfield";
  W.Description = "hook-bound synthetic: tight redundant same-field loop";
  W.DynamicThreads = 1;
  W.ExpectedRacyObjectsFull = 0;
  IRBuilder B(W.P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  B.emitPutField(Obj, F, B.emitConst(1));
  RegId N = B.emitConst(int64_t(20000) * Scale);
  B.forLoop(0, N, 1, [&](RegId) {
    // Eight read/write pairs: enough straight-line accesses that the loop
    // bookkeeping amortizes away and the stream is ~100% inline hits.
    for (int K = 0; K != 8; ++K)
      B.emitPutField(Obj, F, B.emitGetField(Obj, F));
  });
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();
  return W;
}

//===----------------------------------------------------------------------===
// Measurement plumbing
//===----------------------------------------------------------------------===

struct PassResult {
  std::string Runtime; ///< "serial" or "sharded<N>"
  std::string Pass;    ///< "cold", "warm" or "steady"
  double Seconds = 0;
  double EventsPerSec = 0;
  uint64_t Allocs = 0;
  uint64_t AllocBytes = 0;
  double AllocsPerEvent = 0;
  double AllocBytesPerEvent = 0;
};

/// The live-execution counterpart of one replica trace: the interpreter
/// driving the serial runtime directly, no trace file in between.
struct LiveResult {
  bool Present = false;
  double Seconds = 0;
  double EventsPerSec = 0;
  uint64_t Allocs = 0;
  double AllocsPerEvent = 0;
  double RatioVsReplayCold = 0; ///< live events/s ÷ replay cold events/s
  /// Dispatch-mechanics counters from the run (InterpResult): how many
  /// superinstructions ran their full sequence and how the batched
  /// quantum retirement behaved.  Deterministic per (program, lane) —
  /// identical across reps — and zero without shadow code.
  uint64_t FusedExecs = 0;
  uint64_t BlockRetireHits = 0;
  uint64_t BlockRetiredSteps = 0;
};

/// The hook-path A/B for one replica: the threaded live run with the
/// virtual hook path ("unfiltered") against the devirtualized fast path
/// with the inline cache probe ("filtered"), plus the probe's counters.
struct HookPathResult {
  bool Present = false;
  double UnfilteredEventsPerSec = 0; ///< virtual dispatch, no inline probe
  double FilteredEventsPerSec = 0;   ///< devirtualized sink + inline probe
  double Speedup = 0;                ///< filtered ÷ unfiltered
  uint64_t AccessEvents = 0;         ///< interpreter-side emit count
  uint64_t FilterHits = 0;
  uint64_t FilterMisses = 0;
  double FilterHitRate = 0;          ///< hits ÷ (hits + misses)
  uint64_t EventsDelivered = 0;      ///< runtime-side events_seen
  /// access_events == filter_hits + events_delivered, exactly.
  bool CountersReconcile = false;
};

/// The provenance on/off live A/B for one replica (docs/REPORTS.md): the
/// default filtered live path against the same run with a ProvenanceStore
/// fanned out next to the detector (which forfeits the devirtualized
/// single-sink lane — the cost reported here is the honest total).
struct ProvenanceAbResult {
  bool Present = false;
  double OffEventsPerSec = 0; ///< default path (devirt sink + inline probe)
  double OnEventsPerSec = 0;  ///< fanout of detector + ProvenanceStore
  double OverheadRatio = 0;   ///< off ÷ on (>= 1.0 means on is slower)
  uint64_t AccessesObserved = 0;
  bool Agreement = false; ///< identical racy-location sets
};

/// The epoch-vs-vector-clock A/B for one trace (docs/DETECTORS.md): both
/// happens-before detectors replay the same stream; the epoch backend's
/// O(1) common-case checks are the quantity under test.
struct EpochAbResult {
  bool Present = false;
  double VcEventsPerSec = 0;       ///< vector-clock baseline, cold replay
  double EpochColdEventsPerSec = 0;
  double EpochSteadyEventsPerSec = 0;
  double Speedup = 0;              ///< epoch cold ÷ vector-clock cold
  double SteadyAllocsPerEvent = 0; ///< second replay, same instance
  uint64_t RacyLocations = 0;
  bool Agreement = false; ///< identical racy-location sets
};

struct TraceReport {
  std::string Name;
  uint64_t Events = 0;
  uint64_t FileBytes = 0;
  double BytesPerEvent = 0;
  std::vector<PassResult> Passes;
  bool Agreement = true; ///< all runtimes report the same racy locations
  /// Cold-pass A/B: allocations per event on the first (structure-building)
  /// pass, unplanned serial vs plan-pre-sized serial.
  double ColdAllocsPerEvent = 0;
  double ColdAllocsPerEventPlanned = 0;
  /// The threaded-dispatch live run — the default `herd` hot path.
  LiveResult Live;
  /// Live runs keyed by lane ("unfused", "threaded"); Live above
  /// duplicates the threaded entry so older consumers keep working.
  std::vector<std::pair<std::string, LiveResult>> LiveModes;
  /// The hook-path filtered-vs-unfiltered live A/B (docs/HOOKPATH.md).
  HookPathResult HookPath;
  /// The provenance-capture on/off live A/B (docs/REPORTS.md).
  ProvenanceAbResult ProvenanceAb;
  /// The epoch-vs-vector-clock happens-before A/B (docs/DETECTORS.md).
  EpochAbResult EpochAb;
};

/// Replays \p Path once into \p Sink, timing and alloc-counting the pass.
/// \p Barrier runs inside the measured window (the sharded drain).
template <typename Barrier>
bool measuredReplay(const std::string &Path, RuntimeHooks &Sink,
                    uint64_t Events, const char *RuntimeName,
                    const char *PassName, Barrier RunBarrier,
                    std::vector<PassResult> &Out) {
  TraceReader Reader;
  if (TraceResult TR = Reader.open(Path); !TR.Ok) {
    std::fprintf(stderr, "open %s: %s\n", Path.c_str(), TR.Error.c_str());
    return false;
  }
  uint64_t Allocs0 = GAllocCalls.load(std::memory_order_relaxed);
  uint64_t Bytes0 = GAllocBytes.load(std::memory_order_relaxed);
  auto T0 = std::chrono::steady_clock::now();
  if (TraceResult TR = Reader.replayInto(Sink); !TR.Ok) {
    std::fprintf(stderr, "replay %s: %s\n", Path.c_str(), TR.Error.c_str());
    return false;
  }
  RunBarrier();
  double Seconds = secondsSince(T0);
  uint64_t Allocs = GAllocCalls.load(std::memory_order_relaxed) - Allocs0;
  uint64_t Bytes = GAllocBytes.load(std::memory_order_relaxed) - Bytes0;

  PassResult R;
  R.Runtime = RuntimeName;
  R.Pass = PassName;
  R.Seconds = Seconds;
  R.EventsPerSec = Seconds > 0 ? double(Events) / Seconds : 0.0;
  R.Allocs = Allocs;
  R.AllocBytes = Bytes;
  R.AllocsPerEvent = Events ? double(Allocs) / double(Events) : 0.0;
  R.AllocBytesPerEvent = Events ? double(Bytes) / double(Events) : 0.0;
  Out.push_back(R);
  return true;
}

/// Merges one repetition's passes into the running best-of-N: per pass,
/// keep the rep with the higher throughput (and its alloc counters — the
/// structure-building work is identical across reps, so the counters of
/// the fastest rep are as representative as any).
void keepBest(std::vector<PassResult> &Best, std::vector<PassResult> &Rep) {
  if (Best.empty()) {
    Best = std::move(Rep);
    return;
  }
  for (size_t I = 0; I != Best.size() && I != Rep.size(); ++I)
    if (Rep[I].EventsPerSec > Best[I].EventsPerSec)
      Best[I] = Rep[I];
}

void printPass(const std::string &Trace, const PassResult &R) {
  std::printf("%-8s %-9s %-5s %12.0f %10.4f %12llu %10.3f %10.1f\n",
              Trace.c_str(), R.Runtime.c_str(), R.Pass.c_str(),
              R.EventsPerSec, R.Seconds, (unsigned long long)R.Allocs,
              R.AllocsPerEvent, R.AllocBytesPerEvent);
}

void writeJson(std::FILE *F, const std::vector<TraceReport> &Reports,
               const MetricsRegistry &Metrics, bool Smoke, uint32_t Reps) {
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"schema\": \"herd-bench-hotpath-v7\",\n");
  std::fprintf(F, "  \"smoke\": %s,\n", Smoke ? "true" : "false");
  std::fprintf(F, "  \"reps\": %u,\n", Reps);
  // The run's metrics-registry counters (support/Metrics.h), name-sorted:
  // one `live.<trace>.<lane>.*` triple per live run, describing how the
  // work was dispatched (fused executions, batched quantum retirement).
  {
    auto Counters = Metrics.counterValues();
    std::fprintf(F, "  \"metrics\": {\n");
    for (size_t I = 0; I != Counters.size(); ++I)
      std::fprintf(F, "    \"%s\": %llu%s\n", Counters[I].first.c_str(),
                   (unsigned long long)Counters[I].second,
                   I + 1 != Counters.size() ? "," : "");
    std::fprintf(F, "  },\n");
  }
  std::fprintf(F, "  \"traces\": [\n");
  for (size_t I = 0; I != Reports.size(); ++I) {
    const TraceReport &T = Reports[I];
    std::fprintf(F, "    {\n");
    std::fprintf(F, "      \"name\": \"%s\",\n", T.Name.c_str());
    std::fprintf(F, "      \"events\": %llu,\n",
                 (unsigned long long)T.Events);
    std::fprintf(F, "      \"file_bytes\": %llu,\n",
                 (unsigned long long)T.FileBytes);
    std::fprintf(F, "      \"bytes_per_event\": %.2f,\n", T.BytesPerEvent);
    std::fprintf(F, "      \"agreement\": %s,\n",
                 T.Agreement ? "true" : "false");
    std::fprintf(F,
                 "      \"cold_ab\": {\"allocs_per_event\": %.4f, "
                 "\"allocs_per_event_planned\": %.4f},\n",
                 T.ColdAllocsPerEvent, T.ColdAllocsPerEventPlanned);
    if (T.Live.Present)
      std::fprintf(F,
                   "      \"live\": {\"seconds\": %.6f, "
                   "\"events_per_sec\": %.0f, \"allocs_per_event\": %.4f, "
                   "\"ratio_vs_replay_cold\": %.3f, "
                   "\"fused_execs\": %llu, \"block_retire_hits\": %llu, "
                   "\"block_retired_steps\": %llu},\n",
                   T.Live.Seconds, T.Live.EventsPerSec,
                   T.Live.AllocsPerEvent, T.Live.RatioVsReplayCold,
                   (unsigned long long)T.Live.FusedExecs,
                   (unsigned long long)T.Live.BlockRetireHits,
                   (unsigned long long)T.Live.BlockRetiredSteps);
    if (!T.LiveModes.empty()) {
      std::fprintf(F, "      \"live_by_dispatch\": {\n");
      for (size_t J = 0; J != T.LiveModes.size(); ++J) {
        const LiveResult &L = T.LiveModes[J].second;
        std::fprintf(F,
                     "        \"%s\": {\"seconds\": %.6f, "
                     "\"events_per_sec\": %.0f, \"allocs_per_event\": %.4f, "
                     "\"ratio_vs_replay_cold\": %.3f, "
                     "\"fused_execs\": %llu, \"block_retire_hits\": %llu, "
                     "\"block_retired_steps\": %llu}%s\n",
                     T.LiveModes[J].first.c_str(), L.Seconds, L.EventsPerSec,
                     L.AllocsPerEvent, L.RatioVsReplayCold,
                     (unsigned long long)L.FusedExecs,
                     (unsigned long long)L.BlockRetireHits,
                     (unsigned long long)L.BlockRetiredSteps,
                     J + 1 != T.LiveModes.size() ? "," : "");
      }
      std::fprintf(F, "      },\n");
    }
    if (T.HookPath.Present)
      std::fprintf(F,
                   "      \"hook_path\": {\"live_unfiltered_events_per_sec\":"
                   " %.0f, \"live_filtered_events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"access_events\": %llu, "
                   "\"filter_hits\": %llu, \"filter_misses\": %llu, "
                   "\"filter_hit_rate\": %.4f, \"events_delivered\": %llu, "
                   "\"counters_reconcile\": %s},\n",
                   T.HookPath.UnfilteredEventsPerSec,
                   T.HookPath.FilteredEventsPerSec, T.HookPath.Speedup,
                   (unsigned long long)T.HookPath.AccessEvents,
                   (unsigned long long)T.HookPath.FilterHits,
                   (unsigned long long)T.HookPath.FilterMisses,
                   T.HookPath.FilterHitRate,
                   (unsigned long long)T.HookPath.EventsDelivered,
                   T.HookPath.CountersReconcile ? "true" : "false");
    if (T.ProvenanceAb.Present)
      std::fprintf(F,
                   "      \"provenance_ab\": {\"off_events_per_sec\": %.0f, "
                   "\"on_events_per_sec\": %.0f, \"overhead_ratio\": %.3f, "
                   "\"accesses_observed\": %llu, \"agreement\": %s},\n",
                   T.ProvenanceAb.OffEventsPerSec,
                   T.ProvenanceAb.OnEventsPerSec,
                   T.ProvenanceAb.OverheadRatio,
                   (unsigned long long)T.ProvenanceAb.AccessesObserved,
                   T.ProvenanceAb.Agreement ? "true" : "false");
    if (T.EpochAb.Present)
      std::fprintf(F,
                   "      \"epoch_ab\": {\"vc_events_per_sec\": %.0f, "
                   "\"epoch_cold_events_per_sec\": %.0f, "
                   "\"epoch_steady_events_per_sec\": %.0f, "
                   "\"speedup\": %.3f, \"steady_allocs_per_event\": %.4f, "
                   "\"racy_locations\": %llu, \"agreement\": %s},\n",
                   T.EpochAb.VcEventsPerSec, T.EpochAb.EpochColdEventsPerSec,
                   T.EpochAb.EpochSteadyEventsPerSec, T.EpochAb.Speedup,
                   T.EpochAb.SteadyAllocsPerEvent,
                   (unsigned long long)T.EpochAb.RacyLocations,
                   T.EpochAb.Agreement ? "true" : "false");
    std::fprintf(F, "      \"passes\": [\n");
    for (size_t J = 0; J != T.Passes.size(); ++J) {
      const PassResult &P = T.Passes[J];
      std::fprintf(F,
                   "        {\"runtime\": \"%s\", \"pass\": \"%s\", "
                   "\"seconds\": %.6f, \"events_per_sec\": %.0f, "
                   "\"allocs\": %llu, \"allocs_per_event\": %.4f, "
                   "\"alloc_bytes_per_event\": %.2f}%s\n",
                   P.Runtime.c_str(), P.Pass.c_str(), P.Seconds,
                   P.EventsPerSec, (unsigned long long)P.Allocs,
                   P.AllocsPerEvent, P.AllocBytesPerEvent,
                   J + 1 != T.Passes.size() ? "," : "");
    }
    std::fprintf(F, "      ]\n");
    std::fprintf(F, "    }%s\n", I + 1 != Reports.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n");
  std::fprintf(F, "}\n");
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  uint32_t Reps = 0; // 0 = default (3, or 1 under --smoke)
  std::string OutPath;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else if (std::strncmp(argv[I], "--reps=", 7) == 0) {
      long N = std::atol(argv[I] + 7);
      if (N < 1 || N > 100) {
        std::fprintf(stderr, "--reps must be in [1, 100]\n");
        return 2;
      }
      Reps = uint32_t(N);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--reps=N] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (Reps == 0)
    Reps = Smoke ? 1 : 3;

  struct Recorded {
    std::string Name;
    std::string Path;
    uint64_t Events = 0;
    uint64_t Bytes = 0;
    DetectorPlan Plan;             ///< pre-sizing for the "serial+plan" A/B
    const Program *Prog = nullptr; ///< non-null for replicas: live re-run
  };
  std::vector<Recorded> Traces;

  // Record the synthetic detector-bound reference stream.
  {
    RefParams P;
    if (Smoke)
      P.Rounds = 150;
    // The pid keeps concurrent runs from writing one file.
    std::string Path =
        "/tmp/herd_hotpath_refhot." + std::to_string(getpid()) + ".trace";
    TraceWriter Writer;
    if (TraceResult TR = Writer.open(Path); !TR.Ok) {
      std::fprintf(stderr, "refhot: %s\n", TR.Error.c_str());
      return 1;
    }
    emitReferenceStream(Writer, P);
    if (TraceResult TR = Writer.close(); !TR.Ok) {
      std::fprintf(stderr, "refhot: %s\n", TR.Error.c_str());
      return 1;
    }
    Recorded R;
    R.Name = "refhot";
    R.Path = Path;
    R.Events = Writer.recordsWritten();
    R.Bytes = Writer.bytesWritten();
    R.Plan = refhotPlan(P);
    Traces.push_back(std::move(R));
  }

  // Record the five benchmark replicas through the interpreter.  The
  // workloads vector outlives the measurement loop so the live section can
  // re-run each program.
  std::vector<Workload> Workloads = buildAllWorkloads(Smoke ? 1 : 4);
  // Plus the hook-bound synthetic (docs/HOOKPATH.md): the trace whose live
  // run is dominated by hook cost rather than interpretation, where the
  // inline probe's speedup is actually measurable.
  Workloads.push_back(buildHotField(Smoke ? 1 : 4));
  for (Workload &W : Workloads) {
    std::string Path = "/tmp/herd_hotpath_" + W.Name + "." +
                       std::to_string(getpid()) + ".trace";
    TraceWriter Writer;
    if (TraceResult TR = Writer.open(Path); !TR.Ok) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), TR.Error.c_str());
      return 1;
    }
    InterpOptions Opts;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(W.P, &Writer, Opts);
    InterpResult R = Interp.run();
    if (TraceResult TR = Writer.close(); !R.Ok || !TR.Ok) {
      std::fprintf(stderr, "%s failed: %s%s\n", W.Name.c_str(),
                   R.Error.c_str(), TR.Error.c_str());
      return 1;
    }
    Recorded Rec;
    Rec.Name = W.Name;
    Rec.Path = Path;
    Rec.Events = Writer.recordsWritten();
    Rec.Bytes = Writer.bytesWritten();
    // The analysis-driven plan — the same computation a live run makes
    // inside the pipeline's analysis phase.
    StaticRaceAnalysis Races(W.P);
    Races.run();
    Rec.Plan = planDetector(W.P, Races);
    Rec.Prog = &W.P;
    Traces.push_back(std::move(Rec));
  }

  const uint32_t FullShardCounts[] = {2, 4};
  const uint32_t SmokeShardCounts[] = {2};
  const uint32_t *ShardCounts = Smoke ? SmokeShardCounts : FullShardCounts;
  size_t NumShardCounts = Smoke ? 1 : 2;

  std::printf("Detector hot-path regression harness "
              "(docs/PERFORMANCE.md)%s\n\n",
              Smoke ? " [smoke]" : "");
  std::printf("%-8s %-9s %-5s %12s %10s %12s %10s %10s\n", "trace",
              "runtime", "pass", "events/s", "seconds", "allocs",
              "allocs/ev", "bytes/ev");

  std::vector<TraceReport> Reports;
  MetricsRegistry Metrics;
  bool AllAgree = true;

  for (const Recorded &T : Traces) {
    TraceReport Report;
    Report.Name = T.Name;
    Report.Events = T.Events;
    Report.FileBytes = T.Bytes;
    Report.BytesPerEvent =
        T.Events ? double(T.Bytes) / double(T.Events) : 0.0;

    // Serial: the cold pass builds the structures; the warm pass still
    // discovers the accesses the ownership filter absorbed before their
    // locations went shared; by the steady pass every event is cache-hit
    // or weaker-than-filtered — the allocation-free steady state.  Each
    // rep replays the whole sequence on a fresh runtime; the last rep's
    // runtime survives for the agreement check below.
    auto NoBarrier = [] {};
    std::unique_ptr<RaceRuntime> Serial;
    {
      std::vector<PassResult> Best;
      for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
        Serial = std::make_unique<RaceRuntime>();
        std::vector<PassResult> One;
        if (!measuredReplay(T.Path, *Serial, T.Events, "serial", "cold",
                            NoBarrier, One) ||
            !measuredReplay(T.Path, *Serial, T.Events, "serial", "warm",
                            NoBarrier, One) ||
            !measuredReplay(T.Path, *Serial, T.Events, "serial", "steady",
                            NoBarrier, One))
          return 1;
        Serial->onRunEnd();
        keepBest(Best, One);
      }
      for (PassResult &P : Best) {
        if (P.Pass == "cold")
          Report.ColdAllocsPerEvent = P.AllocsPerEvent;
        printPass(Report.Name, P);
        Report.Passes.push_back(std::move(P));
      }
    }

    // Serial pre-sized by the DetectorPlan: the cold-pass A/B against the
    // unplanned serial rows above.  The last rep's runtime joins the
    // agreement check — plans must never change what is reported.
    {
      std::vector<PassResult> Best;
      std::unique_ptr<RaceRuntime> Planned;
      for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
        RaceRuntimeOptions POpts;
        POpts.Plan = T.Plan;
        Planned = std::make_unique<RaceRuntime>(POpts);
        std::vector<PassResult> One;
        if (!measuredReplay(T.Path, *Planned, T.Events, "serial+plan",
                            "cold", NoBarrier, One) ||
            !measuredReplay(T.Path, *Planned, T.Events, "serial+plan",
                            "warm", NoBarrier, One) ||
            !measuredReplay(T.Path, *Planned, T.Events, "serial+plan",
                            "steady", NoBarrier, One))
          return 1;
        Planned->onRunEnd();
        keepBest(Best, One);
      }
      bool Agree = Planned->reporter().reportedLocations() ==
                   Serial->reporter().reportedLocations();
      Report.Agreement = Report.Agreement && Agree;
      for (PassResult &P : Best) {
        if (P.Pass == "cold")
          Report.ColdAllocsPerEventPlanned = P.AllocsPerEvent;
        printPass(Report.Name, P);
        Report.Passes.push_back(std::move(P));
      }
    }

    for (size_t SI = 0; SI != NumShardCounts; ++SI) {
      uint32_t Shards = ShardCounts[SI];
      ShardedRuntimeOptions SOpts;
      SOpts.NumShards = Shards;
      std::string Name = "sharded" + std::to_string(Shards);
      std::vector<PassResult> Best;
      for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
        ShardedRuntime Sharded(SOpts);
        // stats() is the public drain barrier: the measured window covers
        // every event being fully processed, not just enqueued.
        auto Drain = [&Sharded] { (void)Sharded.stats(); };
        std::vector<PassResult> One;
        if (!measuredReplay(T.Path, Sharded, T.Events, Name.c_str(), "cold",
                            Drain, One) ||
            !measuredReplay(T.Path, Sharded, T.Events, Name.c_str(), "warm",
                            Drain, One) ||
            !measuredReplay(T.Path, Sharded, T.Events, Name.c_str(),
                            "steady", Drain, One))
          return 1;
        bool Agree = Sharded.reporter().reportedLocations() ==
                     Serial->reporter().reportedLocations();
        Report.Agreement = Report.Agreement && Agree;
        Sharded.onRunEnd();
        keepBest(Best, One);
      }
      for (PassResult &P : Best) {
        printPass(Report.Name, P);
        Report.Passes.push_back(std::move(P));
      }
    }

    // Epoch-vs-vector-clock A/B (docs/DETECTORS.md): the same trace
    // through both happens-before backends.  The vector-clock baseline
    // gets one timed cold replay per rep on a fresh detector; the epoch
    // backend gets a timed cold replay on a fresh plan-pre-sized detector
    // plus a second timed replay into the SAME instance — the converged
    // steady state, where the same-epoch fast paths dominate and the
    // pooled ClockStore hands back recycled rows, so the allocation rate
    // must sit at ~0.  The two detectors implement the same
    // happens-before relation and must report identical racy-location
    // sets (their race notion differs from the lockset runtimes above,
    // so they are compared against each other, not against Serial).
    {
      std::unique_ptr<VectorClockDetector> VC;
      std::vector<PassResult> BestVc;
      for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
        VC = std::make_unique<VectorClockDetector>();
        std::vector<PassResult> One;
        if (!measuredReplay(T.Path, *VC, T.Events, "vclock", "cold",
                            NoBarrier, One))
          return 1;
        keepBest(BestVc, One);
      }

      std::unique_ptr<EpochDetector> Epoch;
      std::vector<PassResult> BestEpoch;
      for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
        Epoch = std::make_unique<EpochDetector>(T.Plan);
        std::vector<PassResult> One;
        if (!measuredReplay(T.Path, *Epoch, T.Events, "epoch", "cold",
                            NoBarrier, One) ||
            !measuredReplay(T.Path, *Epoch, T.Events, "epoch", "steady",
                            NoBarrier, One))
          return 1;
        keepBest(BestEpoch, One);
      }

      EpochAbResult AB;
      AB.Present = true;
      AB.Agreement = Epoch->reportedLocations() == VC->reportedLocations();
      AB.VcEventsPerSec = BestVc[0].EventsPerSec;
      AB.EpochColdEventsPerSec = BestEpoch[0].EventsPerSec;
      AB.EpochSteadyEventsPerSec = BestEpoch[1].EventsPerSec;
      AB.SteadyAllocsPerEvent = BestEpoch[1].AllocsPerEvent;
      AB.Speedup = AB.VcEventsPerSec > 0
                       ? AB.EpochColdEventsPerSec / AB.VcEventsPerSec
                       : 0.0;
      AB.RacyLocations = Epoch->reportedLocations().size();
      Report.Agreement = Report.Agreement && AB.Agreement;
      Report.EpochAb = AB;
      for (PassResult &P : BestVc) {
        printPass(Report.Name, P);
        Report.Passes.push_back(std::move(P));
      }
      for (PassResult &P : BestEpoch) {
        printPass(Report.Name, P);
        Report.Passes.push_back(std::move(P));
      }
      std::printf("%-8s epoch A/B: %.2fx vs vclock cold, steady %.4f "
                  "allocs/ev, %llu racy location(s), agreement %s\n",
                  Report.Name.c_str(), AB.Speedup, AB.SteadyAllocsPerEvent,
                  (unsigned long long)AB.RacyLocations,
                  AB.Agreement ? "yes" : "NO!");
    }

    // Live serial: the interpreter drives the planned runtime directly —
    // the path a real `herd` invocation takes.  Compare against the replay
    // cold pass (same structure-building work, minus interpretation).
    // The interpreter is deterministic and fusion never changes behavior
    // (docs/INTERPRETER.md), so every live run — either lane — emits
    // exactly the recorded event stream and must report the same racy
    // locations.  Both lanes run so the JSON carries the unfused/threaded
    // live A/B; `live` stays the threaded (default fast path) entry.
    if (T.Prog) {
      // Passes[0] is the serial cold row.
      double ReplayColdEps =
          Report.Passes.empty() ? 0.0 : Report.Passes[0].EventsPerSec;
      ThreadedCode Fused = buildThreadedCode(*T.Prog);
      struct LiveMode {
        const char *Name;
        const char *Row;
        const ThreadedCode *Shadow;
      };
      const LiveMode Modes[] = {
          {"unfused", "live[uf]", nullptr},
          {"threaded", "live[th]", &Fused},
      };
      for (const LiveMode &M : Modes) {
        LiveResult Live;
        std::unique_ptr<RaceRuntime> LiveRT;
        for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
          RaceRuntimeOptions LOpts;
          LOpts.Plan = T.Plan;
          LiveRT = std::make_unique<RaceRuntime>(LOpts);
          InterpOptions IOpts;
          IOpts.TraceEveryAccess = true;
          IOpts.Fused = M.Shadow;
          Interpreter Interp(*T.Prog, LiveRT.get(), IOpts);
          uint64_t Allocs0 = GAllocCalls.load(std::memory_order_relaxed);
          auto T0 = std::chrono::steady_clock::now();
          InterpResult R = Interp.run();
          double Seconds = secondsSince(T0);
          uint64_t Allocs =
              GAllocCalls.load(std::memory_order_relaxed) - Allocs0;
          LiveRT->onRunEnd();
          if (!R.Ok) {
            std::fprintf(stderr, "%s live (%s): %s\n", Report.Name.c_str(),
                         M.Name, R.Error.c_str());
            return 1;
          }
          double Eps = Seconds > 0 ? double(T.Events) / Seconds : 0.0;
          if (!Live.Present || Eps > Live.EventsPerSec) {
            Live.Present = true;
            Live.Seconds = Seconds;
            Live.EventsPerSec = Eps;
            Live.Allocs = Allocs;
            Live.AllocsPerEvent =
                T.Events ? double(Allocs) / double(T.Events) : 0.0;
            Live.FusedExecs = R.Fused.total();
            Live.BlockRetireHits = R.BlockRetireHits;
            Live.BlockRetiredSteps = R.BlockRetiredSteps;
          }
        }
        Live.RatioVsReplayCold =
            ReplayColdEps > 0 ? Live.EventsPerSec / ReplayColdEps : 0.0;
        // Feed the dispatch-mechanics counters through the metrics
        // registry (support/Metrics.h) so the JSON's `metrics` section is
        // the same named-counter surface `--stats=json` exposes.
        std::string Prefix = "live." + Report.Name + "." + M.Name + ".";
        Metrics.counter(Prefix + "fused_execs").add(Live.FusedExecs);
        Metrics.counter(Prefix + "block_retire_hits")
            .add(Live.BlockRetireHits);
        Metrics.counter(Prefix + "block_retired_steps")
            .add(Live.BlockRetiredSteps);
        bool Agree = LiveRT->reporter().reportedLocations() ==
                     Serial->reporter().reportedLocations();
        Report.Agreement = Report.Agreement && Agree;
        std::printf("%-8s %-9s %-5s %12.0f %10.4f %12llu %10.3f %10s  "
                    "(%.2fx of replay cold)\n",
                    Report.Name.c_str(), M.Row, "cold", Live.EventsPerSec,
                    Live.Seconds, (unsigned long long)Live.Allocs,
                    Live.AllocsPerEvent, "-", Live.RatioVsReplayCold);
        if (M.Shadow)
          Report.Live = Live;
        Report.LiveModes.emplace_back(M.Name, Live);
      }

      // Hook-path A/B (docs/HOOKPATH.md): the threaded live run again,
      // now with the hook fast path engaged — the interpreter probes the
      // thread's access cache inline and delivers misses through the
      // devirtualized serial sink, exactly what a default `herd`
      // invocation runs.  Same program, same schedule, same reports; the
      // only difference is how redundant events die.
      {
        HookPathResult HP;
        HP.UnfilteredEventsPerSec = Report.Live.EventsPerSec;
        std::unique_ptr<RaceRuntime> FastRT;
        uint64_t AccessEvents = 0;
        for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
          RaceRuntimeOptions LOpts;
          LOpts.Plan = T.Plan;
          FastRT = std::make_unique<RaceRuntime>(LOpts);
          InterpOptions IOpts;
          IOpts.TraceEveryAccess = true;
          IOpts.Fused = &Fused;
          IOpts.SerialSink = FastRT.get();
          Interpreter Interp(*T.Prog, FastRT.get(), IOpts);
          auto T0 = std::chrono::steady_clock::now();
          InterpResult R = Interp.run();
          double Seconds = secondsSince(T0);
          FastRT->onRunEnd();
          if (!R.Ok) {
            std::fprintf(stderr, "%s live (filtered): %s\n",
                         Report.Name.c_str(), R.Error.c_str());
            return 1;
          }
          double Eps = Seconds > 0 ? double(T.Events) / Seconds : 0.0;
          if (!HP.Present || Eps > HP.FilteredEventsPerSec) {
            HP.Present = true;
            HP.FilteredEventsPerSec = Eps;
          }
          AccessEvents = R.AccessEvents;
        }
        RaceRuntimeStats S = FastRT->stats();
        HP.AccessEvents = AccessEvents;
        HP.FilterHits = S.Hook.FilterHits;
        HP.FilterMisses = S.Hook.FilterMisses;
        uint64_t Probes = HP.FilterHits + HP.FilterMisses;
        HP.FilterHitRate =
            Probes ? double(HP.FilterHits) / double(Probes) : 0.0;
        HP.EventsDelivered = S.EventsSeen;
        HP.CountersReconcile =
            AccessEvents == HP.FilterHits + S.EventsSeen;
        HP.Speedup = HP.UnfilteredEventsPerSec > 0
                         ? HP.FilteredEventsPerSec /
                               HP.UnfilteredEventsPerSec
                         : 0.0;
        bool Agree = FastRT->reporter().reportedLocations() ==
                     Serial->reporter().reportedLocations();
        Report.Agreement = Report.Agreement && Agree;
        std::printf("%-8s %-9s %-5s %12.0f %10s %12s %10s %10s  "
                    "(%.2fx of unfiltered, %.0f%% inline hits)\n",
                    Report.Name.c_str(), "live[hook]", "cold",
                    HP.FilteredEventsPerSec, "-", "-", "-", "-",
                    HP.Speedup, 100.0 * HP.FilterHitRate);
        Report.HookPath = HP;
      }

      // Provenance A/B (docs/REPORTS.md): the default filtered live path
      // again, now with a ProvenanceStore fanned out next to the
      // detector.  Two sinks mean no devirtualized lane and no inline
      // probe — the overhead measured here is the honest total a
      // `--provenance=on` user pays, not just the store's own cost.
      {
        ProvenanceAbResult PA;
        PA.OffEventsPerSec = Report.HookPath.FilteredEventsPerSec;
        std::unique_ptr<RaceRuntime> ProvRT;
        std::unique_ptr<ProvenanceStore> Prov;
        for (uint32_t Rep = 0; Rep != Reps; ++Rep) {
          RaceRuntimeOptions LOpts;
          LOpts.Plan = T.Plan;
          ProvRT = std::make_unique<RaceRuntime>(LOpts);
          Prov = std::make_unique<ProvenanceStore>();
          FanoutHooks Fanout{ProvRT.get(), Prov.get()};
          InterpOptions IOpts;
          IOpts.TraceEveryAccess = true;
          IOpts.Fused = &Fused;
          Interpreter Interp(*T.Prog, &Fanout, IOpts);
          auto T0 = std::chrono::steady_clock::now();
          InterpResult R = Interp.run();
          double Seconds = secondsSince(T0);
          ProvRT->onRunEnd();
          if (!R.Ok) {
            std::fprintf(stderr, "%s live (provenance): %s\n",
                         Report.Name.c_str(), R.Error.c_str());
            return 1;
          }
          double Eps = Seconds > 0 ? double(T.Events) / Seconds : 0.0;
          if (!PA.Present || Eps > PA.OnEventsPerSec) {
            PA.Present = true;
            PA.OnEventsPerSec = Eps;
          }
        }
        PA.AccessesObserved = Prov->accessesObserved();
        PA.OverheadRatio = PA.OnEventsPerSec > 0
                               ? PA.OffEventsPerSec / PA.OnEventsPerSec
                               : 0.0;
        PA.Agreement = ProvRT->reporter().reportedLocations() ==
                       Serial->reporter().reportedLocations();
        Report.Agreement = Report.Agreement && PA.Agreement;
        std::printf("%-8s %-9s %-5s %12.0f %10s %12s %10s %10s  "
                    "(%.2fx overhead vs filtered)\n",
                    Report.Name.c_str(), "live[pv]", "cold",
                    PA.OnEventsPerSec, "-", "-", "-", "-",
                    PA.OverheadRatio);
        Report.ProvenanceAb = PA;
      }
    }

    std::printf("%-8s agreement: %s\n", Report.Name.c_str(),
                Report.Agreement ? "yes" : "NO!");
    AllAgree = AllAgree && Report.Agreement;
    Reports.push_back(std::move(Report));
    std::remove(T.Path.c_str());
  }

  if (!OutPath.empty()) {
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot open %s\n", OutPath.c_str());
      return 1;
    }
    writeJson(F, Reports, Metrics, Smoke, Reps);
    std::fclose(F);
    std::printf("\nwrote %s\n", OutPath.c_str());
  }

  if (!AllAgree) {
    std::fprintf(stderr, "FAIL: runtimes disagree on reported races\n");
    return 1;
  }
  return 0;
}
