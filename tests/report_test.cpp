//===- tests/report_test.cpp - Race diagnostics and report export ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the actionable-diagnostics layer (docs/REPORTS.md):
///
///   - the stable race fingerprint as a pure function (symmetry, site and
///     kind sensitivity, object-index normalization);
///   - the bounded RaceReporter (duplicate retention below the cap,
///     count-bump vs dropped-record accounting at the cap, O(1) counting
///     queries, clear());
///   - fingerprint-set stability differentials: the same execution must
///     fingerprint identically fused and unfused, across shard counts,
///     with and without the hook-filter fast path, and record→replay;
///   - provenance on/off byte-identity of the race *set* for all three
///     backend families (lockset trie, epoch happens-before, and the
///     vector-clock replay baseline) — the store only listens;
///   - the JSON / SARIF renderers as pure functions of a PipelineResult.
///
//===----------------------------------------------------------------------===//

#include "TempPath.h"
#include "TestPrograms.h"
#include "baselines/VectorClockDetector.h"
#include "detect/RaceReport.h"
#include "detect/TraceFile.h"
#include "herd/Pipeline.h"
#include "herd/ReportExport.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace herd;

namespace {

/// Sorted fingerprint multiset of every retained record — the structural
/// race-set identity the differentials compare.
std::vector<uint64_t> fingerprints(const RaceReporter &Reporter) {
  std::vector<uint64_t> Out;
  for (const RaceRecord &Rec : Reporter.records())
    Out.push_back(Rec.Fingerprint);
  std::sort(Out.begin(), Out.end());
  return Out;
}

RaceRecord makeRecord(LocationKey Location, uint32_t CurSite,
                      AccessKind CurKind, uint32_t PriorSite,
                      AccessKind PriorKind) {
  RaceRecord R;
  R.Location = Location;
  R.CurrentThread = ThreadId(1);
  R.CurrentAccess = CurKind;
  R.CurrentSite = SiteId(CurSite);
  R.PriorThreadKnown = true;
  R.PriorThread = ThreadId(2);
  R.PriorAccess = PriorKind;
  R.PriorSite = SiteId(PriorSite);
  return R;
}

//===----------------------------------------------------------------------===
// The fingerprint as a pure function.
//===----------------------------------------------------------------------===

TEST(FingerprintTest, SymmetricUnderAccessOrder) {
  // A-vs-B and B-vs-A observations of the same bug must collapse: the
  // (site, kind) pairs are ordered canonically before hashing.
  LocationKey L = LocationKey::forField(ObjectId(3), FieldId(7));
  EXPECT_EQ(raceFingerprint(L, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read),
            raceFingerprint(L, SiteId(29), AccessKind::Read, SiteId(11),
                            AccessKind::Write));
}

TEST(FingerprintTest, SensitiveToSitesAndKinds) {
  LocationKey L = LocationKey::forField(ObjectId(3), FieldId(7));
  uint64_t Base = raceFingerprint(L, SiteId(11), AccessKind::Write,
                                  SiteId(29), AccessKind::Read);
  EXPECT_NE(Base, raceFingerprint(L, SiteId(12), AccessKind::Write,
                                  SiteId(29), AccessKind::Read))
      << "changing a site must change the fingerprint";
  EXPECT_NE(Base, raceFingerprint(L, SiteId(11), AccessKind::Read,
                                  SiteId(29), AccessKind::Read))
      << "changing an access kind must change the fingerprint";
  LocationKey OtherField = LocationKey::forField(ObjectId(3), FieldId(8));
  EXPECT_NE(Base, raceFingerprint(OtherField, SiteId(11), AccessKind::Write,
                                  SiteId(29), AccessKind::Read))
      << "changing the field must change the fingerprint";
}

TEST(FingerprintTest, NormalizesObjectIndexAway) {
  // The object index is a run-specific allocation counter; the same
  // source-level bug on two different instances must fingerprint the
  // same (the low-32-bit field component is all that participates).
  LocationKey A = LocationKey::forField(ObjectId(3), FieldId(7));
  LocationKey B = LocationKey::forField(ObjectId(900), FieldId(7));
  EXPECT_EQ(raceFingerprint(A, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read),
            raceFingerprint(B, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read));
  // Arrays keep their distinct field marker.
  EXPECT_NE(raceFingerprint(LocationKey::forArray(ObjectId(3)), SiteId(11),
                            AccessKind::Write, SiteId(29), AccessKind::Read),
            raceFingerprint(A, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read));
}

TEST(FingerprintTest, InvalidSitesAreDeterministic) {
  // Site-less reports (old traces, the epoch backend's unknown earlier
  // access) still fingerprint deterministically.
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(2));
  uint64_t F1 = raceFingerprint(L, SiteId::invalid(), AccessKind::Write,
                                SiteId::invalid(), AccessKind::Read);
  uint64_t F2 = raceFingerprint(L, SiteId::invalid(), AccessKind::Write,
                                SiteId::invalid(), AccessKind::Read);
  EXPECT_EQ(F1, F2);
  EXPECT_NE(F1, 0u);
}

//===----------------------------------------------------------------------===
// The bounded reporter.
//===----------------------------------------------------------------------===

TEST(RaceReporterTest, BelowCapKeepsDuplicatesAndGroups) {
  RaceReporter Reporter(8);
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(5));
  RaceRecord R = makeRecord(L, 10, AccessKind::Write, 20, AccessKind::Read);
  Reporter.report(R);
  Reporter.report(R); // duplicate: retained below the cap
  Reporter.report(
      makeRecord(L, 11, AccessKind::Write, 20, AccessKind::Read));

  EXPECT_EQ(Reporter.size(), 3u) << "below the cap every record is kept";
  ASSERT_EQ(Reporter.groups().size(), 2u);
  EXPECT_EQ(Reporter.groups()[0].Count, 2u);
  EXPECT_EQ(Reporter.groups()[0].FirstRecord, 0u);
  EXPECT_EQ(Reporter.groups()[1].Count, 1u);
  EXPECT_EQ(Reporter.groups()[1].FirstRecord, 2u);
  EXPECT_EQ(Reporter.totalReported(), 3u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);
  EXPECT_EQ(Reporter.records()[0].Fingerprint,
            Reporter.groups()[0].Fingerprint);
}

TEST(RaceReporterTest, AtCapBumpsKnownAndCountsNovel) {
  RaceReporter Reporter(2);
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(5));
  RaceRecord A = makeRecord(L, 10, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord B = makeRecord(L, 11, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord C = makeRecord(L, 12, AccessKind::Write, 20, AccessKind::Read);
  Reporter.report(A);
  Reporter.report(B);
  ASSERT_EQ(Reporter.size(), 2u);

  // Known fingerprint past the cap: the count bumps, nothing is dropped.
  Reporter.report(A);
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.groups()[0].Count, 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);

  // Novel fingerprint past the cap: counted as dropped, never silent.
  Reporter.report(C);
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.groups().size(), 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 1u);
  EXPECT_EQ(Reporter.totalReported(), 4u);

  // The counting queries stay exact past the cap: a dropped record on a
  // never-seen location (same field, new object — same fingerprint as A
  // after object normalization, so not even counted as dropped) must
  // still reach the distinct location/object sets.
  LocationKey L2 = LocationKey::forField(ObjectId(9), FieldId(5));
  Reporter.report(
      makeRecord(L2, 10, AccessKind::Write, 20, AccessKind::Read));
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 1u);
  EXPECT_EQ(Reporter.countDistinctLocations(), 2u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 2u);
  EXPECT_EQ(Reporter.reportedLocations().count(L2), 1u);
}

TEST(RaceReporterTest, MergePreservesCountsAndSetsPastTheCap) {
  LocationKey L1 = LocationKey::forField(ObjectId(1), FieldId(5));
  LocationKey L2 = LocationKey::forField(ObjectId(2), FieldId(6));
  LocationKey L3 = LocationKey::forArray(ObjectId(3));
  RaceRecord A = makeRecord(L1, 10, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord B = makeRecord(L2, 11, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord C = makeRecord(L3, 12, AccessKind::Write, 20, AccessKind::Read);

  // A saturated source: cap 1, so B is past-cap (novel -> dropped, its
  // location only in the sets) and a repeat of A only bumps its count.
  RaceReporter Src(1);
  Src.report(A);
  Src.report(B);
  Src.report(A);
  ASSERT_EQ(Src.size(), 1u);
  ASSERT_EQ(Src.droppedRecords(), 1u);

  // A roomy destination: everything Src ever saw survives the merge
  // semantically — A's retained record with its past-cap count bump,
  // B's drop, the exact location/object sets, the totals.
  RaceReporter Dst(8);
  Dst.report(C);
  Dst.merge(Src);
  EXPECT_EQ(Dst.size(), 2u); // C + A's retained record
  EXPECT_EQ(Dst.totalReported(), 4u);
  EXPECT_EQ(Dst.countDistinctLocations(), 3u);
  EXPECT_EQ(Dst.reportedLocations().count(L2), 1u);
  EXPECT_EQ(Dst.droppedRecords(), 1u);
  bool FoundA = false;
  for (const RaceReporter::Group &G : Dst.groups())
    if (G.Fingerprint == raceFingerprint(A)) {
      FoundA = true;
      EXPECT_EQ(G.Count, 2u);
    }
  EXPECT_TRUE(FoundA);

  // A destination already at its own cap behaves exactly as if Src's
  // stream had been delivered directly: A and B are novel there, so
  // every one of their occurrences lands in droppedRecords() — but the
  // location/object sets stay exact even then.
  RaceReporter Full(1);
  Full.report(C);
  Full.merge(Src);
  EXPECT_EQ(Full.size(), 1u);
  EXPECT_EQ(Full.totalReported(), 4u);
  EXPECT_EQ(Full.countDistinctLocations(), 3u);
  EXPECT_EQ(Full.droppedRecords(), 3u); // A, A again, and Src's own drop
}

TEST(RaceReporterTest, CountingQueriesAndClear) {
  RaceReporter Reporter;
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(1), FieldId(5)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(1), FieldId(6)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(2), FieldId(5)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  EXPECT_EQ(Reporter.countDistinctLocations(), 3u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 2u);

  Reporter.clear();
  EXPECT_TRUE(Reporter.empty());
  EXPECT_TRUE(Reporter.groups().empty());
  EXPECT_EQ(Reporter.totalReported(), 0u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);
  EXPECT_EQ(Reporter.countDistinctLocations(), 0u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 0u);
}

//===----------------------------------------------------------------------===
// Fingerprint stability across pipeline configurations.
//===----------------------------------------------------------------------===

TEST(FingerprintDifferentialTest, StableAcrossDispatchShardsAndHookFilter) {
  // Fusion, shard count and the hook-filter fast path all promise
  // byte-identical reports; the fingerprint multiset is the structural
  // form of that promise.  Record→replay rides the same oracle: the
  // trace carries sites, so replayed records fingerprint identically.
  struct Case {
    std::string Name;
    Program P;
    ToolConfig Cfg;
  };
  std::vector<Case> Cases;
  Cases.push_back({"figure2", testprogs::buildFigure2(/*SamePQ=*/false),
                   ToolConfig::full()});
  // Peeling can suppress the counter race (Section 7.2), so this case
  // runs the noPeeling ablation — every schedule reports.
  Cases.push_back({"counter_unlocked", testprogs::buildCounter(false, 30).P,
                   ToolConfig::noPeeling()});

  for (const Case &C : Cases) {
    std::string Path = tempPath("herd_report_" + C.Name + ".trace");
    ToolConfig Base = C.Cfg;
    Base.Seed = 7;
    Base.RecordTracePath = Path;
    PipelineResult Want = runPipeline(C.P, Base);
    ASSERT_TRUE(Want.Run.Ok) << C.Name << ": " << Want.Run.Error;
    ASSERT_TRUE(Want.Trace.Ok) << Want.Trace.Error;
    ASSERT_FALSE(Want.Reports.empty())
        << C.Name << ": need a racy run for the differential to bite";
    std::vector<uint64_t> WantPrints = fingerprints(Want.Reports);

    auto expectSame = [&](const char *What, const PipelineResult &Got) {
      ASSERT_TRUE(Got.Run.Ok) << C.Name << " " << What << ": "
                              << Got.Run.Error;
      EXPECT_EQ(WantPrints, fingerprints(Got.Reports))
          << C.Name << " " << What;
    };

    ToolConfig Unfused = C.Cfg;
    Unfused.Seed = 7;
    Unfused.Superinstructions = false;
    expectSame("unfused", runPipeline(C.P, Unfused));

    ToolConfig Sharded = C.Cfg;
    Sharded.Seed = 7;
    Sharded.Shards = 2;
    expectSame("shards=2", runPipeline(C.P, Sharded));

    ToolConfig NoFilter = C.Cfg;
    NoFilter.Seed = 7;
    NoFilter.HookFilter = false;
    expectSame("unfiltered", runPipeline(C.P, NoFilter));

    ToolConfig Replay = C.Cfg;
    PipelineResult Replayed = replayTracePipeline(C.P, Replay, Path);
    ASSERT_TRUE(Replayed.Trace.Ok) << Replayed.Trace.Error;
    expectSame("replay", Replayed);

    std::remove(Path.c_str());
  }
}

TEST(FingerprintDifferentialTest, GroupCountsSumToTotal) {
  // The dedup invariant on a real run: group counts add up to every
  // report() call that was retained or count-bumped.
  PipelineResult R = runPipeline(testprogs::buildCounter(false, 30).P,
                                 ToolConfig::noPeeling());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Reports.empty());
  uint64_t Sum = 0;
  for (const RaceReporter::Group &G : R.Reports.groups()) {
    EXPECT_EQ(R.Reports.records()[G.FirstRecord].Fingerprint, G.Fingerprint);
    Sum += G.Count;
  }
  EXPECT_EQ(Sum + R.Reports.droppedRecords(), R.Reports.totalReported());
}

//===----------------------------------------------------------------------===
// Provenance on/off byte-identity of the race set, per backend.
//===----------------------------------------------------------------------===

TEST(ProvenanceDifferentialTest, HerdRaceSetIdenticalOnOff) {
  // The ProvenanceStore is a pure listener: with it on, the schedule, the
  // race records and the deduplicated entries must be byte-identical;
  // only the human lines gain indented detail.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  for (uint32_t Shards : {0u, 2u}) {
    ToolConfig Off = ToolConfig::full();
    Off.Seed = 5;
    Off.Shards = Shards;
    PipelineResult ROff = runPipeline(P, Off);
    ASSERT_TRUE(ROff.Run.Ok) << ROff.Run.Error;
    ASSERT_FALSE(ROff.Reports.empty());
    EXPECT_FALSE(ROff.ProvenanceOn);

    ToolConfig On = Off;
    On.Provenance = true;
    PipelineResult ROn = runPipeline(P, On);
    ASSERT_TRUE(ROn.Run.Ok) << ROn.Run.Error;
    EXPECT_TRUE(ROn.ProvenanceOn);
    EXPECT_GT(ROn.Provenance.accessesObserved(), 0u);

    EXPECT_EQ(ROff.Run.InstructionsExecuted, ROn.Run.InstructionsExecuted)
        << "shards=" << Shards << ": provenance must not perturb the run";
    EXPECT_EQ(fingerprints(ROff.Reports), fingerprints(ROn.Reports))
        << "shards=" << Shards;
    ASSERT_EQ(ROff.Entries.size(), ROn.Entries.size()) << "shards=" << Shards;
    for (size_t I = 0; I != ROff.Entries.size(); ++I) {
      EXPECT_EQ(ROff.Entries[I].Message, ROn.Entries[I].Message);
      EXPECT_EQ(ROff.Entries[I].Fingerprint, ROn.Entries[I].Fingerprint);
      EXPECT_EQ(ROff.Entries[I].Occurrences, ROn.Entries[I].Occurrences);
    }
    // The human lines are a superset: same first line, enrichment after.
    ASSERT_EQ(ROff.FormattedRaces.size(), ROn.FormattedRaces.size());
    bool Enriched = false;
    for (size_t I = 0; I != ROff.FormattedRaces.size(); ++I) {
      EXPECT_EQ(ROn.FormattedRaces[I].compare(0, ROff.FormattedRaces[I].size(),
                                              ROff.FormattedRaces[I]),
                0)
          << "enriched line must extend, not rewrite, the plain line";
      if (ROn.FormattedRaces[I].size() > ROff.FormattedRaces[I].size())
        Enriched = true;
    }
    if (Shards == 0) {
      EXPECT_TRUE(Enriched) << "provenance=on should add detail somewhere";
    }
  }
}

TEST(ProvenanceDifferentialTest, EpochRaceSetIdenticalOnOff) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Off = ToolConfig::full();
  Off.Seed = 5;
  Off.Backend = ToolConfig::DetectorBackend::Epoch;
  PipelineResult ROff = runPipeline(P, Off);
  ASSERT_TRUE(ROff.Run.Ok) << ROff.Run.Error;
  ASSERT_TRUE(ROff.EpochBackend);
  ASSERT_FALSE(ROff.FormattedRaces.empty());

  ToolConfig On = Off;
  On.Provenance = true;
  PipelineResult ROn = runPipeline(P, On);
  ASSERT_TRUE(ROn.Run.Ok) << ROn.Run.Error;
  EXPECT_TRUE(ROn.ProvenanceOn);

  EXPECT_EQ(ROff.Run.InstructionsExecuted, ROn.Run.InstructionsExecuted);
  EXPECT_EQ(ROff.FormattedRaces, ROn.FormattedRaces)
      << "epoch racy-location lines carry no provenance detail; the sets "
         "must match exactly";
  ASSERT_EQ(ROff.Entries.size(), ROn.Entries.size());
  for (size_t I = 0; I != ROff.Entries.size(); ++I)
    EXPECT_EQ(ROff.Entries[I].Fingerprint, ROn.Entries[I].Fingerprint);
}

TEST(ProvenanceDifferentialTest, VectorClockReplayIdenticalWithStore) {
  // Third backend family: a vector-clock baseline consuming a recorded
  // trace with and without a ProvenanceStore fanned out next to it.
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  std::string Path = tempPath("herd_report_vc.trace");
  {
    TraceWriter Writer;
    ASSERT_TRUE(Writer.open(Path).Ok);
    InterpOptions Opts;
    Opts.Seed = 3;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(P, &Writer, Opts);
    ASSERT_TRUE(Interp.run().Ok);
    ASSERT_TRUE(Writer.close().Ok);
  }

  VectorClockDetector Alone;
  {
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Path).Ok);
    ASSERT_TRUE(Reader.replayInto(Alone).Ok);
  }

  VectorClockDetector WithStore;
  ProvenanceStore Prov;
  {
    FanoutHooks Fanout{&WithStore, &Prov};
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Path).Ok);
    ASSERT_TRUE(Reader.replayInto(Fanout).Ok);
  }

  EXPECT_FALSE(Alone.reportedLocations().empty())
      << "need a racy trace for the comparison to mean anything";
  EXPECT_EQ(Alone.reportedLocations(), WithStore.reportedLocations());
  EXPECT_GT(Prov.accessesObserved(), 0u);
  std::remove(Path.c_str());
}

TEST(ProvenanceDifferentialTest, ReplayPipelineCarriesProvenance) {
  // v1 traces record sites on every record, so provenance works offline:
  // a replayed run with --provenance=on enriches from the trace alone.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  std::string Path = tempPath("herd_report_replay_prov.trace");
  ToolConfig Rec = ToolConfig::full();
  Rec.Seed = 5;
  Rec.RecordTracePath = Path;
  PipelineResult Live = runPipeline(P, Rec);
  ASSERT_TRUE(Live.Run.Ok);
  ASSERT_TRUE(Live.Trace.Ok) << Live.Trace.Error;

  ToolConfig Off = ToolConfig::full();
  PipelineResult ROff = replayTracePipeline(P, Off, Path);
  ASSERT_TRUE(ROff.Trace.Ok) << ROff.Trace.Error;

  ToolConfig On = Off;
  On.Provenance = true;
  PipelineResult ROn = replayTracePipeline(P, On, Path);
  ASSERT_TRUE(ROn.Trace.Ok) << ROn.Trace.Error;
  EXPECT_TRUE(ROn.ProvenanceOn);
  EXPECT_GT(ROn.Provenance.accessesObserved(), 0u);
  EXPECT_EQ(fingerprints(ROff.Reports), fingerprints(ROn.Reports));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===
// The report renderers.
//===----------------------------------------------------------------------===

TEST(ReportExportTest, JsonDocumentShapeAndContent) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Seed = 5;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());

  std::string Doc = renderReportJson(P, R);
  EXPECT_NE(Doc.find("\"schema\":\"herd-report\""), std::string::npos);
  EXPECT_NE(Doc.find("\"version\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"detector\":\"herd\""), std::string::npos);
  EXPECT_NE(Doc.find("\"rule\":\"herd/datarace\""), std::string::npos);
  EXPECT_NE(Doc.find("\"dropped_records\":0"), std::string::npos);
  EXPECT_EQ(Doc.back(), '\n');

  // Fingerprints travel as 16-digit hex strings (doubles corrupt them).
  char Hex[40];
  std::snprintf(Hex, sizeof(Hex), "\"fingerprint\":\"%016llx\"",
                (unsigned long long)R.Entries[0].Fingerprint);
  EXPECT_NE(Doc.find(Hex), std::string::npos) << Doc;

  // The document is a pure function of the result.
  EXPECT_EQ(Doc, renderReportJson(P, R));
}

TEST(ReportExportTest, SarifDocumentShapeAndContent) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Seed = 5;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());

  std::string Doc = renderReportSarif(P, R);
  EXPECT_NE(Doc.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(Doc.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"herd\""), std::string::npos);
  EXPECT_NE(Doc.find("\"ruleId\":\"herd/datarace\""), std::string::npos);
  EXPECT_NE(Doc.find("\"partialFingerprints\""), std::string::npos);
  EXPECT_NE(Doc.find("\"herdRace/v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_EQ(Doc, renderReportSarif(P, R));
}

TEST(ReportExportTest, CleanRunRendersEmptyResults) {
  Program P = testprogs::buildCounter(/*Locked=*/true, 20).P;
  PipelineResult R = runPipeline(P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_TRUE(R.Reports.empty());

  std::string Json = renderReportJson(P, R);
  EXPECT_NE(Json.find("\"distinct_races\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"results\":[]"), std::string::npos);
  std::string Sarif = renderReportSarif(P, R);
  EXPECT_NE(Sarif.find("\"results\":[]"), std::string::npos);
}

TEST(ReportExportTest, EpochEntriesUseRacyLocationRule) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Backend = ToolConfig::DetectorBackend::Epoch;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());
  for (const ReportEntry &E : R.Entries)
    EXPECT_EQ(E.EntryKind, ReportEntry::Kind::RacyLocation);

  std::string Json = renderReportJson(P, R);
  EXPECT_NE(Json.find("\"detector\":\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"rule\":\"herd/racy-location\""), std::string::npos);
  std::string Sarif = renderReportSarif(P, R);
  EXPECT_NE(Sarif.find("\"ruleId\":\"herd/racy-location\""),
            std::string::npos);
}

TEST(ReportExportTest, EntriesMatchReporterGroups) {
  // Entries are the groups, one-to-one, in first-seen order, with the
  // occurrence counts carried over.
  Program P = testprogs::buildCounter(/*Locked=*/false, 30).P;
  PipelineResult R = runPipeline(P, ToolConfig::noPeeling());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Reports.empty());
  size_t RaceEntries = 0;
  for (const ReportEntry &E : R.Entries)
    if (E.EntryKind == ReportEntry::Kind::Race)
      ++RaceEntries;
  ASSERT_EQ(RaceEntries, R.Reports.groups().size());
  size_t I = 0;
  for (const ReportEntry &E : R.Entries) {
    if (E.EntryKind != ReportEntry::Kind::Race)
      continue;
    EXPECT_EQ(E.Fingerprint, R.Reports.groups()[I].Fingerprint);
    EXPECT_EQ(E.Occurrences, R.Reports.groups()[I].Count);
    ++I;
  }
}

} // namespace
