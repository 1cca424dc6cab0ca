//===- herd/HerdOptions.cpp - herd CLI argument parsing -------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "herd/HerdOptions.h"

#include <cctype>
#include <cstdlib>

using namespace herd;

const char *herd::herdUsageText() {
  return
      "usage: herd <file.mj> [options]\n"
      "  --config=<name>   full | nostatic | nodominators | nopeeling |\n"
      "                    nocache | fieldsmerged | noownership | base\n"
      "  --seed=<n>        schedule seed (default 1)\n"
      "  --shards=<n>      run the sharded detection runtime with n shard\n"
      "                    workers (default: serial runtime)\n"
      "  --cache-size=<n>  entries per per-thread access cache; power of\n"
      "                    two (default 256, the paper's Section 4.3)\n"
      "  --sweep=<n>       run n seeds and summarize the reports\n"
      "  --record=<file>   also stream the run's events to a trace file\n"
      "                    (docs/REPLAY.md)\n"
      "  --replay=<file>   re-detect a recorded trace instead of executing\n"
      "                    the program (the program is still needed for\n"
      "                    report formatting)\n"
      "  --detector=<name> detection backend: herd (default; the paper's\n"
      "                    lockset/trie pipeline) | epoch (FastTrack-style\n"
      "                    happens-before, O(1) common case, serial live or\n"
      "                    replay; docs/DETECTORS.md) | eraser | vectorclock\n"
      "                    | naive (comparison baselines, --replay only)\n"
      "  --deadlocks       also run the lock-order deadlock detector\n"
      "  --stats[=json]    print pipeline statistics; =json emits one\n"
      "                    machine-readable herd-stats document instead of\n"
      "                    the human output (docs/OBSERVABILITY.md)\n"
      "  --trace-json=<f>  write a Chrome trace_event JSON timeline of the\n"
      "                    run's phases and shards to f (open it in\n"
      "                    chrome://tracing or Perfetto)\n"
      "  --profile         sample the interpreter's dispatch loop and print\n"
      "                    a ranked per-opcode time table\n"
      "  --dispatch=<mode> interpreter dispatch strategy: threaded (default;\n"
      "                    computed-goto over superinstruction shadow code,\n"
      "                    docs/INTERPRETER.md) | switch (the reference\n"
      "                    interpreter); reports are identical either way\n"
      "  --hook-filter=<m> hook-path fast path: on (default; devirtualized\n"
      "                    delivery with an inline probe of the per-thread\n"
      "                    access cache, docs/HOOKPATH.md) | off (the\n"
      "                    virtual hook path, for A/B measurement); reports\n"
      "                    and traces are byte-identical either way\n"
      "  --report=<fmt>    race-report rendering: human (default) | json\n"
      "                    (one versioned herd-report document on stdout) |\n"
      "                    sarif (a SARIF 2.1.0 document for code-scanning\n"
      "                    UIs; docs/REPORTS.md)\n"
      "  --provenance=<m>  capture diagnostic provenance and enrich the\n"
      "                    reports with spawn sites, lock-acquisition\n"
      "                    sites, and recent-access history: on | off\n"
      "                    (default; zero cost when off — docs/REPORTS.md);\n"
      "                    race sets are byte-identical either way\n"
      "  --dump-ir         print the lowered MiniJ IR and exit\n"
      "  --workload=<name> analyse a built-in benchmark replica instead\n"
      "                    of a file: mtrt | tsp | sor2 | elevator | hedc\n";
}

bool herd::pickToolConfig(const std::string &Name, ToolConfig &Out) {
  if (Name == "full")
    Out = ToolConfig::full();
  else if (Name == "nostatic")
    Out = ToolConfig::noStatic();
  else if (Name == "nodominators")
    Out = ToolConfig::noDominators();
  else if (Name == "nopeeling")
    Out = ToolConfig::noPeeling();
  else if (Name == "nocache")
    Out = ToolConfig::noCache();
  else if (Name == "fieldsmerged")
    Out = ToolConfig::fieldsMerged();
  else if (Name == "noownership")
    Out = ToolConfig::noOwnership();
  else if (Name == "base")
    Out = ToolConfig::base();
  else
    return false;
  return true;
}

namespace {

HerdParse fail(std::string Message, bool ShowUsage = false) {
  HerdParse P;
  P.St = HerdParse::Status::Error;
  P.Error = std::move(Message);
  P.ShowUsage = ShowUsage;
  return P;
}

} // namespace

HerdParse herd::parseHerdCommandLine(const std::vector<std::string> &Args) {
  HerdParse Result;
  HerdOptions &O = Result.Opts;

  // Deferred flags: presets must not clobber explicit --shards /
  // --cache-size no matter the flag order, so all apply after the loop.
  uint32_t Shards = 0;    // 0 = serial runtime
  uint32_t CacheSize = 0; // 0 = keep the config's default
  bool HaveDispatch = false;
  DispatchMode Dispatch = DispatchMode::Threaded;
  bool HaveHookFilter = false;
  bool HookFilterOn = true;
  bool HaveProvenance = false;
  bool ProvenanceOn = false;

  for (const std::string &Arg : Args) {
    if (Arg.rfind("--config=", 0) == 0) {
      if (!pickToolConfig(Arg.substr(9), O.Config))
        return fail("herd: unknown config '" + Arg.substr(9) + "'");
    } else if (Arg.rfind("--seed=", 0) == 0) {
      // strtoull silently skips whitespace and wraps negatives; only a
      // plain digit string is a seed.
      char *End = nullptr;
      O.Seed = std::strtoull(Arg.c_str() + 7, &End, 10);
      if (!std::isdigit(uint8_t(Arg[7])) || *End != '\0')
        return fail("herd: --seed expects a non-negative number, got '" +
                    Arg.substr(7) + "'");
    } else if (Arg.rfind("--shards=", 0) == 0) {
      char *End = nullptr;
      Shards = uint32_t(std::strtoul(Arg.c_str() + 9, &End, 10));
      if (End == Arg.c_str() + 9 || *End != '\0')
        return fail("herd: --shards expects a number, got '" +
                    Arg.substr(9) + "'");
    } else if (Arg.rfind("--cache-size=", 0) == 0) {
      char *End = nullptr;
      unsigned long N = std::strtoul(Arg.c_str() + 13, &End, 10);
      if (End == Arg.c_str() + 13 || *End != '\0' || N == 0 ||
          N > (1u << 20) || (N & (N - 1)) != 0)
        return fail("herd: --cache-size expects a power of two in "
                    "[1, 2^20], got '" +
                    Arg.substr(13) + "'");
      CacheSize = uint32_t(N);
    } else if (Arg.rfind("--sweep=", 0) == 0) {
      // atoi would fold '--sweep=5x' to 5 and '--sweep=-3' or garbage to
      // a dead sweep of 0 — every malformed count must be an error, not a
      // silently different run.
      char *End = nullptr;
      unsigned long N = std::strtoul(Arg.c_str() + 8, &End, 10);
      if (!std::isdigit(uint8_t(Arg[8])) || *End != '\0' || N == 0 ||
          N > 1'000'000)
        return fail("herd: --sweep expects a seed count in [1, 1000000], "
                    "got '" +
                    Arg.substr(8) + "'");
      O.Sweep = int(N);
    } else if (Arg.rfind("--workload=", 0) == 0) {
      O.WorkloadName = Arg.substr(11);
    } else if (Arg.rfind("--record=", 0) == 0) {
      O.RecordPath = Arg.substr(9);
      if (O.RecordPath.empty())
        return fail("herd: --record expects a file path");
    } else if (Arg.rfind("--replay=", 0) == 0) {
      O.ReplayPath = Arg.substr(9);
      if (O.ReplayPath.empty())
        return fail("herd: --replay expects a file path");
    } else if (Arg.rfind("--detector=", 0) == 0) {
      O.Detector = Arg.substr(11);
      // Reject unknown backends here, at parse time, with the accepted
      // list — nothing downstream may silently fall back to a default.
      if (O.Detector != "herd" && O.Detector != "epoch" &&
          O.Detector != "eraser" && O.Detector != "vectorclock" &&
          O.Detector != "naive")
        return fail("herd: unknown detector '" + O.Detector +
                    "' (accepted: herd, epoch, eraser, vectorclock, naive)");
    } else if (Arg.rfind("--trace-json=", 0) == 0) {
      O.TraceJsonPath = Arg.substr(13);
      if (O.TraceJsonPath.empty())
        return fail("herd: --trace-json expects a file path");
    } else if (Arg == "--deadlocks") {
      O.Deadlocks = true;
    } else if (Arg == "--stats" || Arg == "--stats=human") {
      O.Stats = true;
    } else if (Arg == "--stats=json") {
      O.StatsJson = true;
    } else if (Arg.rfind("--stats=", 0) == 0) {
      return fail("herd: --stats expects human or json, got '" +
                  Arg.substr(8) + "'");
    } else if (Arg.rfind("--dispatch=", 0) == 0) {
      std::string Mode = Arg.substr(11);
      HaveDispatch = true;
      if (Mode == "switch")
        Dispatch = DispatchMode::Switch;
      else if (Mode == "threaded")
        Dispatch = DispatchMode::Threaded;
      else
        return fail("herd: --dispatch expects switch or threaded, got '" +
                    Mode + "'");
    } else if (Arg.rfind("--hook-filter=", 0) == 0) {
      std::string Mode = Arg.substr(14);
      HaveHookFilter = true;
      if (Mode == "on")
        HookFilterOn = true;
      else if (Mode == "off")
        HookFilterOn = false;
      else
        return fail("herd: --hook-filter expects on or off, got '" + Mode +
                    "'");
    } else if (Arg.rfind("--report=", 0) == 0) {
      O.Report = Arg.substr(9);
      // Like --detector: unknown formats die here, at parse time, with
      // the accepted list — never a silent fallback to human output.
      if (O.Report != "human" && O.Report != "json" && O.Report != "sarif")
        return fail("herd: --report expects human, json, or sarif, got '" +
                    O.Report + "'");
    } else if (Arg.rfind("--provenance=", 0) == 0) {
      std::string Mode = Arg.substr(13);
      HaveProvenance = true;
      if (Mode == "on")
        ProvenanceOn = true;
      else if (Mode == "off")
        ProvenanceOn = false;
      else
        return fail("herd: --provenance expects on or off, got '" + Mode +
                    "'");
    } else if (Arg == "--profile") {
      O.Profile = true;
    } else if (Arg == "--dump-ir") {
      O.DumpIR = true;
    } else if (Arg == "--help" || Arg == "-h") {
      Result.St = HerdParse::Status::Help;
      return Result;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return fail("herd: unknown option '" + Arg + "'", /*ShowUsage=*/true);
    } else {
      O.Path = Arg;
    }
  }

  if (O.Path.empty() && O.WorkloadName.empty())
    return fail("", /*ShowUsage=*/true);
  if (!O.ReplayPath.empty() && (O.Sweep > 0 || !O.RecordPath.empty()))
    return fail("herd: --replay cannot be combined with --sweep/--record");
  if (!O.RecordPath.empty() && O.Sweep > 0)
    return fail("herd: --record cannot be combined with --sweep");
  // The epoch backend runs through the pipeline (live serial or replay);
  // the other baselines are trace consumers only.
  if (O.Detector != "herd" && O.Detector != "epoch" && O.ReplayPath.empty())
    return fail("herd: --detector requires --replay");
  if (O.Detector == "epoch" && Shards != 0)
    return fail("herd: --detector=epoch runs the serial happens-before "
                "backend and cannot be combined with --shards");
  // Observability is per-run: a sweep aggregates many runs, and the
  // baseline replays bypass the pipeline entirely.
  if (O.Sweep > 0 && (O.Profile || O.StatsJson || !O.TraceJsonPath.empty()))
    return fail("herd: --profile/--stats=json/--trace-json cannot be "
                "combined with --sweep");
  if (O.Profile && !O.ReplayPath.empty())
    return fail("herd: --profile requires a live run, not --replay");
  if (O.Detector != "herd" && O.Detector != "epoch" &&
      (O.StatsJson || !O.TraceJsonPath.empty()))
    return fail("herd: --stats=json/--trace-json only apply to the herd "
                "detector");
  // The report document is per-run and owns stdout, exactly like
  // --stats=json: no sweeps, no competing stdout consumers, and the
  // baseline replay detectors bypass the pipeline that builds it.
  if (O.Report != "human") {
    if (O.Sweep > 0)
      return fail("herd: --report=json/--report=sarif cannot be combined "
                  "with --sweep");
    if (O.Stats || O.StatsJson || O.Profile)
      return fail("herd: --report=json/--report=sarif own stdout and "
                  "cannot be combined with --stats/--profile");
    if (O.Detector != "herd" && O.Detector != "epoch")
      return fail("herd: --report only applies to the herd and epoch "
                  "detectors");
    if (O.DumpIR)
      return fail("herd: --report=json/--report=sarif own stdout and "
                  "cannot be combined with --dump-ir");
  }

  O.Config.Shards = Shards;
  if (O.Detector == "epoch")
    O.Config.Backend = ToolConfig::DetectorBackend::Epoch;
  O.Config.RecordTracePath = O.RecordPath;
  if (CacheSize != 0)
    O.Config.CacheEntries = CacheSize;
  if (HaveDispatch)
    O.Config.Dispatch = Dispatch;
  if (HaveHookFilter)
    O.Config.HookFilter = HookFilterOn;
  if (HaveProvenance)
    O.Config.Provenance = ProvenanceOn;
  O.Config.Seed = O.Seed;
  O.Config.DetectDeadlocks = O.Deadlocks;

  Result.St = HerdParse::Status::Run;
  return Result;
}
