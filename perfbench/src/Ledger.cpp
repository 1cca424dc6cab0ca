//===- perfbench/src/Ledger.cpp - Spans and the per-layer ledger ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Frontend:
    return "frontend";
  case Layer::Analysis:
    return "analysis";
  case Layer::Instr:
    return "instr";
  case Layer::Runtime:
    return "runtime";
  case Layer::Detect:
    return "detect";
  case Layer::Baselines:
    return "baselines";
  case Layer::Herd:
    return "herd";
  case Layer::Workloads:
    return "workloads";
  }
  return "?";
}

namespace {

/// The layer whose code a span covers.  Sub-phase spans carry their
/// module as category; runPipeline's and replayTracePipeline's phase spans
/// are named after the module's call.  A detection phase belongs to the
/// baselines layer when it runs under the epoch replay.
Layer layerOf(const herd::TraceEvent &E, const SpanRecord *Parent) {
  for (size_t L = 0; L != NumLayers; ++L)
    if (E.Category == layerName(Layer(L)))
      return Layer(L);
  if (E.Name == "static-race" || E.Name == "plan")
    return Layer::Analysis;
  if (E.Name == "instrument" || E.Name == "fuse")
    return Layer::Instr;
  if (E.Name == "execute")
    return Layer::Runtime;
  if (E.Name == "replay" || E.Name == "detect-drain")
    return Parent && Parent->Name == ReplaySpans[2] ? Layer::Baselines
                                                    : Layer::Detect;
  return Layer::Herd; // format-reports and the pipelines' own glue
}

} // namespace

IterationSpans perfbench::collectSpans(const herd::MetricsRegistry &Reg,
                                       uint32_t Id, uint64_t StartNs,
                                       uint64_t EndNs) {
  std::vector<herd::TraceEvent> Events;
  for (herd::TraceEvent &E : Reg.traceEvents())
    if (E.Phase == 'X' && E.Tid == 0 && E.StartNanos >= StartNs)
      Events.push_back(std::move(E));
  // The timeline holds spans in end order; parents must come first.
  std::sort(Events.begin(), Events.end(),
            [](const herd::TraceEvent &A, const herd::TraceEvent &B) {
              return A.StartNanos != B.StartNanos ? A.StartNanos < B.StartNanos
                                                  : A.DurNanos > B.DurNanos;
            });
  IterationSpans It;
  It.Id = Id;
  It.StartNs = StartNs;
  It.EndNs = EndNs;
  std::vector<size_t> Open;
  for (const herd::TraceEvent &E : Events) {
    SpanRecord S;
    S.Name = E.Name;
    S.StartNs = E.StartNanos;
    S.EndNs = E.StartNanos + E.DurNanos;
    S.Check = E.Category == CheckCategory;
    while (!Open.empty() && It.Spans[Open.back()].EndNs <= S.StartNs)
      Open.pop_back();
    const SpanRecord *Parent = nullptr;
    if (!Open.empty()) {
      S.Parent = int32_t(Open.back());
      Parent = &It.Spans[Open.back()];
      if (S.EndNs > Parent->EndNs)
        It.NestingOk = false;
    }
    if (S.EndNs > EndNs)
      It.NestingOk = false;
    S.Owner = layerOf(E, Parent);
    It.Spans.push_back(std::move(S));
    Open.push_back(It.Spans.size() - 1);
  }
  return It;
}

uint64_t perfbench::totalNs(const IterationSpans &It, std::string_view Name,
                            std::string_view Parent) {
  uint64_t Total = 0;
  for (const SpanRecord &S : It.Spans)
    if (S.Name == Name &&
        (Parent.empty() ||
         (S.Parent >= 0 && It.Spans[size_t(S.Parent)].Name == Parent)))
      Total += S.EndNs - S.StartNs;
  return Total;
}

bool perfbench::writeSpansJson(const std::vector<IterationSpans> &Iters,
                               const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"iterations\": [");
  for (size_t I = 0; I != Iters.size(); ++I) {
    const IterationSpans &It = Iters[I];
    std::fprintf(F,
                 "%s\n {\"id\": %u, \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"spans\": [",
                 I ? "," : "", It.Id, (unsigned long long)It.StartNs,
                 (unsigned long long)It.EndNs);
    for (size_t J = 0; J != It.Spans.size(); ++J) {
      const SpanRecord &S = It.Spans[J];
      std::fprintf(F,
                   "%s\n  {\"layer\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %d, "
                   "\"iteration\": %u, \"check\": %s}",
                   J ? "," : "", layerName(S.Owner), S.Name.c_str(),
                   (unsigned long long)S.StartNs, (unsigned long long)S.EndNs,
                   S.Parent, It.Id, S.Check ? "true" : "false");
    }
    std::fprintf(F, "]}");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

IterationLedger perfbench::buildLedger(const IterationSpans &It,
                                       const LadderSplit &Split) {
  IterationLedger L;
  L.WallMs = double(It.EndNs - It.StartNs) / 1e6;
  if (!It.NestingOk)
    L.Problem = "spans do not nest";
  if (!(Split.RuntimeShare >= 0 && Split.RuntimeShare <= 1))
    L.Problem = "the ladder's Base rung is slower than its Full rung";

  const std::vector<SpanRecord> &Spans = It.Spans;
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  uint64_t TopNs = 0, CheckNs = 0;
  for (const SpanRecord &S : Spans) {
    uint64_t Ns = S.EndNs - S.StartNs;
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += Ns;
    else if (S.Check)
      CheckNs += Ns;
    else
      TopNs += Ns;
  }
  // Self time of each backend's replay spans, keyed by the backend's span.
  std::map<std::string, std::pair<Layer, double>> ReplaySelf;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    uint64_t Ns = S.EndNs - S.StartNs;
    if (S.Check || ChildNs[I] > Ns)
      continue;
    double Self = double(Ns - ChildNs[I]) / 1e6;
    const std::string *Parent =
        S.Parent >= 0 ? &Spans[size_t(S.Parent)].Name : nullptr;
    if (S.Name == "execute" && Parent && *Parent == FullRunSpan) {
      L.SelfMs[size_t(Layer::Runtime)] += Self * Split.RuntimeShare;
      L.SelfMs[size_t(Layer::Detect)] += Self * (1 - Split.RuntimeShare);
    } else if (S.Name == "replay" && Parent) {
      auto &Entry = ReplaySelf[*Parent];
      Entry.first = S.Owner;
      Entry.second += Self;
    } else {
      L.SelfMs[size_t(S.Owner)] += Self;
    }
  }
  double DecodeMs = Split.DecodeNsPerEvent * double(Split.ReplayEvents) / 1e6;
  for (const auto &[Backend, Entry] : ReplaySelf) {
    if (DecodeMs > Entry.second)
      L.Problem = Backend + ": decoding alone takes longer than the replay";
    double Charge = std::min(DecodeMs, Entry.second);
    L.SelfMs[size_t(Layer::Detect)] += Charge;
    L.SelfMs[size_t(Entry.first)] += Entry.second - Charge;
  }
  L.PipelineMs = L.WallMs - double(CheckNs) / 1e6;
  L.UnattributedMs = L.PipelineMs - double(TopNs) / 1e6;
  if (L.UnattributedMs > MaxUnattributedShare * L.PipelineMs)
    L.Problem = "unattributed time above the bound";
  return L;
}
