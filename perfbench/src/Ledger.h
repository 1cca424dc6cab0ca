//===- perfbench/src/Ledger.h - Spans and the per-layer ledger ---*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's spans and the ledger built from them.  A traced
/// iteration is a plain iteration with a MetricsRegistry attached: HERD's
/// own phase spans (runPipeline, replayTracePipeline, compileMiniJ,
/// StaticRaceAnalysis::run) land on the registry's timeline next to the
/// harness's spans around each public call.  collectSpans() turns the
/// pipeline thread's spans into records with a layer, start, end, parent
/// span and iteration id; they stay in memory until the run ends.
///
/// The ledger turns one iteration's spans into per-layer self times: a
/// span's self time is its duration minus its children's.  The harness's
/// own checks are spans too and are taken out of the iteration; what is
/// left is the pipeline time.  The part of it no top-level span covers is
/// unattributed, so the layer self times plus the unattributed time add up
/// to the pipeline time by construction.  What can go wrong — and makes
/// the ledger fail — is spans that do not nest, a ladder split that does
/// not fit the span it divides, and unattributed time above
/// MaxUnattributedShare of the pipeline time.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_PERFBENCH_LEDGER_H
#define HERD_PERFBENCH_LEDGER_H

#include "support/Metrics.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The modules under src/, in pipeline order.  Every span is charged to
/// the module whose code it covers.
enum class Layer : uint8_t {
  Frontend,
  Analysis,
  Instr,
  Runtime,
  Detect,
  Baselines,
  Herd,
  Workloads,
};
inline constexpr size_t NumLayers = 8;

const char *layerName(Layer L);

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Span category of the harness's correctness checks: recorded so the
/// ledger can take them out of the pipeline time.
inline constexpr std::string_view CheckCategory = "check";

/// The harness's spans around the calls whose children the ledger splits:
/// the `execute` span of a Full run is shared by runtime and detect, and
/// each backend's `replay` span by decoding and the backend.
inline constexpr std::string_view FullRunSpan = "runPipeline(Full)";
inline constexpr std::string_view BaseRunSpan = "runPipeline(Base)";
inline constexpr std::string_view ReplaySpans[] = {
    "replayTracePipeline(serial)", "replayTracePipeline(sharded2)",
    "replayTracePipeline(epoch)"};

/// Fraction of an iteration's pipeline time that may go uncovered by any
/// span before the ledger fails.
inline constexpr double MaxUnattributedShare = 0.10;

/// One pipeline-thread span of a traced iteration.
struct SpanRecord {
  std::string Name;
  Layer Owner = Layer::Herd;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< index into the iteration's spans; -1 = top level
  bool Check = false; ///< a harness check, outside the pipeline time
};

/// One traced iteration: its bounds and its spans in start order.
struct IterationSpans {
  uint32_t Id = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  std::vector<SpanRecord> Spans;
  bool NestingOk = true; ///< children inside parents, siblings disjoint
};

/// Collects the pipeline-thread spans \p Reg recorded between \p StartNs
/// and \p EndNs (shard-worker rows run concurrently and are left out).
IterationSpans collectSpans(const herd::MetricsRegistry &Reg, uint32_t Id,
                            uint64_t StartNs, uint64_t EndNs);

/// Total duration (ns) of the spans named \p Name; with \p Parent, only of
/// those whose parent span is named \p Parent.
uint64_t totalNs(const IterationSpans &It, std::string_view Name,
                 std::string_view Parent = {});

/// Writes every iteration and span as one JSON document; false on I/O
/// failure.
bool writeSpansJson(const std::vector<IterationSpans> &Iters,
                    const std::string &Path);

/// How the ledger divides the two calls inside which layers interleave;
/// both figures come from the interpretation ladder.
struct LadderSplit {
  /// The share of a detector-attached `execute` span that is
  /// interpretation and scheduling (runtime); the rest is hook delivery
  /// and detection (detect).
  double RuntimeShare = 1;
  /// Trace decoding cost: each backend's `replay` spans charge this much
  /// per event to detect, the rest to the backend's own layer.
  double DecodeNsPerEvent = 0;
  /// Events each backend replays in one iteration.
  uint64_t ReplayEvents = 0;
};

/// One traced iteration's ledger.
struct IterationLedger {
  double WallMs = 0;     ///< the whole iteration
  double PipelineMs = 0; ///< the iteration minus the harness's checks
  std::array<double, NumLayers> SelfMs{};
  double UnattributedMs = 0;
  std::string Problem; ///< why the ledger fails; empty when it holds

  bool holds() const { return Problem.empty(); }
};

IterationLedger buildLedger(const IterationSpans &It, const LadderSplit &S);

} // namespace perfbench

#endif // HERD_PERFBENCH_LEDGER_H
