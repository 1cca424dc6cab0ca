//===- perfbench/src/Generators.cpp - Seeded MiniJ benchmark inputs -------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

#include <numeric>
#include <utility>

using namespace perfbench;

namespace {

/// SplitMix64: the benchmark's own generator, so the inputs never depend on
/// the library's RNG.
class SeedRng {
public:
  explicit SeedRng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [Lo, Hi].
  uint32_t range(uint32_t Lo, uint32_t Hi) {
    return Lo + uint32_t(next() % (uint64_t(Hi) - Lo + 1));
  }

private:
  uint64_t State;
};

std::string num(uint64_t V) { return std::to_string(V); }

// The classes program: data classes per thread class, reachable helper
// methods per data class, and loop trips of each worker thread.
constexpr uint32_t GroupsPerWorker = 8;
constexpr uint32_t HelpersPerGroup = 4;
constexpr uint32_t WorkerIterations = 6;

// The rotation program, shaped like bench_hotpath's refhot stream: worker
// threads, the lock pool, cell accesses per locked window (a multiple of 4),
// the cell fields the workers only read, and how often the others are
// written (one access in WritePeriod).
constexpr uint32_t RotationThreads = 8;
constexpr uint32_t RotationLocks = 16;
constexpr uint32_t RotationWindow = 64;
constexpr uint32_t ReadOnlyFields = 3;
constexpr uint32_t WritePeriod = 16;

} // namespace

GeneratedProgram
perfbench::generateClassesProgram(uint64_t Seed, uint32_t MinGroups) {
  SeedRng Rng(Seed ^ 0xC1A55E5ull);
  GeneratedProgram Out;
  std::string &S = Out.Source;
  const uint32_t Workers = (MinGroups + GroupsPerWorker - 1) / GroupsPerWorker;
  const uint32_t Groups = Workers * GroupsPerWorker;

  S += "// Generated benchmark input: data classes with one racy and two\n"
       "// lock-protected counters, driven by pairs of worker threads.\n";
  S += "class Tmp { var v: int; var w: int; }\n";
  S += "class L { var pad: int; }\n\n";

  for (uint32_t G = 0; G != Groups; ++G) {
    std::string Id = num(G);
    S += "class D" + Id + " {\n";
    S += "  var r" + Id + ": int;\n";
    S += "  var p" + Id + ": int;\n";
    S += "  var q" + Id + ": int;\n";
    S += "  synchronized def bumpP(k: int) { p" + Id + " = p" + Id +
         " + k; }\n";
    S += "  def bumpR(k: int) { r" + Id + " = r" + Id + " + this.h0(k, " +
         num(Rng.range(1, 9)) + "); }\n";
    // A chain of reachable helpers that allocate thread-local temporaries:
    // frontend and analysis load that escape analysis must prove local.
    for (uint32_t H = 0; H != HelpersPerGroup; ++H) {
      S += "  def h" + num(H) + "(a: int, b: int) : int {\n";
      S += "    var t: Tmp = new Tmp();\n";
      S += "    t.v = a * " + num(Rng.range(2, 97)) + " + b;\n";
      S += "    t.w = t.v % " + num(Rng.range(3, 31)) + ";\n";
      S += "    if (t.w == " + num(Rng.range(0, 2)) + ") {\n";
      S += "      t.v = t.v + " + num(Rng.range(1, 50)) + ";\n";
      S += "    } else {\n";
      S += "      t.v = t.v - t.w;\n";
      S += "    }\n";
      if (H + 1 != HelpersPerGroup)
        S += "    return this.h" + num(H + 1) + "(t.w, " +
             num(Rng.range(1, 9)) + ");\n";
      else
        S += "    return t.w;\n";
      S += "  }\n";
    }
    S += "}\n\n";
    Out.RacyFields.insert("r" + Id);
    Out.RaceFreeFields.insert("p" + Id);
    Out.RaceFreeFields.insert("q" + Id);
  }

  // A seeded assignment of data classes to thread classes.
  std::vector<uint32_t> Order(Groups);
  std::iota(Order.begin(), Order.end(), 0u);
  for (uint32_t I = Groups; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.range(0, I - 1)]);

  for (uint32_t W = 0; W != Workers; ++W) {
    S += "class W" + num(W) + " {\n  var lk: L;\n";
    for (uint32_t K = 0; K != GroupsPerWorker; ++K) {
      uint32_t G = Order[W * GroupsPerWorker + K];
      S += "  var d" + num(K) + ": D" + num(G) + ";\n";
    }
    S += "  def run() {\n    var i = 0;\n";
    S += "    while (i < " + num(WorkerIterations) + ") {\n";
    for (uint32_t K = 0; K != GroupsPerWorker; ++K) {
      std::string D = "d" + num(K);
      std::string Q = "q" + num(Order[W * GroupsPerWorker + K]);
      S += "      " + D + ".bumpR(i);\n";
      S += "      " + D + ".bumpP(1);\n";
      S += "      synchronized (lk) { " + D + "." + Q + " = " + D + "." + Q +
           " + 1; }\n";
    }
    S += "      i = i + 1;\n    }\n  }\n}\n\n";
  }

  S += "def main() {\n";
  for (uint32_t G = 0; G != Groups; ++G)
    S += "  var d" + num(G) + ": D" + num(G) + " = new D" + num(G) + "();\n";
  for (uint32_t W = 0; W != Workers; ++W) {
    std::string Id = num(W);
    S += "  var l" + Id + ": L = new L();\n";
    for (const char *Side : {"a", "b"}) {
      std::string T = Side + Id;
      S += "  var " + T + ": W" + Id + " = new W" + Id + "();\n";
      S += "  " + T + ".lk = l" + Id + ";\n";
      for (uint32_t K = 0; K != GroupsPerWorker; ++K)
        S += "  " + T + ".d" + num(K) + " = d" +
             num(Order[W * GroupsPerWorker + K]) + ";\n";
    }
  }
  for (uint32_t W = 0; W != Workers; ++W)
    S += "  start a" + num(W) + ";\n  start b" + num(W) + ";\n";
  for (uint32_t W = 0; W != Workers; ++W)
    S += "  join a" + num(W) + ";\n  join b" + num(W) + ";\n";
  S += "  var total = 0;\n";
  for (uint32_t G = 0; G != Groups; ++G)
    S += "  total = total + d" + num(G) + ".p" + num(G) + " + d" + num(G) +
         ".q" + num(G) + ";\n";
  S += "  print total;\n}\n";

  // Each data class is driven by two threads, each bumping p and q once
  // per iteration.
  Out.ExpectedOutput.push_back(int64_t(Groups) * 4 * WorkerIterations);
  return Out;
}

GeneratedProgram
perfbench::generateRotationProgram(uint64_t Seed, uint32_t Cells,
                                   uint32_t Rounds) {
  SeedRng Rng(Seed ^ 0x807A7E5ull);
  GeneratedProgram Out;
  std::string &S = Out.Source;
  // The strides are fixed so every seed yields the same sharing pattern
  // (and so the same detector regime); the seed picks where the stride
  // starts and which lock rotation each spawned worker follows.
  const uint32_t A = 97, B = 31, C = 13;
  const uint32_t Offset = Rng.range(0, Cells - 1);
  std::vector<uint32_t> Ids(RotationThreads);
  std::iota(Ids.begin(), Ids.end(), 1u);
  for (uint32_t I = RotationThreads; I > 1; --I)
    std::swap(Ids[I - 1], Ids[Rng.range(0, I - 1)]);

  S += "// Generated benchmark input: rotating, sometimes nested locks over a\n"
       "// striding window of cells.\n";
  S += "class Cell { var f0: int; var f1: int; var f2: int; var f3: int; }\n";
  S += "class Lk { var pad: int; }\n";
  S += "class Tally { var total: int; }\n\n";
  S += "class Worker {\n";
  S += "  var id: int;\n  var cells: Cell[];\n  var locks: Lk[];\n";
  S += "  var glock: Lk;\n  var tally: Tally;\n";
  S += "  def window(round: int) {\n    var i = 0;\n    var s = 0;\n";
  S += "    while (i < " + num(RotationWindow) + ") {\n";
  S += "      var base = " + num(Offset) + " + round * " + num(A) + " + id * " +
       num(B) + " + i * " + num(C) + ";\n";
  S += "      var c: Cell = cells[base % " + num(Cells) + "];\n";
  for (uint32_t F = 0; F != 4; ++F) {
    std::string Field = "c.f" + num(F);
    if (F != 0)
      S += "      c = cells[(base + " + num(F * C) + ") % " +
           num(Cells) + "];\n";
    if (F < ReadOnlyFields)
      S += "      s = s + " + Field + ";\n";
    else
      S += "      if ((i + " + num(F) + " + id + round) % " +
           num(WritePeriod) + " == 0) { " + Field +
           " = i; } else { s = s + " + Field + "; }\n";
  }
  S += "      i = i + 4;\n    }\n  }\n";
  S += "  def run() {\n    var round = 0;\n";
  S += "    while (round < " + num(Rounds) + ") {\n";
  // Nested pairs are always taken in ascending pool order, so the program
  // cannot deadlock whatever the schedule.
  S += "      var oi = (round + id) % " + num(RotationLocks) + ";\n";
  S += "      var ii = (round * 5 + id * 7 + 1) % " + num(RotationLocks) +
       ";\n";
  S += "      if ((round + id) % 3 == 0 && oi != ii) {\n";
  S += "        var lo = oi;\n        var hi = ii;\n";
  S += "        if (ii < oi) { lo = ii; hi = oi; }\n";
  S += "        synchronized (locks[lo]) { synchronized (locks[hi]) { "
       "this.window(round); } }\n";
  S += "      } else {\n";
  S += "        synchronized (locks[oi]) { this.window(round); }\n";
  S += "      }\n";
  S += "      synchronized (glock) { tally.total = tally.total + 1; }\n";
  S += "      round = round + 1;\n    }\n  }\n}\n\n";

  S += "def main() {\n";
  S += "  var cells: Cell[] = new Cell[" + num(Cells) + "];\n";
  S += "  var i = 0;\n";
  S += "  while (i < " + num(Cells) +
       ") { cells[i] = new Cell(); i = i + 1; }\n";
  S += "  var locks: Lk[] = new Lk[" + num(RotationLocks) + "];\n";
  S += "  i = 0;\n";
  S += "  while (i < " + num(RotationLocks) +
       ") { locks[i] = new Lk(); i = i + 1; }\n";
  S += "  var glock: Lk = new Lk();\n  var tally: Tally = new Tally();\n";
  for (uint32_t T = 1; T <= RotationThreads; ++T) {
    std::string W = "w" + num(T);
    S += "  var " + W + ": Worker = new Worker();\n";
    S += "  " + W + ".id = " + num(Ids[T - 1]) + ";\n";
    S += "  " + W + ".cells = cells;\n  " + W + ".locks = locks;\n";
    S += "  " + W + ".glock = glock;\n  " + W + ".tally = tally;\n";
  }
  for (uint32_t T = 1; T <= RotationThreads; ++T)
    S += "  start w" + num(T) + ";\n";
  for (uint32_t T = 1; T <= RotationThreads; ++T)
    S += "  join w" + num(T) + ";\n";
  S += "  print tally.total;\n}\n";

  for (uint32_t F = 0; F != 4; ++F)
    (F < ReadOnlyFields ? Out.RaceFreeFields : Out.RacyFields)
        .insert("f" + num(F));
  Out.RaceFreeFields.insert("total");
  Out.ExpectedOutput.push_back(int64_t(RotationThreads) * Rounds);
  return Out;
}
