//===- perfbench/src/Reference.cpp - The machine-speed reference ----------===//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <unordered_map>

using namespace perfbench;

namespace {

constexpr size_t TableWords = size_t(1) << 19; // 4 MiB
constexpr size_t CodeLen = 4096;
constexpr uint64_t Steps = 270'000;
constexpr size_t MapCap = 4096;
constexpr size_t TextBytes = 64 * 1024;
constexpr int MaxDepth = 12;

uint64_t splitmix(uint64_t &S) {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

struct Node {
  std::string Name;
  uint64_t Id = 0;
  std::vector<std::unique_ptr<Node>> Kids;
};

} // namespace

ReferenceKernel::ReferenceKernel() : Table(TableWords), Code(CodeLen) {
  // A fixed program and a fixed text, the same for every seed and every
  // workload.
  uint64_t S = 0x5eed;
  for (uint8_t &Op : Code)
    Op = uint8_t(splitmix(S) % 8);
  int Depth = 0;
  while (Text.size() < TextBytes) {
    uint64_t R = splitmix(S) % 10;
    if (R < 2 && Depth < MaxDepth) {
      Text += "( ";
      ++Depth;
    } else if (R < 4 && Depth > 0) {
      Text += ") ";
      --Depth;
    } else {
      Text += "id" + std::to_string(splitmix(S) % 700) + " ";
    }
  }
  for (; Depth > 0; --Depth)
    Text += ") ";
  Expected = run();
}

uint64_t ReferenceKernel::run() { return interpret() ^ compile(); }

uint64_t ReferenceKernel::interpret() {
  for (size_t I = 0; I != TableWords; ++I)
    Table[I] = I * 0x9e3779b97f4a7c15ull;
  std::unordered_map<uint64_t, uint64_t> Map;
  Map.reserve(MapCap);
  uint64_t Acc = 1, Idx = 0;
  size_t Pc = 0;
  const uint64_t Mask = TableWords - 1;
  for (uint64_t Step = 0; Step != Steps; ++Step) {
    switch (Code[Pc]) {
    case 0:
      Acc += Table[Idx];
      break;
    case 1:
      Table[Idx] ^= Acc;
      break;
    case 2:
      Idx = (Idx * 0x2545f4914f6cdd1dull + Acc) & Mask;
      break;
    case 3:
      if (Acc & 1)
        Pc = (Pc + 3) % CodeLen;
      break;
    case 4: {
      uint64_t &V = Map[Acc & 0xffff];
      V += Step;
      if (Map.size() >= MapCap)
        Map.clear();
      break;
    }
    case 5:
      Acc = rotl(Acc, 7) * 0x9e3779b97f4a7c15ull;
      break;
    case 6:
      Idx = (Idx + (Acc >> 40)) & Mask;
      break;
    default: {
      auto It = Map.find(Acc & 0xffff);
      Acc ^= It == Map.end() ? Step : It->second;
      break;
    }
    }
    Pc = (Pc + 1) % CodeLen;
  }
  return Acc ^ Map.size() ^ Table[Idx];
}

uint64_t ReferenceKernel::compile() {
  // Tokenize, intern the identifiers, build the nested tree, walk it, and
  // sort the tokens: a frontend's mix of small allocations, string hashing
  // and pointer chasing.
  std::vector<std::string> Tokens;
  for (size_t I = 0; I < Text.size();) {
    size_t End = Text.find(' ', I);
    if (End == std::string::npos)
      End = Text.size();
    if (End > I)
      Tokens.emplace_back(Text, I, End - I);
    I = End + 1;
  }
  std::unordered_map<std::string, uint64_t> Interned;
  auto Root = std::make_unique<Node>();
  std::vector<Node *> Open{Root.get()};
  for (const std::string &T : Tokens) {
    if (T == "(") {
      Open.back()->Kids.push_back(std::make_unique<Node>());
      Open.push_back(Open.back()->Kids.back().get());
    } else if (T == ")") {
      Open.pop_back();
    } else {
      auto Leaf = std::make_unique<Node>();
      Leaf->Name = T;
      Leaf->Id = Interned.emplace(T, Interned.size()).first->second;
      Open.back()->Kids.push_back(std::move(Leaf));
    }
  }
  uint64_t Sum = 0;
  std::vector<const Node *> Work{Root.get()};
  while (!Work.empty()) {
    const Node *N = Work.back();
    Work.pop_back();
    Sum = Sum * 31 + N->Id + N->Name.size();
    for (const std::unique_ptr<Node> &K : N->Kids)
      Work.push_back(K.get());
  }
  std::sort(Tokens.begin(), Tokens.end());
  return Sum ^ Tokens.size() ^ Interned.size();
}
