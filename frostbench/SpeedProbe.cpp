//===- SpeedProbe.cpp - The machine's speed probe -------------------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speed probe is a fixed piece of work in the benchmark's own code,
/// calling nothing of frost's: strings kept in an ordered map, expression
/// trees built and evaluated through virtual calls, instruction-like lines
/// printed and split into tokens, and a pointer chase through 128 KiB. These
/// are the kinds of work frost does per function: small allocations,
/// pointer-heavy IR, printing and parsing.
///
/// On a machine shared with other tenants, speed moves by up to 1.7x for a
/// minute at a time. A run too short to outlast such a phase cannot remove
/// it by repeating work, but it can see it: the probe's best time in the
/// run rises with it. The timing metrics are scaled by the probe's best time
/// against its reference time (README.md, "Timing").
///
/// The probe must not depend on what frost did before it, or a change to
/// frost could move the reference: in a process whose heap daemon-mixed's
/// traffic had left behind, a probe allocating through malloc ran 16%
/// slower than in a fresh process. So `frost-bench run` runs each probe in
/// a new `frost-bench probe` process, which also keeps the probe's memory
/// out of the peak RSS the harness reports. The probe allocates nothing
/// through the heap: its memory is one buffer, touched before the timed
/// part, that every round of every part uses again from its beginning, so
/// no page is first touched while the probe is timed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstddef>
#include <map>
#include <memory_resource>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

using namespace frostbench;

namespace {

/// Keeps the compiler from dropping the probe's work.
volatile uint64_t Sink;

/// The probe's memory, reused from its beginning by every round.
constexpr size_t ArenaBytes = size_t(1) << 20;

std::byte *arena() {
  static std::vector<std::byte> Buffer(ArenaBytes); // Zeroed: touched once.
  return Buffer.data();
}

/// A round's allocator: hands out the arena from its beginning and throws
/// std::bad_alloc, rather than fall back on the heap, if a round outgrows it.
struct Round {
  std::pmr::monotonic_buffer_resource Pool{arena(), ArenaBytes,
                                           std::pmr::null_memory_resource()};
};

using String = std::pmr::string;

uint64_t nextRandom(uint64_t &X) {
  X = X * 6364136223846793005ull + 1442695040888963407ull;
  return X >> 33;
}

/// Appends the decimal digits of \p N to \p Out.
void appendNumber(String &Out, uint64_t N) {
  char Digits[20];
  int Len = 0;
  do
    Digits[Len++] = char('0' + N % 10);
  while (N /= 10);
  while (Len)
    Out += Digits[--Len];
}

/// Names made from numbers, counted in an ordered map, then walked.
void stringsInMap() {
  uint64_t S = 0;
  for (unsigned R = 0; R != 15; ++R) {
    Round A;
    std::pmr::map<String, unsigned> Names(&A.Pool);
    uint64_t X = 12345 + R;
    for (unsigned I = 0; I != 2000; ++I) {
      String Name("%v", &A.Pool);
      appendNumber(Name, nextRandom(X) >> 7);
      Names[Name] += I;
    }
    for (const auto &[Name, N] : Names)
      S += Name.size() + N;
  }
  Sink = S;
}

struct Node {
  virtual uint64_t eval() const = 0;

protected:
  ~Node() = default; // Freed with the arena, never one by one.
};

struct Leaf final : Node {
  uint64_t V;
  explicit Leaf(uint64_t V) : V(V) {}
  uint64_t eval() const override { return V; }
};

struct Binary final : Node {
  const Node *L, *R;
  bool IsMul;
  Binary(const Node *L, const Node *R, bool IsMul)
      : L(L), R(R), IsMul(IsMul) {}
  uint64_t eval() const override {
    return IsMul ? L->eval() * R->eval() + 1 : L->eval() + R->eval();
  }
};

const Node *buildTree(std::pmr::polymorphic_allocator<> &Alloc, uint64_t &X,
                      int Depth) {
  uint64_t Pick = nextRandom(X);
  if (Depth == 0 || (Pick >> 27) < 3)
    return Alloc.new_object<Leaf>(Pick);
  bool IsMul = Pick & 1;
  const Node *L = buildTree(Alloc, X, Depth - 1);
  return Alloc.new_object<Binary>(L, buildTree(Alloc, X, Depth - 1), IsMul);
}

/// Expression trees built node by node and evaluated through virtual calls.
void expressionTrees() {
  uint64_t S = 0, X = 7;
  for (unsigned R = 0; R != 160; ++R) {
    Round A;
    std::pmr::polymorphic_allocator<> Alloc(&A.Pool);
    S += buildTree(Alloc, X, 12)->eval();
  }
  Sink = S;
}

/// Instruction-like lines printed into a string, then split into tokens
/// that are looked up by name.
void printAndTokenize() {
  uint64_t S = 0;
  for (unsigned R = 0; R != 30; ++R) {
    Round A;
    String Out(&A.Pool);
    std::pmr::unordered_map<String, unsigned> Names(&A.Pool);
    for (unsigned I = 0; I != 600; ++I) {
      String Name("%t", &A.Pool);
      appendNumber(Name, (I * 2654435761u + R) % 997);
      unsigned Id = Names.try_emplace(Name, I).first->second;
      Out += "  ";
      Out += Name;
      Out += " = add i8 ";
      appendNumber(Out, Id);
      Out += ", ";
      appendNumber(Out, I);
      Out += '\n';
    }
    String Tok(&A.Pool);
    for (char C : Out) {
      if (C != ' ' && C != '\n' && C != ',') {
        Tok += C;
        continue;
      }
      if (Tok.empty())
        continue;
      auto It = Names.find(Tok);
      S += It == Names.end() ? uint64_t(Tok[0]) : It->second;
      Tok.clear();
    }
  }
  Sink = S;
}

/// A random cycle through 128 KiB: each step of a walk around it misses
/// the first-level cache and hits the second.
const std::vector<uint32_t> &cycle() {
  static const std::vector<uint32_t> Next = [] {
    const size_t N = size_t(1) << 15;
    std::vector<uint32_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    std::mt19937_64 Rng(2);
    std::shuffle(Order.begin() + 1, Order.end(), Rng);
    std::vector<uint32_t> Next(N);
    for (size_t I = 0; I != N; ++I)
      Next[Order[I]] = Order[(I + 1) % N];
    return Next;
  }();
  return Next;
}

void pointerChase(const std::vector<uint32_t> &Next) {
  uint32_t P = 0;
  for (unsigned I = 0; I != (1u << 20); ++I)
    P = Next[P];
  Sink = P;
}

} // namespace

double frostbench::speedProbeSeconds() {
  arena();
  const std::vector<uint32_t> &Next = cycle();
  double T0 = nowSeconds();
  stringsInMap();
  expressionTrees();
  printAndTokenize();
  pointerChase(Next);
  return nowSeconds() - T0;
}
