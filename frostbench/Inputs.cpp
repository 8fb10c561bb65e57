//===- Inputs.cpp - Workload configurations and seeded inputs -------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fuzz/Enumerate.h"
#include "fuzz/RandomProgram.h"
#include "ir/BasicBlock.h"
#include "ir/Constants.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "service/Protocol.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <set>

using namespace frost;
using namespace frostbench;

namespace {

// Sizes of the generated parts. README.md gives the resulting make-up.
constexpr unsigned RandomFunctions = 4;   // file-mixed random programs.
constexpr unsigned MemUndefStores = 4;    // memory slice: stores undef.
constexpr unsigned MemOthers = 28;        // memory slice: the rest.
constexpr unsigned NovelFunctions = 12;   // daemon-mixed novel programs.

/// Random programs cost from 0.6x to 1.6x the mean to verify, so a run's
/// cost would follow the benchmark seed more than the program under test.
/// Their generator seeds are therefore fixed: file-mixed's programs are
/// rp0..rp3 from seeds 1..4, daemon-mixed's novel ones nv0..nv11 from
/// seeds 1001..1012. The benchmark seed draws the memory slice and orders
/// the module and the daemon traffic.
constexpr uint64_t RandomSeed = 1, NovelSeed = 1001;

std::string randomPrograms(uint64_t FirstSeed, unsigned Count,
                           const char *Prefix) {
  IRContext Ctx;
  Module M(Ctx, "random");
  fuzz::RandomProgramOptions RP;
  RP.Width = 8;
  std::string Out;
  for (unsigned K = 0; K != Count; ++K) {
    RP.Seed = FirstSeed + K;
    Function *F = fuzz::generateRandomFunction(
        M, Prefix + std::to_string(K), RP);
    Out += printFunction(*F) + "\n";
  }
  return Out;
}

/// Every function of \p Opts' space (capped at MaxFunctions), printed
/// standalone and renamed \p Prefix<index> so that they can share a module.
std::vector<std::string> enumerateTexts(const tv::CampaignOptions &Opts,
                                        const char *Prefix) {
  IRContext Ctx;
  Module M(Ctx, "space");
  std::vector<std::string> Texts;
  fuzz::enumerateFunctions(M, Opts.Enum, [&](Function &F) {
    if (Texts.size() >= Opts.MaxFunctions)
      return false;
    F.setName(Prefix + std::to_string(Texts.size()));
    Texts.push_back(printFunction(F));
    return true;
  });
  return Texts;
}

/// \p Count distinct elements of \p Pool drawn by \p Rng, in pool order.
std::vector<size_t> sample(size_t PoolSize, unsigned Count,
                           std::mt19937_64 &Rng) {
  std::vector<size_t> Idx(PoolSize);
  for (size_t I = 0; I != PoolSize; ++I)
    Idx[I] = I;
  std::shuffle(Idx.begin(), Idx.end(), Rng);
  Idx.resize(std::min<size_t>(Count, PoolSize));
  std::sort(Idx.begin(), Idx.end());
  return Idx;
}

/// The exhaustive memory space of docs/memory.md (and bench_tv's memory
/// sweep): 2-instruction i2 functions over one byte of global memory,
/// undef and poison operands included.
tv::CampaignOptions memorySpace() {
  tv::CampaignOptions O;
  O.Enum.NumInsts = 2;
  O.Enum.NumArgs = 1;
  O.Enum.Width = 2;
  O.Enum.WithPoison = true;
  O.Enum.WithUndef = true;
  O.Enum.WithMemory = true;
  O.Enum.MemBytes = 1;
  O.Enum.Opcodes = {};
  O.MaxFunctions = 1u << 20;
  return O;
}

// Section 3 of the paper, as the legacy pipeline miscompiles it: the
// select-to-arithmetic folds of Section 3.4 (InstCombine) and loop
// unswitching on a possibly-poison condition (Section 3.3).
const char *HandWrittenText = R"(define i1 @sel_or(i1 %c, i1 %x) {
entry:
  %s = select i1 %c, i1 true, i1 %x
  ret i1 %s
}

define i1 @sel_and(i1 %c, i1 %x) {
entry:
  %s = select i1 %c, i1 %x, i1 false
  ret i1 %s
}

define i2 @unswitch(i2 %n, i1 %c) {
entry:
  br label %header

header:
  %i = phi i2 [ 0, %entry ], [ %inext, %latch ]
  %acc = phi i2 [ 0, %entry ], [ %accnext, %latch ]
  %cond = icmp ult i2 %i, %n
  br i1 %cond, label %body, label %exit

body:
  br i1 %c, label %then, label %else

then:
  %t = add i2 %acc, 2
  br label %latch

else:
  %e = add i2 %acc, 1
  br label %latch

latch:
  %accnext = phi i2 [ %t, %then ], [ %e, %else ]
  %inext = add i2 %i, 1
  br label %header

exit:
  ret i2 %acc
}
)";

} // namespace

const std::vector<Config> &frostbench::fileMixedConfigs() {
  // Legacy DSE's unsoundness (deleting `store undef` as a no-op) shows only
  // where undef and poison differ, so it is checked under legacy-gvn
  // semantics, and on the memory slice alone: undef inputs make the
  // 8-bit random programs exceed the checker's budgets (inconclusive
  // after ~40 s instead of 0.2 s).
  static const std::vector<Config> Configs = {
      {"ir-proposed", tv::CampaignKind::IRPipeline, PipelineMode::Proposed,
       "proposed", "", false},
      {"ir-legacy", tv::CampaignKind::IRPipeline, PipelineMode::Legacy,
       "proposed", "", false},
      {"dse-legacy", tv::CampaignKind::IRPipeline, PipelineMode::Legacy,
       "legacy-gvn", "dse", true},
      {"e2e", tv::CampaignKind::EndToEnd, PipelineMode::Proposed, "proposed",
       "", false},
      {"sanitizer", tv::CampaignKind::Sanitizer, PipelineMode::Proposed,
       "proposed", "", false},
  };
  return Configs;
}

const std::vector<Config> &frostbench::daemonConfigs() {
  static const std::vector<Config> Configs = {fileMixedConfigs()[0],
                                              fileMixedConfigs()[3]};
  return Configs;
}

const std::vector<HandWritten> &frostbench::handWrittenFunctions() {
  static const std::vector<HandWritten> Fns = {
      {"sel_or", "instcombine<legacy>"},
      {"sel_and", "instcombine<legacy>"},
      {"unswitch", "loop-unswitch<legacy>"},
  };
  return Fns;
}

tv::CampaignOptions frostbench::exhaustiveSpace(unsigned Width) {
  // The bench_tv sweep space (BENCH_TV.json "campaign"), at frost-tv's
  // defaults otherwise: flags, poison operands and poison inputs on,
  // freeze and select shapes included.
  tv::CampaignOptions O;
  O.Source = tv::CampaignSource::Exhaustive;
  O.Enum.NumInsts = 2;
  O.Enum.NumArgs = 3;
  O.Enum.Width = Width;
  O.Enum.WithPoison = true;
  O.Enum.WithFlags = true;
  O.Enum.Opcodes = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                    Opcode::And, Opcode::Xor, Opcode::Shl};
  O.Jobs = 1;
  return O;
}

unsigned frostbench::exhaustiveSampleSize(unsigned Width) {
  return Width == 1 ? 2000 : 500;
}

tv::CampaignOptions frostbench::exhaustiveOptions(unsigned Width,
                                                  const std::string &Text) {
  // The sample is checked as frost-tv --file checks a module, with the
  // space's settings: final memory not compared, the scalar engine at i1
  // and the bit-sliced one at i4.
  tv::CampaignOptions O;
  O.Source = tv::CampaignSource::File;
  O.FileText = Text;
  O.FilePath = "<exhaustive-sample>";
  O.TV.CompareMemory = false;
  O.TV.Engine = Width == 1 ? tv::TVEngine::Scalar : tv::TVEngine::BitSliced;
  O.Jobs = 1;
  return O;
}

tv::CampaignOptions frostbench::fileOptions(const Config &C,
                                            const std::string &Text) {
  // Field for field what svc::Server::handleRequest builds for a request.
  tv::CampaignOptions O;
  O.Source = tv::CampaignSource::File;
  O.FileText = Text;
  O.FilePath = "<file-mixed>";
  O.Kind = C.Kind;
  O.Pipeline = C.Pipeline;
  O.Passes = C.Passes;
  if (!svc::semanticsFromName(C.Semantics, O.Semantics)) {
    std::fprintf(stderr, "frost-bench: unknown semantics %s\n", C.Semantics);
    std::exit(2);
  }
  O.TV.CompareMemory = true;
  O.TV.EnumerateMemory = true;
  O.Jobs = 1;
  return O;
}

std::string frostbench::generateFileMixed(uint64_t Seed, MixedCounts *Counts) {
  std::string Out = randomPrograms(RandomSeed, RandomFunctions, "rp");

  // The memory slice: a seeded draw from the exhaustive memory space,
  // stratified so that every slice holds functions whose only store to
  // global memory stores undef (the store legacy DSE deletes as a no-op)
  // as well as functions that do not.
  std::vector<std::string> Space = enumerateTexts(memorySpace(), "ms");
  std::vector<std::string> UndefStores, Others;
  for (std::string &T : Space)
    (globalStores(T).onlyUndef() ? UndefStores : Others).push_back(std::move(T));
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::string> Slice;
  for (size_t I : sample(UndefStores.size(), MemUndefStores, Rng))
    Slice.push_back(UndefStores[I]);
  for (size_t I : sample(Others.size(), MemOthers, Rng))
    Slice.push_back(Others[I]);
  std::shuffle(Slice.begin(), Slice.end(), Rng);
  for (const std::string &T : Slice)
    Out += T + "\n";

  Out += HandWrittenText;
  if (Counts) {
    Counts->Random = RandomFunctions;
    Counts->MemUndefStore = std::min<unsigned>(MemUndefStores, UndefStores.size());
    Counts->MemOther = std::min<unsigned>(MemOthers, Others.size());
    Counts->HandWritten = handWrittenFunctions().size();
  }
  return Out;
}

std::string frostbench::generateNovel() {
  return randomPrograms(NovelSeed, NovelFunctions, "nv");
}

const char *frostbench::costClassName(unsigned Class) {
  static const char *Names[NumCostClasses] = {"plain", "select", "freeze",
                                              "freeze-of-poison"};
  return Names[Class];
}

unsigned frostbench::costClass(const Function &F) {
  bool Select = false;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB) {
      if (I->getOpcode() == Opcode::Select)
        Select = true;
      if (I->getOpcode() != Opcode::Freeze)
        continue;
      // Poison propagates through every binary operator of the space, so
      // an operand computed from a poison literal is poison on every input.
      Value *V = I->getOperand(0);
      bool PoisonFed = isa<PoisonValue>(V);
      if (auto *Def = dyn_cast<Instruction>(V))
        for (unsigned K = 0; K != Def->getNumOperands(); ++K)
          PoisonFed |= isa<PoisonValue>(Def->getOperand(K));
      return PoisonFed ? 3 : 2;
    }
  return Select ? 1 : 0;
}

std::string frostbench::generateExhaustiveSample(unsigned Width,
                                                 uint64_t Seed,
                                                 SampleCounts *Counts) {
  // Two passes over the whole space: one to class every function, one to
  // print the drawn ones. A prefix of the space would not do: the
  // enumerator puts the first instruction in its outer loop, so any prefix
  // holds one or two first instructions only.
  const tv::CampaignOptions Space = exhaustiveSpace(Width);
  std::vector<std::vector<size_t>> Strata(NumCostClasses);
  uint64_t Size = 0;
  {
    IRContext Ctx;
    Module M(Ctx, "space");
    fuzz::enumerateFunctions(M, Space.Enum, [&](Function &F) {
      Strata[costClass(F)].push_back(Size++);
      return true;
    });
  }
  // Proportional allocation, the remainders going to the largest
  // fractions: every seed's sample holds the same number of functions of
  // each class. Drawn uniformly, a 500-function sample would hold
  // 2.1 +- 1.4 of the space's 1191 freezes of a poison-fed value, each
  // costing ~300 plain functions at i4, and its time would follow the seed.
  const unsigned Count = exhaustiveSampleSize(Width);
  std::vector<unsigned> Quota(NumCostClasses);
  std::vector<std::pair<double, unsigned>> Remainders;
  unsigned Allotted = 0;
  for (unsigned C = 0; C != NumCostClasses; ++C) {
    double Exact = double(Count) * double(Strata[C].size()) / double(Size);
    Quota[C] = unsigned(Exact);
    Allotted += Quota[C];
    Remainders.push_back({Quota[C] - Exact, C});
  }
  std::sort(Remainders.begin(), Remainders.end());
  for (unsigned I = 0; Allotted != Count; ++I, ++Allotted)
    ++Quota[Remainders[I].second];

  // Within a class, the draw is systematic: evenly spaced through the
  // class in enumeration order, from a seeded offset. Functions with a
  // freeze are the exception: one costs from 1 ms to 180 ms at i4 (the
  // share of its input tuples that fall back to the scalar engine), so
  // their picks are the same for every seed, evenly spaced from the middle
  // of the first stride.
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 2);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  std::vector<size_t> Drawn;
  for (unsigned C = 0; C != NumCostClasses; ++C) {
    double Offset = C >= 2 ? 0.5 : Unit(Rng);
    double Stride = double(Strata[C].size()) / double(std::max(Quota[C], 1u));
    for (unsigned J = 0; J != Quota[C]; ++J)
      Drawn.push_back(Strata[C][size_t((Offset + J) * Stride)]);
  }
  std::sort(Drawn.begin(), Drawn.end());

  std::string Out;
  IRContext Ctx;
  Module M(Ctx, "space");
  uint64_t Index = 0;
  size_t Next = 0;
  std::map<std::string, unsigned> WithOpcode;
  fuzz::enumerateFunctions(M, Space.Enum, [&](Function &F) {
    if (Next == Drawn.size())
      return false;
    if (Index++ != Drawn[Next])
      return true;
    F.setName("x" + std::to_string(Next++));
    Out += printFunction(F) + "\n";
    std::set<std::string> Seen;
    for (BasicBlock *BB : F)
      for (Instruction *I : *BB)
        if (I->getOpcode() != Opcode::Ret)
          Seen.insert(I->getOpcodeName());
    for (const std::string &Name : Seen)
      ++WithOpcode[Name];
    return true;
  });
  if (Counts) {
    Counts->SpaceSize = Size;
    for (unsigned C = 0; C != NumCostClasses; ++C) {
      Counts->InSpace[C] = Strata[C].size();
      Counts->InSample[C] = Quota[C];
    }
    Counts->WithOpcode = std::move(WithOpcode);
  }
  return Out;
}

GlobalStores frostbench::globalStores(const std::string &Fn) {
  GlobalStores G;
  size_t Pos = 0;
  while ((Pos = Fn.find("store ", Pos)) != std::string::npos) {
    size_t End = Fn.find('\n', Pos);
    std::string Line = Fn.substr(Pos, End - Pos);
    Pos = End;
    if (Line.find("* @") == std::string::npos)
      continue; // A store to the function's own alloca cell.
    ++G.Count;
    G.LastUndef = Line.find(" undef,") != std::string::npos;
  }
  return G;
}

std::string frostbench::memorySlice(const std::string &Module) {
  std::vector<std::string> Names = functionNames(Module);
  std::vector<std::string> Texts = standaloneFunctions(Module);
  std::string Out;
  for (size_t I = 0; I != Names.size(); ++I)
    if (Names[I].rfind("ms", 0) == 0)
      Out += Texts[I] + "\n";
  return Out;
}

std::vector<std::string>
frostbench::standaloneFunctions(const std::string &Text) {
  IRContext Ctx;
  Module M(Ctx, "inputs");
  ParseResult P = parseModule(Text, M);
  if (!P) {
    std::fprintf(stderr, "frost-bench: input does not parse: %s\n",
                 P.Error.c_str());
    std::exit(2);
  }
  std::vector<std::string> Out;
  for (Function *F : M.functions())
    if (!F->isDeclaration())
      Out.push_back(printFunction(*F));
  return Out;
}

std::vector<std::string> frostbench::functionNames(const std::string &Text) {
  IRContext Ctx;
  Module M(Ctx, "inputs");
  std::vector<std::string> Out;
  if (!parseModule(Text, M))
    return Out;
  for (Function *F : M.functions())
    if (!F->isDeclaration())
      Out.push_back(F->getName());
  return Out;
}
