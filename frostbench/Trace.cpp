//===- Trace.cpp - Span tracer and the traced campaign ---------------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tracedCampaign() does the work of tv::runCampaign at Jobs = 1, step for
/// step as src/tv/Campaign.cpp does it (runCampaign, processShard,
/// checkOne, blameFirstFailingPass, bookResult), but through the layers'
/// public functions and with a span around each call. The spans live here,
/// not in the program, so tracing costs nothing when it is off. Its counts
/// are checked against runCampaign's on every traced run, which is what
/// keeps this copy honest when the program changes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Codegen.h"
#include "fuzz/Enumerate.h"
#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "opt/AnalysisManager.h"
#include "opt/Pass.h"
#include "opt/Passes.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "tv/EndToEnd.h"
#include "tv/Sanitizer.h"

#include <cstdio>
#include <memory>

using namespace frost;
using namespace frostbench;

int Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.Start = nowSeconds();
  Spans.push_back(S);
  Open = int(Spans.size()) - 1;
  return Open;
}

void Tracer::end(int Id) {
  Spans[Id].End = nowSeconds();
  Open = Spans[Id].Parent;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

void Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  std::fprintf(F, "id\tparent\tname\tstart_s\tend_s\n");
  for (size_t I = 0; I != Spans.size(); ++I)
    std::fprintf(F, "%zu\t%d\t%s\t%.9f\t%.9f\n", I, Spans[I].Parent,
                 Spans[I].Name, Spans[I].Start - T0, Spans[I].End - T0);
  std::fclose(F);
}

Counts Counts::of(const tv::CampaignResult &R) {
  Counts C;
  C.Functions = R.Functions;
  C.Changed = R.Changed;
  C.Valid = R.Valid;
  C.Invalid = R.Invalid;
  C.Inconclusive = R.Inconclusive;
  C.InputsChecked = R.InputsChecked;
  C.Hits = R.CacheHits;
  C.Misses = R.CacheMisses;
  return C;
}

std::string Counts::str() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "functions=%llu changed=%llu valid=%llu invalid=%llu "
                "inconclusive=%llu inputs=%llu hits=%llu misses=%llu",
                (unsigned long long)Functions, (unsigned long long)Changed,
                (unsigned long long)Valid, (unsigned long long)Invalid,
                (unsigned long long)Inconclusive,
                (unsigned long long)InputsChecked, (unsigned long long)Hits,
                (unsigned long long)Misses);
  return Buf;
}

namespace {

struct Campaign {
  const tv::CampaignOptions &Opts;
  Tracer &T;
  tv::CounterexampleCache Dedup;
  uint64_t ConfigFP;
  Counts C;
  uint64_t CheckedInputs = 0;

  Campaign(const tv::CampaignOptions &Opts, Tracer &T)
      : Opts(Opts), T(T), Dedup(Opts.DedupCapacity),
        ConfigFP(tv::campaignConfigFingerprint(Opts)) {}

  void buildPipeline(PassManager &PM) {
    if (Opts.Passes.empty())
      buildStandardPipeline(PM, Opts.Pipeline);
    else
      parsePassPipeline(PM, Opts.Passes, Opts.Pipeline, nullptr);
  }

  std::string blame(Module &M, Function &Orig) {
    ScopedSpan S(&T, "tv.blame");
    Function *Replay = cloneFunction(Orig, M, Orig.getName() + ".blame");
    PassManager PM(/*VerifyAfterEachPass=*/false);
    buildPipeline(PM);
    std::string Blamed;
    PM.instrumentation().onAfterPass(
        [&](const Pass &P, const Function &,
            const PassInstrumentation::AfterPassInfo &Info) {
          if (!Blamed.empty() || !Info.Changed)
            return;
          tv::TVResult TR =
              tv::checkRefinement(Orig, *Replay, Opts.Semantics, Opts.TV);
          if (!TR.valid())
            Blamed = P.pipelineText();
        });
    PM.run(*Replay);
    M.eraseFunction(Replay);
    return Blamed;
  }

  void book(const tv::TVResult &TR, uint64_t Index) {
    ScopedSpan S(&T, "tv.book");
    ++C.Functions;
    C.InputsChecked += TR.InputsChecked;
    if (TR.valid()) {
      ++C.Valid;
      return;
    }
    bool Inconclusive = !TR.invalid();
    ++(Inconclusive ? C.Inconclusive : C.Invalid);
    uint64_t FP = tv::fingerprintFailure(
        (Inconclusive ? std::string("inconclusive: ")
                      : std::string("invalid: ")) +
        TR.Message);
    Dedup.record(FP, Index);
  }

  static tv::TVResult rehydrate(const tv::CachedVerdict &CV) {
    tv::TVResult TR;
    TR.St = CV.St == tv::CachedVerdict::Valid ? tv::TVResult::Status::Valid
            : CV.St == tv::CachedVerdict::Invalid
                ? tv::TVResult::Status::Invalid
                : tv::TVResult::Status::Inconclusive;
    TR.Message = CV.Message;
    TR.InputsChecked = CV.InputsChecked;
    TR.PathsExplored = CV.PathsExplored;
    return TR;
  }

  void publish(const tv::VerdictKey &K, std::string Canon,
               const tv::TVResult &TR, bool Changed,
               const std::string &Blamed) {
    ScopedSpan S(&T, "tv.cache_insert");
    tv::CachedVerdict CV;
    CV.St = TR.valid()     ? tv::CachedVerdict::Valid
            : TR.invalid() ? tv::CachedVerdict::Invalid
                           : tv::CachedVerdict::Inconclusive;
    CV.Changed = Changed;
    CV.InputsChecked = TR.InputsChecked;
    CV.PathsExplored = TR.PathsExplored;
    CV.Message = TR.Message;
    CV.BlamedPass = Blamed;
    CV.CanonText = std::move(Canon);
    Opts.Cache->insert(K, std::move(CV));
  }

  /// checkOne. Every function the campaign spaces of the benchmark hold is
  /// cacheable (none calls a defined function), so the claim is always
  /// taken and always ended by publish().
  void checkOne(Module &M, Function &F, uint64_t Index) {
    {
      // The source text runCampaign keeps for counterexamples.
      ScopedSpan S(&T, "ir.print");
      printFunction(F);
    }
    tv::VerdictKey Key;
    std::string Canon;
    {
      ScopedSpan S(&T, "ir.canon");
      Canon = canonicalForm(F);
      Key.Hash = hashCanonicalText(Canon);
      Key.ConfigFP = ConfigFP;
    }
    tv::CachedVerdict CV;
    bool Hit;
    {
      ScopedSpan S(&T, "tv.cache_lookup");
      Hit = Opts.Cache->lookup(Key, Canon, CV);
    }
    ++(Hit ? C.Hits : C.Misses);

    if (Opts.Kind == tv::CampaignKind::EndToEnd) {
      if (Hit) {
        book(rehydrate(CV), Index);
        return;
      }
      std::string Why;
      if (tv::supportedForCodegen(F, Why)) {
        // checkEndToEnd compiles F twice, with and without register
        // allocation, where no span can see it. This probe repeats those
        // two compiles so their cost can be attributed to codegen; the
        // caller subtracts the probe from tv.e2e and from the traced time.
        ScopedSpan S(&T, "codegen.compile");
        codegen::CodegenOptions WithRA, NoRA;
        NoRA.RunRegAlloc = false;
        codegen::compileFunction(F, WithRA);
        codegen::compileFunction(F, NoRA);
      }
      tv::E2EResult ER;
      {
        ScopedSpan S(&T, "tv.e2e");
        ER = tv::checkEndToEnd(F, Opts.Semantics, Opts.TV);
      }
      publish(Key, std::move(Canon), ER.TV, false, ER.BlamedStage);
      book(ER.TV, Index);
      return;
    }

    if (Opts.Kind == tv::CampaignKind::Sanitizer) {
      Function *San;
      {
        ScopedSpan S(&T, "ir.clone");
        San = cloneFunction(F, M, F.getName() + ".san");
      }
      {
        ScopedSpan S(&T, "tv.sanitizer");
        PassManager SanPM(/*VerifyAfterEachPass=*/false);
        SanPM.add(createSanitizePass(Opts.Pipeline));
        AnalysisManager SanAM;
        if (SanPM.run(*San, SanAM))
          ++C.Changed;
      }
      if (Hit) {
        M.eraseFunction(San);
        book(rehydrate(CV), Index);
        return;
      }
      tv::SanCheckResult SR;
      {
        ScopedSpan S(&T, "tv.sanitizer");
        SR = tv::checkSanitizedFunction(M, F, *San, Opts);
      }
      M.eraseFunction(San);
      publish(Key, std::move(Canon), SR.TV, false, SR.BlamedPass);
      book(SR.TV, Index);
      return;
    }

    Function *Orig;
    {
      ScopedSpan S(&T, "ir.clone");
      Orig = cloneFunction(F, M, F.getName() + ".orig");
    }
    auto PM = std::make_unique<PassManager>(/*VerifyAfterEachPass=*/false);
    {
      ScopedSpan S(&T, "opt.pm_build");
      buildPipeline(*PM);
    }
    bool PipelineChanged;
    {
      ScopedSpan S(&T, "opt.pipeline");
      AnalysisManager AM;
      PipelineChanged = PM->run(F, AM);
    }
    {
      ScopedSpan S(&T, "opt.pm_build");
      PM.reset();
    }
    if (PipelineChanged)
      ++C.Changed;
    if (Hit) {
      M.eraseFunction(Orig);
      book(rehydrate(CV), Index);
      return;
    }
    tv::TVResult TR;
    {
      ScopedSpan S(&T, "tv.check");
      TR = tv::checkRefinement(*Orig, F, Opts.Semantics, Opts.TV);
    }
    CheckedInputs += TR.InputsChecked;
    std::string Blamed;
    if (!TR.valid())
      Blamed = blame(M, *Orig);
    M.eraseFunction(Orig);
    publish(Key, std::move(Canon), TR, PipelineChanged, Blamed);
    book(TR, Index);
  }

  /// processShard for one printed function: a private context, re-parse,
  /// check.
  void processText(const std::string &Text, uint64_t Index) {
    std::unique_ptr<IRContext> Ctx;
    std::unique_ptr<Module> M;
    {
      ScopedSpan S(&T, "ir.context");
      Ctx = std::make_unique<IRContext>();
      M = std::make_unique<Module>(*Ctx, "shard");
    }
    {
      ScopedSpan S(&T, "parser.parse");
      parseModule(Text, *M);
    }
    checkOne(*M, *M->functions().front(), Index);
    ScopedSpan S(&T, "ir.context");
    M.reset();
    Ctx.reset();
  }

  void run() {
    ScopedSpan Root(&T, "campaign");
    // runCampaign batches printed functions into shards of ShardSize and,
    // at Jobs = 1, checks each shard as soon as it is full.
    std::vector<std::string> Shard;
    uint64_t Index = 0, First = 0;
    auto Flush = [&] {
      for (uint64_t I = 0; I != Shard.size(); ++I)
        processText(Shard[I], First + I);
      Shard.clear();
    };
    auto Add = [&](Function &F) {
      if (Shard.empty())
        First = Index;
      {
        ScopedSpan S(&T, "ir.print");
        Shard.push_back(printFunction(F));
      }
      ++Index;
      if (Shard.size() == Opts.ShardSize)
        Flush();
    };

    IRContext Ctx;
    Module M(Ctx, "campaign");
    {
      ScopedSpan S(&T, "parser.parse");
      parseModule(Opts.FileText, M);
    }
    for (Function *F : M.functions())
      if (!F->isDeclaration() && Index < Opts.MaxFunctions)
        Add(*F);
    Flush();
  }
};

} // namespace

uint64_t frostbench::tracedEnumerate(const fuzz::EnumOptions &Enum,
                                     uint64_t Count, Tracer &T) {
  IRContext Ctx;
  Module M(Ctx, "space");
  uint64_t N = 0;
  ScopedSpan S(&T, "fuzz.enumerate");
  fuzz::enumerateFunctions(M, Enum, [&](Function &) { return ++N < Count; });
  return N;
}

Counts frostbench::tracedCampaign(const tv::CampaignOptions &Opts, Tracer &T,
                                  uint64_t &CheckedInputs) {
  Campaign C(Opts, T);
  C.run();
  CheckedInputs += C.CheckedInputs;
  return C.C;
}
