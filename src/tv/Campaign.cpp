//===- Campaign.cpp - Parallel TV / fuzz campaign engine ---------------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "tv/Campaign.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Instructions.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/StructuralHash.h"
#include "opt/Passes.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "tv/Sanitizer.h"
#include "support/Casting.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "tv/EndToEnd.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>

using namespace frost;
using namespace frost::tv;

uint64_t tv::fingerprintFailure(const std::string &Message) {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  for (unsigned char C : Message) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H ? H : 1; // 0 marks an empty cache slot.
}

bool tv::validateFileCampaign(const std::string &Text, const std::string &Path,
                              std::string *Error) {
  auto Fail = [&](std::string Msg) {
    if (Error)
      *Error = Path + ": " + std::move(Msg);
    return false;
  };
  IRContext Ctx;
  Module M(Ctx, "probe");
  ParseResult P = parseModule(Text, M);
  if (!P)
    return Fail(P.Error);
  // Check every defined function against the contract the sharder relies
  // on: its printFunction() text (globals re-emitted, callee bodies not)
  // must parse on its own, because that text is exactly what each worker
  // re-parses inside its private context.
  uint64_t Index = 0;
  for (Function *F : M.functions()) {
    if (F->isDeclaration())
      continue;
    std::string Standalone = printFunction(*F);
    IRContext FnCtx;
    Module FnM(FnCtx, "probe.fn");
    ParseResult FnP = parseModule(Standalone, FnM);
    if (!FnP)
      return Fail("function #" + std::to_string(Index) + " (@" +
                  F->getName() + ") does not re-parse standalone: " +
                  FnP.Error);
    ++Index;
  }
  if (Index == 0)
    return Fail("no functions to verify (the module defines none, so the "
                "campaign would be an empty no-op)");
  return true;
}

//===----------------------------------------------------------------------===//
// CounterexampleCache
//===----------------------------------------------------------------------===//

CounterexampleCache::CounterexampleCache(uint64_t Capacity) {
  uint64_t N = 16;
  while (N < Capacity)
    N <<= 1;
  Slots = std::vector<Slot>(N);
  Mask = N - 1;
}

bool CounterexampleCache::record(uint64_t Fingerprint, uint64_t Index) {
  assert(Fingerprint != 0 && "fingerprint 0 is reserved for empty slots");
  for (uint64_t Probe = 0; Probe <= Mask; ++Probe) {
    Slot &S = Slots[(Fingerprint + Probe) & Mask];
    uint64_t Key = S.Key.load(std::memory_order_acquire);
    if (Key == 0) {
      uint64_t Expected = 0;
      if (S.Key.compare_exchange_strong(Expected, Fingerprint,
                                        std::memory_order_acq_rel)) {
        Key = Fingerprint;
        Distinct.fetch_add(1, std::memory_order_relaxed);
        // CAS-min below publishes the witness; fall through as the inserter.
        uint64_t Cur = S.MinIndex.load(std::memory_order_relaxed);
        while (Index < Cur &&
               !S.MinIndex.compare_exchange_weak(Cur, Index,
                                                 std::memory_order_acq_rel)) {
        }
        return true;
      }
      Key = Expected; // Lost the race; Expected holds the winner's key.
    }
    if (Key == Fingerprint) {
      uint64_t Cur = S.MinIndex.load(std::memory_order_relaxed);
      while (Index < Cur &&
             !S.MinIndex.compare_exchange_weak(Cur, Index,
                                               std::memory_order_acq_rel)) {
      }
      return false;
    }
    // Different key: keep probing.
  }
  // Table full: treat as new so the failure is reported rather than lost.
  // The campaign surfaces the eviction count and warns in its summary.
  stats::add("tv.dedup_evictions");
  return true;
}

const CounterexampleCache::Slot *
CounterexampleCache::find(uint64_t Fingerprint) const {
  for (uint64_t Probe = 0; Probe <= Mask; ++Probe) {
    const Slot &S = Slots[(Fingerprint + Probe) & Mask];
    uint64_t Key = S.Key.load(std::memory_order_acquire);
    if (Key == 0)
      return nullptr;
    if (Key == Fingerprint)
      return &S;
  }
  return nullptr;
}

uint64_t CounterexampleCache::minIndex(uint64_t Fingerprint) const {
  const Slot *S = find(Fingerprint);
  return S ? S->MinIndex.load(std::memory_order_acquire) : ~uint64_t(0);
}

//===----------------------------------------------------------------------===//
// Campaign driver
//===----------------------------------------------------------------------===//

namespace {

/// One work unit: a contiguous slice of the campaign's function space.
/// Exhaustive shards carry the functions as printed IR (produced by the
/// enumerating thread, re-parsed by the checking worker into its own
/// context); random shards carry only seed indices and regenerate.
struct Shard {
  uint64_t Id = 0;
  uint64_t FirstIndex = 0;
  std::vector<std::string> Texts; // Exhaustive source only.
  uint64_t NumFunctions = 0;      // == Texts.size() for exhaustive.
};

/// Everything a shard reports back. Written by exactly one task.
struct ShardResult {
  uint64_t Id = 0;
  uint64_t Functions = 0, Changed = 0;
  uint64_t Valid = 0, Invalid = 0, Inconclusive = 0;
  uint64_t InputsChecked = 0, PathsExplored = 0;
  uint64_t Failures = 0;
  uint64_t SanTrueTrips = 0, SanFalseNegatives = 0, SanFalsePositives = 0;
  std::vector<Counterexample> Counterexamples;
};

/// Appends the campaign's pipeline to \p PM: the textual Opts.Passes when
/// set (validated by the driver), otherwise the standard preset.
void buildCampaignPipeline(PassManager &PM, const CampaignOptions &Opts) {
  if (Opts.Passes.empty()) {
    buildStandardPipeline(PM, Opts.Pipeline);
    return;
  }
  std::string Error;
  bool OK = parsePassPipeline(PM, Opts.Passes, Opts.Pipeline, &Error);
  assert(OK && "campaign pipeline must be validated before launching");
  (void)OK;
}

/// Replays the pipeline pass by pass on a fresh clone of \p Orig and
/// returns the pipelineText() of the first pass whose output no longer
/// refines \p Orig — the pass that introduced the failure. Runs the
/// refinement checker after every IR-changing pass via the after-pass
/// instrumentation hook. Deterministic per function, so blame attribution
/// is identical at any parallelism.
std::string blameFirstFailingPass(Module &M, Function &Orig,
                                  const CampaignOptions &Opts) {
  Function *Replay = cloneFunction(Orig, M, Orig.getName() + ".blame");
  PassManager PM(/*VerifyAfterEachPass=*/false);
  buildCampaignPipeline(PM, Opts);
  std::string Blamed;
  PM.instrumentation().onAfterPass(
      [&](const Pass &P, const Function &,
          const PassInstrumentation::AfterPassInfo &Info) {
        if (!Blamed.empty() || !Info.Changed)
          return;
        TVResult TR = checkRefinement(Orig, *Replay, Opts.Semantics, Opts.TV);
        if (!TR.valid())
          Blamed = P.pipelineText();
      });
  PM.run(*Replay);
  M.eraseFunction(Replay);
  return Blamed;
}

/// Books a finished validation of function \p Index into \p Out, recording
/// a counterexample (with \p Blamed as the culprit line) when it failed.
void bookResult(const TVResult &TR, std::string SrcText, std::string Blamed,
                uint64_t Index, const CampaignOptions &Opts,
                CounterexampleCache &Cache, ShardResult &Out) {
  ++Out.Functions;
  Out.InputsChecked += TR.InputsChecked;
  Out.PathsExplored += TR.PathsExplored;
  if (TR.valid()) {
    ++Out.Valid;
    return;
  }
  bool Inconclusive = !TR.invalid();
  if (Inconclusive)
    ++Out.Inconclusive;
  else
    ++Out.Invalid;
  ++Out.Failures;

  Counterexample CE;
  CE.Index = Index;
  CE.Inconclusive = Inconclusive;
  CE.Function = std::move(SrcText);
  CE.Message = TR.Message;
  CE.BlamedPass = std::move(Blamed);
  CE.Fingerprint = fingerprintFailure(
      (Inconclusive ? std::string("inconclusive: ") : std::string("invalid: ")) +
      TR.Message);
  bool New = Cache.record(CE.Fingerprint, CE.Index);
  // Keep any witness that may still be the canonical (lowest-index) one for
  // its class; the merge step filters the losers deterministically.
  if (Opts.KeepAllCounterexamples || New ||
      Cache.minIndex(CE.Fingerprint) >= CE.Index)
    Out.Counterexamples.push_back(std::move(CE));
}

/// The verdict-reuse hookup for one campaign: the shared cache (campaign-
/// local or the driver's persistent one) plus the precomputed half of every
/// key that does not depend on the function.
struct CacheContext {
  VerdictCache *VC = nullptr; ///< Null disables verdict reuse.
  uint64_t ConfigFP = 0;
};

/// Whether a cached verdict for \p F would be safe to replay anywhere the
/// same canonical form appears. Calls into *defined* functions are the one
/// escape hatch: the canonical form names the callee but not its body, so
/// two modules could bind the same name to different code. Campaign spaces
/// only call observe-style declarations, so in practice everything caches.
bool cacheableFunction(const Function &F) {
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      if (const auto *Call = dyn_cast<CallInst>(I))
        if (Function *Callee = Call->callee())
          if (!Callee->isDeclaration())
            return false;
  return true;
}

/// Rebuilds the TVResult a verification of this member would have produced
/// from its class's cached verdict.
TVResult rehydrate(const CachedVerdict &CV) {
  TVResult TR;
  TR.St = CV.St == CachedVerdict::Valid     ? TVResult::Status::Valid
          : CV.St == CachedVerdict::Invalid ? TVResult::Status::Invalid
                                            : TVResult::Status::Inconclusive;
  TR.Message = CV.Message;
  TR.InputsChecked = CV.InputsChecked;
  TR.PathsExplored = CV.PathsExplored;
  return TR;
}

/// This thread's claim on a verdict-cache miss (VerdictCache::lookup).
/// publish() hands the verdict to the isomorphs waiting on it; if checkOne
/// leaves without publishing (the checker threw), the destructor releases
/// the claim so a waiter verifies the class itself instead of hanging —
/// the daemon survives such a request and keeps serving.
class VerdictClaim {
public:
  VerdictClaim() = default;
  VerdictClaim(const VerdictClaim &) = delete;
  VerdictClaim &operator=(const VerdictClaim &) = delete;
  ~VerdictClaim() {
    if (VC)
      VC->release(Key, Canon);
  }

  /// Looks \p F's class up in \p CC's cache; on a miss this object holds
  /// the claim. Returns whether \p Out holds a cached verdict.
  bool lookup(const CacheContext &CC, const Function &F, CachedVerdict &Out) {
    Canon = canonicalForm(F);
    Key.Hash = hashCanonicalText(Canon);
    Key.ConfigFP = CC.ConfigFP;
    if (CC.VC->lookup(Key, Canon, Out))
      return true;
    VC = CC.VC;
    return false;
  }

  /// Publishes a freshly verified function's verdict and ends the claim.
  /// A no-op when no claim is held (the function is not cacheable).
  void publish(const TVResult &TR, bool Changed, const std::string &Blamed);

private:
  VerdictCache *VC = nullptr; ///< Set while the claim is held.
  VerdictKey Key;
  std::string Canon;
};

void VerdictClaim::publish(const TVResult &TR, bool Changed,
                           const std::string &Blamed) {
  if (!VC)
    return;
  CachedVerdict CV;
  CV.St = TR.valid()     ? CachedVerdict::Valid
          : TR.invalid() ? CachedVerdict::Invalid
                         : CachedVerdict::Inconclusive;
  CV.Changed = Changed;
  CV.InputsChecked = TR.InputsChecked;
  CV.PathsExplored = TR.PathsExplored;
  CV.Message = TR.Message;
  CV.BlamedPass = Blamed;
  CV.CanonText = std::move(Canon);
  VC->insert(Key, std::move(CV));
  VC = nullptr;
}

/// Runs the pipeline over \p F (defined in \p M) and validates the result
/// against its original body (IRPipeline campaigns) or compiles \p F and
/// validates the machine code against the IR semantics (EndToEnd
/// campaigns). The IR path is exactly the per-function work the serial
/// checker in bench/TVBench.cpp performs. With a CacheContext attached,
/// the function is hashed first and a confirmed hit replays the cached
/// verdict under this Index; a miss claims the class, so isomorphs checked
/// concurrently wait for this verdict instead of verifying it again (each
/// class is verified once at any --jobs). For IR campaigns a hit still runs
/// the (cheap) pipeline: the Changed flag in report() is per-*member* — a
/// pass may canonicalize one commutative operand order and leave the other
/// alone — so replaying an isomorph's flag would make the changed count
/// depend on which member was verified. Only the expensive work
/// (exhaustive refinement + pass blame) is skipped.
void checkOne(Module &M, Function &F, uint64_t Index,
              const CampaignOptions &Opts, const CacheContext &CC,
              CounterexampleCache &Cache, ShardResult &Out) {
  std::string SrcText = printFunction(F);

  CachedVerdict CV;
  VerdictClaim Claim;
  bool Hit = CC.VC && cacheableFunction(F) && Claim.lookup(CC, F, CV);

  if (Opts.Kind == CampaignKind::EndToEnd) {
    if (Hit) {
      bookResult(rehydrate(CV), std::move(SrcText), std::move(CV.BlamedPass),
                 Index, Opts, Cache, Out);
      return;
    }
    E2EResult ER = checkEndToEnd(F, Opts.Semantics, Opts.TV);
    Claim.publish(ER.TV, /*Changed=*/false, ER.BlamedStage);
    bookResult(ER.TV, std::move(SrcText), std::move(ER.BlamedStage), Index,
               Opts, Cache, Out);
    return;
  }

  if (Opts.Kind == CampaignKind::Sanitizer) {
    // Instrument a clone on every member — hit or miss — so the changed
    // count and the san.checks_inserted counter stay per-member (and thus
    // byte-identical between cold and warm runs). Only the differential
    // oracles are skipped on a hit.
    Function *San = cloneFunction(F, M, F.getName() + ".san");
    {
      PassManager SanPM(/*VerifyAfterEachPass=*/false);
      SanPM.add(createSanitizePass(Opts.Pipeline));
      AnalysisManager SanAM;
      if (SanPM.run(*San, SanAM))
        ++Out.Changed;
    }
    if (Hit) {
      M.eraseFunction(San);
      bookResult(rehydrate(CV), std::move(SrcText), std::move(CV.BlamedPass),
                 Index, Opts, Cache, Out);
      return;
    }
    SanCheckResult SR = checkSanitizedFunction(M, F, *San, Opts);
    M.eraseFunction(San);
    Out.SanTrueTrips += SR.TrueTrips;
    Out.SanFalseNegatives += SR.FalseNegatives;
    Out.SanFalsePositives += SR.FalsePositives;
    Claim.publish(SR.TV, /*Changed=*/false, SR.BlamedPass);
    bookResult(SR.TV, std::move(SrcText), std::move(SR.BlamedPass), Index,
               Opts, Cache, Out);
    return;
  }

  Function *Orig = cloneFunction(F, M, F.getName() + ".orig");
  PassManager PM(/*VerifyAfterEachPass=*/false);
  buildCampaignPipeline(PM, Opts);
  if (Opts.TimePasses)
    attachTimePassesInstrumentation(PM.instrumentation());
  AnalysisManager AM;
  bool PipelineChanged = PM.run(F, AM);
  if (PipelineChanged)
    ++Out.Changed;
  if (Hit) {
    M.eraseFunction(Orig);
    bookResult(rehydrate(CV), std::move(SrcText), std::move(CV.BlamedPass),
               Index, Opts, Cache, Out);
    return;
  }

  TVResult TR = checkRefinement(*Orig, F, Opts.Semantics, Opts.TV);
  std::string Blamed;
  if (!TR.valid())
    Blamed = blameFirstFailingPass(M, *Orig, Opts);
  M.eraseFunction(Orig);
  Claim.publish(TR, PipelineChanged, Blamed);
  bookResult(TR, std::move(SrcText), std::move(Blamed), Index, Opts, Cache,
             Out);
}

void bumpStats(const ShardResult &R) {
  stats::add("tv.campaign.functions", R.Functions);
  stats::add("tv.campaign.changed", R.Changed);
  stats::add("tv.campaign.valid", R.Valid);
  stats::add("tv.campaign.invalid", R.Invalid);
  stats::add("tv.campaign.inconclusive", R.Inconclusive);
  stats::add("tv.campaign.inputs", R.InputsChecked);
  stats::add("tv.campaign.paths", R.PathsExplored);
  stats::add("tv.campaign.shards_done", 1);
  stats::add("san.true_trips", R.SanTrueTrips);
  stats::add("san.false_negatives", R.SanFalseNegatives);
  stats::add("san.false_positives", R.SanFalsePositives);
  uint64_t Poison = 0, Undef = 0;
  for (const Counterexample &CE : R.Counterexamples) {
    if (CE.Message.find("poison") != std::string::npos)
      ++Poison;
    if (CE.Message.find("undef") != std::string::npos)
      ++Undef;
  }
  stats::add("tv.campaign.poison_hits", Poison);
  stats::add("tv.campaign.undef_hits", Undef);
}

/// Checks every function of one shard inside a private context.
ShardResult processShard(const Shard &S, const CampaignOptions &Opts,
                         const CacheContext &CC, CounterexampleCache &Cache) {
  ShardResult R;
  R.Id = S.Id;
  if (Opts.Source != CampaignSource::Random) {
    // Exhaustive and File shards both carry per-function printed IR.
    for (uint64_t I = 0; I != S.Texts.size(); ++I) {
      IRContext Ctx;
      Module M(Ctx, "shard");
      ParseResult P = parseModule(S.Texts[I], M);
      assert(P && "shard function failed to re-parse");
      (void)P;
      std::vector<Function *> Fns = M.functions();
      assert(Fns.size() == 1 && "shard entry must hold exactly one function");
      checkOne(M, *Fns.front(), S.FirstIndex + I, Opts, CC, Cache, R);
    }
  } else {
    for (uint64_t I = 0; I != S.NumFunctions; ++I) {
      uint64_t Index = S.FirstIndex + I;
      IRContext Ctx;
      Module M(Ctx, "shard");
      fuzz::RandomProgramOptions RP = Opts.Random;
      RP.Seed = Opts.Random.Seed + Index;
      Function *F = fuzz::generateRandomFunction(
          M, "rp" + std::to_string(Index), RP);
      checkOne(M, *F, Index, Opts, CC, Cache, R);
    }
  }
  bumpStats(R);
  return R;
}

std::string semanticsTag(const sem::SemanticsConfig &C) {
  std::string S;
  S += "undef_is_poison=";
  S += C.UndefIsPoison ? '1' : '0';
  S += " branch_on_poison=";
  S += C.BranchOnPoison == sem::PoisonBranchRule::UB ? "ub" : "nondet";
  S += " select_cond=";
  switch (C.SelectOnPoisonCond) {
  case sem::SelectPoisonCondRule::Poison:
    S += "poison";
    break;
  case sem::SelectPoisonCondRule::UB:
    S += "ub";
    break;
  case sem::SelectPoisonCondRule::Nondet:
    S += "nondet";
    break;
  }
  S += " chosen_arm_only=";
  S += C.SelectChosenArmOnly ? '1' : '0';
  S += " overshift_undef=";
  S += C.OverShiftYieldsUndef ? '1' : '0';
  S += " load_uninit_undef=";
  S += C.LoadUninitYieldsUndef ? '1' : '0';
  return S;
}

} // namespace

std::string tv::describeCampaign(const CampaignOptions &Opts) {
  std::string S;
  if (Opts.Source == CampaignSource::Exhaustive) {
    S += "source=exhaustive insts=" + std::to_string(Opts.Enum.NumInsts);
    S += " width=" + std::to_string(Opts.Enum.Width);
    S += " args=" + std::to_string(Opts.Enum.NumArgs);
    if (Opts.Enum.WithMemory)
      S += " mem_bytes=" + std::to_string(Opts.Enum.MemBytes);
    S += " max_functions=" + std::to_string(Opts.MaxFunctions);
  } else if (Opts.Source == CampaignSource::File) {
    S += "source=file path=" + Opts.FilePath;
    S += " max_functions=" + std::to_string(Opts.MaxFunctions);
  } else {
    S += "source=random seed=" + std::to_string(Opts.Random.Seed);
    S += " count=" + std::to_string(Opts.RandomFunctions);
    S += " width=" + std::to_string(Opts.Random.Width);
    S += " statements=" + std::to_string(Opts.Random.Statements);
  }
  S += " shard_size=" + std::to_string(Opts.ShardSize);
  if (Opts.Kind == CampaignKind::EndToEnd) {
    S += " target=end-to-end (codegen+regalloc+machine)";
  } else {
    if (Opts.Kind == CampaignKind::Sanitizer)
      S += " target=sanitizer (instrument+differential)";
    S += std::string(" pipeline=") +
         (Opts.Pipeline == PipelineMode::Proposed ? "proposed" : "legacy");
    if (!Opts.Passes.empty())
      S += " passes=" + Opts.Passes;
  }
  if (Opts.TV.EnumerateMemory)
    S += " mem_configs=" + std::to_string(Opts.TV.MaxMemConfigs);
  S += "\nsemantics: " + semanticsTag(Opts.Semantics);
  return S;
}

uint64_t tv::campaignConfigFingerprint(const CampaignOptions &Opts) {
  // Everything verdict-affecting, rendered as text and FNV-hashed. Jobs,
  // ShardSize, and Engine are deliberately absent (see the declaration);
  // so are the space options (the function itself is the other key half).
  std::string S;
  S += Opts.Kind == CampaignKind::EndToEnd    ? "kind=e2e"
       : Opts.Kind == CampaignKind::Sanitizer ? "kind=sanitizer"
                                              : "kind=ir";
  // The sanitize pass variant follows Pipeline, so the pipeline line keeps
  // sanitizer verdicts from leaking between legacy and proposed modes.
  if (Opts.Kind != CampaignKind::EndToEnd) {
    S += std::string(" pipeline=") +
         (Opts.Pipeline == PipelineMode::Proposed ? "proposed" : "legacy");
    S += " passes=" + (Opts.Passes.empty() ? "default" : Opts.Passes);
  }
  S += "\nsemantics: " + semanticsTag(Opts.Semantics);
  const TVOptions &TV = Opts.TV;
  S += "\ntv: max_paths=" + std::to_string(TV.MaxPathsPerRun);
  S += " max_inputs=" + std::to_string(TV.MaxInputs);
  S += " fuel=" + std::to_string(TV.Fuel);
  S += " poison_inputs=" + std::to_string(TV.IncludePoisonInputs);
  S += " undef_inputs=" + std::to_string(TV.IncludeUndefInputs);
  S += " compare_memory=" + std::to_string(TV.CompareMemory);
  S += " enum_memory=" + std::to_string(TV.EnumerateMemory);
  S += " max_mem_configs=" + std::to_string(TV.MaxMemConfigs);
  if (TV.InitialMem) {
    S += " initmem=";
    for (sem::MemBit B : *TV.InitialMem)
      S += std::to_string((int)B) + ",";
  }
  return fingerprintFailure(S);
}

//===----------------------------------------------------------------------===//
// Result rendering
//===----------------------------------------------------------------------===//

std::string CampaignResult::report() const {
  std::string S;
  S += "functions=" + std::to_string(Functions);
  S += " changed=" + std::to_string(Changed);
  S += " valid=" + std::to_string(Valid);
  S += " invalid=" + std::to_string(Invalid);
  S += " inconclusive=" + std::to_string(Inconclusive);
  S += "\ninputs=" + std::to_string(InputsChecked);
  S += " paths=" + std::to_string(PathsExplored);
  S += " distinct_failures=" + std::to_string(DistinctFailures);
  S += " duplicate_failures=" + std::to_string(DuplicateFailures);
  if (Sanitizer)
    S += " san_checks=" + std::to_string(SanChecksInserted);
  S += "\n";
  for (const Counterexample &CE : Counterexamples) {
    S += "== counterexample #" + std::to_string(CE.Index) +
         (CE.Inconclusive ? " (inconclusive)\n" : " (invalid)\n");
    S += CE.Function;
    if (!S.empty() && S.back() != '\n')
      S += '\n';
    S += "! " + CE.Message + "\n";
    if (!CE.BlamedPass.empty())
      S += "! introduced by: " + CE.BlamedPass + "\n";
  }
  return S;
}

std::string CampaignResult::summary() const {
  char Buf[384];
  std::snprintf(Buf, sizeof(Buf),
                "%llu functions in %.2fs wall / %.2fs cpu (%.1f checks/s, "
                "%llu shards): %llu valid, %llu invalid, %llu inconclusive, "
                "%llu distinct failure(s)",
                (unsigned long long)Functions, WallSeconds, CpuSeconds,
                checksPerSecond(), (unsigned long long)Shards,
                (unsigned long long)Valid, (unsigned long long)Invalid,
                (unsigned long long)Inconclusive,
                (unsigned long long)DistinctFailures);
  std::string S = Buf;
  if (BitslicedBatches || ScalarFallbacks) {
    std::snprintf(Buf, sizeof(Buf),
                  "\nbitsliced: %llu batch(es), %llu scalar fallback(s)",
                  (unsigned long long)BitslicedBatches,
                  (unsigned long long)ScalarFallbacks);
    S += Buf;
  }
  if (MemFunctions || MemConfigs || AliasQueries) {
    std::snprintf(Buf, sizeof(Buf),
                  "\nmemory: %llu function(s) swept over %llu initial-memory "
                  "config(s), %llu alias quer%s",
                  (unsigned long long)MemFunctions,
                  (unsigned long long)MemConfigs,
                  (unsigned long long)AliasQueries,
                  AliasQueries == 1 ? "y" : "ies");
    S += Buf;
  }
  if (Sanitizer) {
    std::snprintf(Buf, sizeof(Buf),
                  "\nsanitizer: %llu check(s) inserted, %llu true trip(s), "
                  "%llu false negative(s), %llu false positive(s)",
                  (unsigned long long)SanChecksInserted,
                  (unsigned long long)SanTrueTrips,
                  (unsigned long long)SanFalseNegatives,
                  (unsigned long long)SanFalsePositives);
    S += Buf;
  }
  if (CacheHits || CacheMisses) {
    std::snprintf(Buf, sizeof(Buf),
                  "\nverdict cache: %llu hit(s) (%llu isomorphic skip(s)), "
                  "%llu miss(es), %llu collision(s)",
                  (unsigned long long)CacheHits,
                  (unsigned long long)IsomorphicSkips,
                  (unsigned long long)CacheMisses,
                  (unsigned long long)CacheCollisions);
    S += Buf;
  }
  if (DedupEvictions) {
    std::snprintf(Buf, sizeof(Buf),
                  "\nwarning: counterexample dedup table saturated (%llu "
                  "eviction(s)); duplicate failures may be over-reported — "
                  "raise DedupCapacity",
                  (unsigned long long)DedupEvictions);
    S += Buf;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// runCampaign
//===----------------------------------------------------------------------===//

CampaignResult tv::runCampaign(const CampaignOptions &Opts) {
  assert(Opts.ShardSize > 0 && "shard size must be positive");
  auto WallStart = std::chrono::steady_clock::now();
  std::clock_t CpuStart = std::clock();

  // Engine counters are process-global; delta them across the campaign so
  // the result reflects this run only.
  uint64_t BatchesBefore = stats::get("tv.bitsliced_batches");
  uint64_t FallbacksBefore = stats::get("tv.scalar_fallbacks");
  uint64_t MemFnsBefore = stats::get("tv.mem_functions");
  uint64_t MemCfgsBefore = stats::get("tv.mem_configs");
  uint64_t AABefore = stats::get("aa.queries");
  uint64_t HitsBefore = stats::get("tv.cache_hits");
  uint64_t MissesBefore = stats::get("tv.cache_misses");
  uint64_t SkipsBefore = stats::get("tv.isomorphic_skips");
  uint64_t CollisionsBefore = stats::get("tv.cache_collisions");
  uint64_t EvictionsBefore = stats::get("tv.dedup_evictions");
  uint64_t SanChecksBefore = stats::get("san.checks_inserted");
  uint64_t SanTripsBefore = stats::get("san.true_trips");
  uint64_t SanFNBefore = stats::get("san.false_negatives");
  uint64_t SanFPBefore = stats::get("san.false_positives");

  // Verdict reuse: an external cache when the driver passed one (warm
  // cross-run reuse), otherwise a campaign-private cache so isomorphs are
  // still deduplicated within the run. A hand-pinned memory layout is not
  // part of the cache key, so it disables reuse entirely.
  std::unique_ptr<VerdictCache> LocalCache;
  CacheContext CC;
  if (Opts.UseVerdictCache && !Opts.TV.MemLayout) {
    if (Opts.Cache) {
      CC.VC = Opts.Cache;
    } else {
      LocalCache = std::make_unique<VerdictCache>();
      CC.VC = LocalCache.get();
    }
    CC.ConfigFP = campaignConfigFingerprint(Opts);
  }

  CounterexampleCache Cache(Opts.DedupCapacity);
  std::vector<ShardResult> Results;
  std::mutex ResultsMutex;
  auto Commit = [&](ShardResult R) {
    std::lock_guard<std::mutex> Lock(ResultsMutex);
    Results.push_back(std::move(R));
  };

  unsigned Jobs = Opts.Jobs ? Opts.Jobs : ThreadPool::defaultThreadCount();
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);

  uint64_t NumShards = 0;
  auto Dispatch = [&](Shard S) {
    S.Id = NumShards++;
    stats::add("tv.campaign.shards_total", 1);
    if (Pool) {
      auto Work = std::make_shared<Shard>(std::move(S));
      Pool->submit(
          [&, Work] { Commit(processShard(*Work, Opts, CC, Cache)); });
    } else {
      Commit(processShard(S, Opts, CC, Cache));
    }
  };

  if (Opts.Source == CampaignSource::Exhaustive) {
    // The enumerating thread prints each function and batches shards; the
    // expensive validation runs in the workers' own contexts.
    IRContext Ctx;
    Module M(Ctx, "campaign");
    Shard Cur;
    uint64_t Index = 0;
    fuzz::enumerateFunctions(M, Opts.Enum, [&](Function &F) {
      if (Index >= Opts.MaxFunctions)
        return false;
      if (Cur.Texts.empty())
        Cur.FirstIndex = Index;
      Cur.Texts.push_back(printFunction(F));
      ++Index;
      if (Cur.Texts.size() == Opts.ShardSize) {
        Cur.NumFunctions = Cur.Texts.size();
        Dispatch(std::move(Cur));
        Cur = Shard();
      }
      return true;
    });
    if (!Cur.Texts.empty()) {
      Cur.NumFunctions = Cur.Texts.size();
      Dispatch(std::move(Cur));
    }
  } else if (Opts.Source == CampaignSource::File) {
    // Each function of the module is one entry, in module order. Functions
    // are re-printed standalone (printFunction re-emits any globals they
    // reference), so global memory is fine but cross-function calls are
    // not; drivers validate with validateFileCampaign before launching.
    std::string Text = Opts.FileText;
    if (Text.empty()) {
      std::ifstream In(Opts.FilePath);
      std::stringstream Buf;
      Buf << In.rdbuf();
      Text = Buf.str();
    }
    IRContext Ctx;
    Module M(Ctx, "campaign");
    ParseResult P = parseModule(Text, M);
    assert(P && "campaign file must be validated before launching");
    (void)P;
    Shard Cur;
    uint64_t Index = 0;
    for (Function *F : M.functions()) {
      if (F->isDeclaration() || Index >= Opts.MaxFunctions)
        continue;
      if (Cur.Texts.empty())
        Cur.FirstIndex = Index;
      Cur.Texts.push_back(printFunction(*F));
      ++Index;
      if (Cur.Texts.size() == Opts.ShardSize) {
        Cur.NumFunctions = Cur.Texts.size();
        Dispatch(std::move(Cur));
        Cur = Shard();
      }
    }
    if (!Cur.Texts.empty()) {
      Cur.NumFunctions = Cur.Texts.size();
      Dispatch(std::move(Cur));
    }
  } else {
    for (uint64_t First = 0; First < Opts.RandomFunctions;
         First += Opts.ShardSize) {
      Shard S;
      S.FirstIndex = First;
      S.NumFunctions =
          std::min<uint64_t>(Opts.ShardSize, Opts.RandomFunctions - First);
      Dispatch(std::move(S));
    }
  }

  if (Pool) {
    Pool->wait();
    Pool.reset();
  }

  CampaignResult R;
  R.Shards = NumShards;
  uint64_t TotalFailures = 0;
  for (const ShardResult &S : Results) {
    R.Functions += S.Functions;
    R.Changed += S.Changed;
    R.Valid += S.Valid;
    R.Invalid += S.Invalid;
    R.Inconclusive += S.Inconclusive;
    R.InputsChecked += S.InputsChecked;
    R.PathsExplored += S.PathsExplored;
    TotalFailures += S.Failures;
    for (const Counterexample &CE : S.Counterexamples) {
      uint64_t Min = Cache.minIndex(CE.Fingerprint);
      // Min == UINT64_MAX: the saturated dedup table never tracked this
      // class — keep the witness (over-report, never drop).
      if (Opts.KeepAllCounterexamples || Min == CE.Index ||
          Min == ~uint64_t(0))
        R.Counterexamples.push_back(CE);
    }
  }
  std::sort(R.Counterexamples.begin(), R.Counterexamples.end(),
            [](const Counterexample &A, const Counterexample &B) {
              return A.Index < B.Index;
            });
  R.BitslicedBatches = stats::get("tv.bitsliced_batches") - BatchesBefore;
  R.ScalarFallbacks = stats::get("tv.scalar_fallbacks") - FallbacksBefore;
  R.MemFunctions = stats::get("tv.mem_functions") - MemFnsBefore;
  R.MemConfigs = stats::get("tv.mem_configs") - MemCfgsBefore;
  R.AliasQueries = stats::get("aa.queries") - AABefore;
  R.CacheHits = stats::get("tv.cache_hits") - HitsBefore;
  R.CacheMisses = stats::get("tv.cache_misses") - MissesBefore;
  R.IsomorphicSkips = stats::get("tv.isomorphic_skips") - SkipsBefore;
  R.CacheCollisions = stats::get("tv.cache_collisions") - CollisionsBefore;
  R.DedupEvictions = stats::get("tv.dedup_evictions") - EvictionsBefore;
  R.Sanitizer = Opts.Kind == CampaignKind::Sanitizer;
  R.SanChecksInserted = stats::get("san.checks_inserted") - SanChecksBefore;
  R.SanTrueTrips = stats::get("san.true_trips") - SanTripsBefore;
  R.SanFalseNegatives = stats::get("san.false_negatives") - SanFNBefore;
  R.SanFalsePositives = stats::get("san.false_positives") - SanFPBefore;
  R.DistinctFailures = Cache.distinct();
  R.DuplicateFailures = TotalFailures - std::min(TotalFailures, R.DistinctFailures);
  stats::add("tv.campaign.dup_failures", R.DuplicateFailures);

  R.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    WallStart)
          .count();
  R.CpuSeconds = double(std::clock() - CpuStart) / CLOCKS_PER_SEC;
  return R;
}
