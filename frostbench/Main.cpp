//===- Main.cpp - frost-bench: the benchmark's workloads and metrics ------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// frost-bench gen --workload W --seed S --dir D
///   Writes workload W's inputs for seed S into D: the modules, and the
///   verdict-cache files that warm repetitions and the daemon start from.
///
/// frost-bench run --workload W --seed S --dir D --seconds N --trace 0|1
///                 --tvd PATH [--trace-out FILE]
///   Measures W for N seconds on the inputs in D, checks the outputs, and
///   prints one JSON line: the end-to-end metrics (--trace 0) or, from a
///   traced run, the per-layer metrics (--trace 1).
///
/// frost-bench setup --workload W --dir D
///   The set-up step of a campaign workload, alone in a new process: read,
///   parse and validate the input module, load the cache file, then print
///   the CLOCK_MONOTONIC time. `run` spawns it to time cold set-ups.
///
/// frost-bench probe
///   Runs the speed probe (SpeedProbe.cpp) twice and prints the second
///   one's seconds. `run` spawns it once per round.
///
/// Timing: on a shared machine the same work runs at very different speeds
/// from one moment to the next, so each run repeats one unit of work from
/// the same starting state for the whole run and reports, per metric, the
/// best repetition, scaled by the machine's speed in the run as the speed
/// probe (SpeedProbe.cpp) saw it. README.md gives the numbers behind this
/// choice.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Stats.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace frost;
using namespace frostbench;

namespace {

bool Failed = false;

} // namespace

void frostbench::fail(const std::string &Why) {
  std::fprintf(stderr, "frost-bench: CHECK FAILED: %s\n", Why.c_str());
  Failed = true;
}

bool frostbench::failed() { return Failed; }

std::string frostbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "frost-bench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void frostbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out) {
    std::fprintf(stderr, "frost-bench: cannot write %s\n", Path.c_str());
    std::exit(2);
  }
}

namespace {

enum class Workload { ExhaustiveI1, ExhaustiveI4, FileMixed, DaemonMixed };

struct Args {
  std::string Mode, Dir, Tvd, TraceOut;
  Workload W = Workload::ExhaustiveI1;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
};

/// Requests per repetition of the in-process request loop of the exhaustive
/// workloads, and of the daemon's interactive lane.
constexpr unsigned RequestsPerRep = 100;
/// Cold set-ups timed per run, one per round until there are this many.
constexpr unsigned SetupsPerRun = 30;

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};
std::vector<Metric> Metrics;

void metric(const std::string &Name, const std::string &Unit, double Value) {
  Metrics.push_back({Name, Unit, Value});
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// Nearest-rank percentile \p P (0-100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(P / 100.0 * double(V.size()) + 0.999999);
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// How much slower than at its reference speed the machine ran in this run:
/// the best of the run's speed probes over the reference time. A time
/// divided by it, or a rate multiplied by it, reads as if the run had the
/// reference speed.
double slowdown(const std::vector<double> &Probes) {
  return minOf(Probes) / SpeedProbeReferenceSeconds;
}

uint64_t counter(const char *Name) { return stats::get(Name); }

//===----------------------------------------------------------------------===//
// Campaign helpers
//===----------------------------------------------------------------------===//

/// One configured campaign of a workload's repetition.
struct Job {
  std::string Name;
  tv::CampaignOptions Opts;
};

std::vector<Job> workloadJobs(Workload W, const std::string &FileText) {
  std::vector<Job> Jobs;
  switch (W) {
  case Workload::ExhaustiveI1:
    Jobs.push_back({"exhaustive", exhaustiveOptions(1, FileText)});
    break;
  case Workload::ExhaustiveI4:
    Jobs.push_back({"exhaustive", exhaustiveOptions(4, FileText)});
    break;
  case Workload::FileMixed:
    for (const Config &C : fileMixedConfigs()) {
      Jobs.push_back({C.Name, fileOptions(C, C.MemorySliceOnly
                                                 ? memorySlice(FileText)
                                                 : FileText)});
      // List every failing function, not one per failure class, so that
      // each Section 3 function's blame can be checked.
      Jobs.back().Opts.KeepAllCounterexamples = true;
    }
    break;
  case Workload::DaemonMixed:
    for (const Config &C : daemonConfigs())
      Jobs.push_back({C.Name, fileOptions(C, FileText)});
    break;
  }
  return Jobs;
}

/// Runs every job with one fresh cache, optionally preloaded from
/// \p CacheFile (not timed). Returns each campaign's wall time.
std::vector<double> runJobs(std::vector<Job> &Jobs,
                            const std::string &CacheFile,
                            std::vector<tv::CampaignResult> &Results,
                            tv::VerdictCache *KeepCache = nullptr) {
  tv::VerdictCache Local;
  tv::VerdictCache &VC = KeepCache ? *KeepCache : Local;
  if (!CacheFile.empty()) {
    std::string Error;
    if (!VC.load(CacheFile, &Error))
      fail("cannot load " + CacheFile + ": " + Error);
  }
  Results.clear();
  std::vector<double> Times;
  for (Job &J : Jobs) {
    J.Opts.Cache = &VC;
    double T0 = nowSeconds();
    Results.push_back(tv::runCampaign(J.Opts));
    Times.push_back(nowSeconds() - T0);
    J.Opts.Cache = nullptr;
  }
  return Times;
}

double total(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

uint64_t functionsOf(const std::vector<tv::CampaignResult> &Rs) {
  uint64_t N = 0;
  for (const tv::CampaignResult &R : Rs)
    N += R.Functions;
  return N;
}

/// The options of a single-function request under job \p J: the job's
/// configuration with \p Fn as a File-source space.
tv::CampaignOptions requestOptions(const Job &J, const std::string &Fn) {
  tv::CampaignOptions O = J.Opts;
  O.Source = tv::CampaignSource::File;
  O.FileText = Fn;
  O.FilePath = "<request>";
  O.KeepAllCounterexamples = false;
  return O;
}

/// One in-process request, as frost-tvd handles it: validate the space,
/// then run the single-function campaign against the shared cache.
tv::CampaignResult runRequest(const Job &J, const std::string &Fn,
                              tv::VerdictCache &VC) {
  std::string Error;
  if (!tv::validateFileCampaign(Fn, "<request>", &Error))
    fail("request does not validate: " + Error);
  tv::CampaignOptions O = requestOptions(J, Fn);
  O.Cache = &VC;
  return tv::runCampaign(O);
}

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

uint64_t OperationsFailed = 0;
uint64_t Attempted = 0;

void expectClean(const std::string &What, const tv::CampaignResult &R) {
  if (R.Invalid || R.Inconclusive) {
    OperationsFailed += R.Invalid + R.Inconclusive;
    fail(What + ": " + std::to_string(R.Invalid) + " invalid, " +
         std::to_string(R.Inconclusive) + " inconclusive; expected none");
  }
}

/// The checks of exhaustive-i1/i4 that need one cold result.
void checkExhaustive(unsigned Width, const tv::CampaignResult &R) {
  expectClean("proposed pipeline under proposed semantics", R);
  uint64_t Per = (uint64_t(1) << Width) + 1;
  uint64_t Expected = R.Functions * Per * Per * Per;
  if (R.InputsChecked != Expected)
    fail("inputs checked " + std::to_string(R.InputsChecked) +
         " != functions x (2^w+1)^3 = " + std::to_string(Expected));
  // Every sample holds freezes of a poison-fed value, whose lanes the
  // bit-sliced engine must hand to the scalar one.
  if (Width == 4 && !R.ScalarFallbacks)
    fail("the i4 sample never fell back to the scalar engine");
}

/// The legacy pipeline convicts every hand-written Section 3 function and
/// blames the pass the paper names.
void checkSection3(const tv::CampaignResult &R) {
  for (const HandWritten &H : handWrittenFunctions()) {
    bool Convicted = false;
    for (const tv::Counterexample &CE : R.Counterexamples)
      if (CE.Function.find(std::string("@") + H.Name + "(") !=
              std::string::npos &&
          !CE.Inconclusive) {
        Convicted = true;
        if (CE.BlamedPass != H.BlamedPass)
          fail(std::string("legacy @") + H.Name + " blamed on '" +
               CE.BlamedPass + "', expected " + H.BlamedPass);
      }
    if (!Convicted)
      fail(std::string("legacy pipeline did not convict @") + H.Name);
  }
}

/// Legacy DSE is convicted on the memory slice and blamed: on every
/// function whose only global store stores undef (deleting it leaves the
/// initial memory, which the sweep makes poison), and only on functions
/// whose last global store stores undef.
void checkDSE(const std::string &Slice, const tv::CampaignResult &R) {
  std::vector<std::string> Fns = standaloneFunctions(Slice);
  std::vector<bool> Convicted(Fns.size());
  for (const tv::Counterexample &CE : R.Counterexamples) {
    if (CE.Index >= Fns.size())
      continue;
    Convicted[CE.Index] = !CE.Inconclusive;
    if (CE.BlamedPass != "dse<legacy>")
      fail("legacy DSE counterexample #" + std::to_string(CE.Index) +
           " blamed on '" + CE.BlamedPass + "'");
    if (!globalStores(Fns[CE.Index]).LastUndef)
      fail("legacy DSE convicted #" + std::to_string(CE.Index) +
           ", whose last global store is not undef");
  }
  uint64_t Must = 0;
  for (size_t I = 0; I != Fns.size(); ++I)
    if (globalStores(Fns[I]).onlyUndef()) {
      ++Must;
      if (!Convicted[I])
        fail("legacy DSE not convicted on #" + std::to_string(I) +
             ", whose only global store is undef");
    }
  if (!Must)
    fail("the memory slice holds no function whose only global store is "
         "undef");
}

void checkFileMixed(const std::vector<Job> &Jobs,
                    const std::vector<tv::CampaignResult> &Rs) {
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const tv::CampaignResult &R = Rs[I];
    if (Jobs[I].Name == "ir-legacy") {
      checkSection3(R);
      continue;
    }
    if (Jobs[I].Name == "dse-legacy") {
      checkDSE(Jobs[I].Opts.FileText, R);
      continue;
    }
    expectClean(Jobs[I].Name, R);
    if (Jobs[I].Name == "sanitizer" &&
        (R.SanFalseNegatives || R.SanFalsePositives || !R.SanTrueTrips))
      fail("sanitizer against the interpreter oracle: " +
           std::to_string(R.SanFalseNegatives) + " false negatives, " +
           std::to_string(R.SanFalsePositives) + " false positives, " +
           std::to_string(R.SanTrueTrips) + " true trips");
  }
}

/// A warm repetition must replay the cold one: the same report bytes, and
/// every function a cache hit.
void checkWarm(const std::vector<tv::CampaignResult> &Cold,
               const std::vector<tv::CampaignResult> &Warm) {
  for (size_t I = 0; I != Cold.size(); ++I) {
    if (Warm[I].report() != Cold[I].report())
      fail("warm report differs from the cold report (campaign " +
           std::to_string(I) + ")");
    if (Warm[I].CacheHits != Warm[I].Functions)
      fail("warm pass: " + std::to_string(Warm[I].CacheHits) + " hits for " +
           std::to_string(Warm[I].Functions) + " functions");
  }
}

/// Single-function requests summed per job must give the batched counts
/// (exhaustive requests are a sample, so there each must be clean).
void checkRequests(Workload W, const std::vector<Job> &Jobs,
                   const std::vector<tv::CampaignResult> &Cold,
                   const std::vector<std::vector<tv::CampaignResult>> &Req) {
  for (size_t I = 0; I != Jobs.size(); ++I) {
    tv::CampaignResult Sum;
    for (const tv::CampaignResult &R : Req[I]) {
      if (R.Functions != 1)
        fail("a request verified " + std::to_string(R.Functions) +
             " functions");
      Sum.Functions += R.Functions;
      Sum.Changed += R.Changed;
      Sum.Valid += R.Valid;
      Sum.Invalid += R.Invalid;
      Sum.Inconclusive += R.Inconclusive;
      Sum.InputsChecked += R.InputsChecked;
    }
    if (W == Workload::ExhaustiveI1 || W == Workload::ExhaustiveI4) {
      expectClean("requests", Sum);
      continue;
    }
    const tv::CampaignResult &B = Cold[I];
    if (Sum.Functions != B.Functions || Sum.Changed != B.Changed ||
        Sum.Valid != B.Valid || Sum.Invalid != B.Invalid ||
        Sum.Inconclusive != B.Inconclusive ||
        Sum.InputsChecked != B.InputsChecked)
      fail("single-function requests of " + Jobs[I].Name +
           " disagree with the batched campaign");
  }
}

//===----------------------------------------------------------------------===//
// gen
//===----------------------------------------------------------------------===//

void saveCache(const tv::VerdictCache &VC, const std::string &Path) {
  std::string Error;
  if (!VC.save(Path, &Error)) {
    std::fprintf(stderr, "frost-bench: %s\n", Error.c_str());
    std::exit(2);
  }
}

int gen(const Args &A) {
  const std::string &D = A.Dir;
  if (A.W == Workload::ExhaustiveI1 || A.W == Workload::ExhaustiveI4) {
    const unsigned Width = A.W == Workload::ExhaustiveI4 ? 4 : 1;
    SampleCounts SC;
    std::string Sample = generateExhaustiveSample(Width, A.Seed, &SC);
    writeFile(D + "/module.fr", Sample);
    std::fprintf(stderr,
                 "frost-bench gen: i%u seed %llu: %u of %llu functions; "
                 "functions holding each opcode:",
                 Width, (unsigned long long)A.Seed, exhaustiveSampleSize(Width),
                 (unsigned long long)SC.SpaceSize);
    for (const auto &[Name, N] : SC.WithOpcode)
      std::fprintf(stderr, " %s %u", Name.c_str(), N);
    std::fprintf(stderr, "; strata (sample / space):");
    for (unsigned C = 0; C != NumCostClasses; ++C)
      std::fprintf(stderr, " %s %llu/%llu", costClassName(C),
                   (unsigned long long)SC.InSample[C],
                   (unsigned long long)SC.InSpace[C]);
    std::fprintf(stderr, "\n");
    std::vector<Job> Jobs = workloadJobs(A.W, Sample);
    tv::VerdictCache VC;
    std::vector<tv::CampaignResult> Rs;
    runJobs(Jobs, "", Rs, &VC);
    saveCache(VC, D + "/warm.cache");
    return 0;
  }
  MixedCounts MC;
  std::string Module = generateFileMixed(A.Seed, &MC);
  writeFile(D + "/module.fr", Module);
  std::fprintf(stderr,
               "frost-bench gen: file-mixed seed %llu: %u random, %u+%u "
               "memory-slice (undef store + other), %u hand-written\n",
               (unsigned long long)A.Seed, MC.Random, MC.MemUndefStore,
               MC.MemOther, MC.HandWritten);
  tv::VerdictCache VC;
  std::vector<Job> Jobs = workloadJobs(Workload::FileMixed, Module);
  std::vector<tv::CampaignResult> Rs;
  runJobs(Jobs, "", Rs, &VC);
  if (A.W == Workload::FileMixed) {
    saveCache(VC, D + "/warm.cache");
    return 0;
  }
  // daemon-mixed: the daemon starts from file-mixed's cold pass; the warm
  // in-process replay starts from that plus the novel functions' verdicts.
  saveCache(VC, D + "/preload.cache");
  std::string Novel = generateNovel();
  writeFile(D + "/novel.fr", Novel);
  std::vector<Job> Bulk = workloadJobs(Workload::DaemonMixed, Module + Novel);
  runJobs(Bulk, "", Rs, &VC);
  saveCache(VC, D + "/warm.cache");
  return 0;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// The set-up step of a campaign workload: read, parse and validate the
/// input module, then load the cache file. Returns the module, or exits 2.
std::string setUp(const std::string &Dir) {
  std::string Input = readFile(Dir + "/module.fr");
  std::string Error;
  if (!tv::validateFileCampaign(Input, "module.fr", &Error)) {
    std::fprintf(stderr, "frost-bench: %s\n", Error.c_str());
    std::exit(2);
  }
  tv::VerdictCache VC;
  if (!VC.load(Dir + "/warm.cache", &Error)) {
    std::fprintf(stderr, "frost-bench: %s\n", Error.c_str());
    std::exit(2);
  }
  return Input;
}

/// Runs this program with \p Argv in a new process, waits for it, and
/// returns the number it printed, or fails the run and returns 0.
double runSelf(const char *const *Argv) {
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    fail("pipe failed");
    return 0;
  }
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execv(Argv[0], const_cast<char **>(Argv));
    ::_exit(127);
  }
  ::close(Pipe[1]);
  std::string Out;
  char Buf[64];
  ssize_t N;
  while (Pid > 0 && (N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, size_t(N));
  ::close(Pipe[0]);
  int Status = 0;
  if (Pid < 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || Out.empty()) {
    fail(std::string("frost-bench ") + Argv[1] + " failed");
    return 0;
  }
  return std::strtod(Out.c_str(), nullptr);
}

/// One cold set-up: spawns `frost-bench setup` and returns the seconds from
/// just before the spawn to the end of its set-up step. A second set-up in
/// this process would find its code and allocator warm, so each set-up
/// gets a new process.
double coldSetUp(const Args &A) {
  const char *Workload = A.W == Workload::ExhaustiveI1   ? "exhaustive-i1"
                         : A.W == Workload::ExhaustiveI4 ? "exhaustive-i4"
                                                         : "file-mixed";
  const char *Argv[] = {"/proc/self/exe", "setup",       "--workload",
                        Workload,         "--dir",       A.Dir.c_str(),
                        nullptr};
  double T0 = nowSeconds();
  return runSelf(Argv) - T0;
}

/// One speed probe, in a new `frost-bench probe` process: in this one it
/// would share the heap frost's work left behind, and add its memory to
/// the peak RSS this process reports.
double speedProbe() {
  const char *Argv[] = {"/proc/self/exe", "probe", nullptr};
  return runSelf(Argv);
}

//===----------------------------------------------------------------------===//
// run: the campaign workloads
//===----------------------------------------------------------------------===//

struct Rounds {
  std::vector<double> Cold, Warm, Requests, Setup, Speed;
  uint64_t Attempted = 0;
  unsigned N = 0;
};

/// Repeats \p Round until \p Seconds have passed (at least twice), so every
/// run attempts whole rounds.
void repeat(double Seconds, const std::function<void()> &Round,
            unsigned &N) {
  double End = nowSeconds() + Seconds;
  do {
    Round();
    ++N;
  } while (nowSeconds() < End || N < 2);
}

/// The per-layer metrics of one traced repetition.
struct TracedRep {
  double Wall = 0; ///< Traced campaigns, codegen probe excluded.
  std::map<std::string, double> Self;
  uint64_t Functions = 0, Invalid = 0, Hits = 0, Misses = 0, Inputs = 0,
           CheckedInputs = 0, AAQueries = 0, Batches = 0, Fallbacks = 0,
           Spills = 0, Enumerated = 0;
};

/// One traced repetition of \p Jobs. When \p Space is set (the exhaustive
/// workloads), a separate part then enumerates as many functions of that
/// space as the campaigns checked, timed in its own span: the sample is
/// checked from a module, so the campaigns themselves do not enumerate.
TracedRep tracedRep(std::vector<Job> &Jobs, const std::string &CacheFile,
                    const std::vector<tv::CampaignResult> &Untraced,
                    Tracer &T, const tv::CampaignOptions *Space = nullptr) {
  TracedRep Out;
  tv::VerdictCache VC;
  if (!CacheFile.empty() && !VC.load(CacheFile))
    fail("cannot load " + CacheFile);
  T.clear();
  uint64_t AA = counter("aa.queries"), Batches = counter("tv.bitsliced_batches"),
           Fallbacks = counter("tv.scalar_fallbacks"),
           Spills = counter("cg.spills");
  double T0 = nowSeconds();
  for (size_t I = 0; I != Jobs.size(); ++I) {
    tv::CampaignOptions O = Jobs[I].Opts;
    O.Cache = &VC;
    Counts C = tracedCampaign(O, T, Out.CheckedInputs);
    Counts Expected = Counts::of(Untraced[I]);
    if (!(C == Expected))
      fail("traced campaign " + Jobs[I].Name + " did different work: " +
           C.str() + " vs runCampaign's " + Expected.str());
    Out.Functions += C.Functions;
    Out.Invalid += C.Invalid;
    Out.Hits += C.Hits;
    Out.Misses += C.Misses;
    Out.Inputs += C.InputsChecked;
  }
  Out.Wall = nowSeconds() - T0;
  if (Space)
    Out.Enumerated = tracedEnumerate(Space->Enum, Out.Functions, T);
  Out.Self = T.selfTimes();
  Out.Wall -= Out.Self["codegen.compile"];
  Out.AAQueries = counter("aa.queries") - AA;
  Out.Batches = counter("tv.bitsliced_batches") - Batches;
  Out.Fallbacks = counter("tv.scalar_fallbacks") - Fallbacks;
  Out.Spills = counter("cg.spills") - Spills;
  return Out;
}

/// The layer metrics shared by every workload, from the fastest traced
/// repetition \p R against the fastest untraced one (\p Untraced seconds).
void layerMetrics(TracedRep &R, double Untraced, double CacheLoad,
                  double CacheSave) {
  double N = double(R.Functions);
  auto Us = [&](const char *Span) { return ratio(R.Self[Span] * 1e6, N); };
  double Probe = R.Self["codegen.compile"];
  double E2E = std::max(0.0, R.Self["tv.e2e"] - Probe);
  double Layers = 0;
  for (const auto &[Name, S] : R.Self)
    if (Name != "campaign" && Name != "fuzz.enumerate")
      Layers += S;
  Layers -= Probe; // The probe's time is moved out of tv.e2e, not added.
  metric("fuzz.enumerate_us", "us/fn",
         ratio(R.Self["fuzz.enumerate"] * 1e6, double(R.Enumerated)));
  metric("ir.print_us", "us/fn", Us("ir.print"));
  metric("ir.clone_us", "us/fn", Us("ir.clone"));
  metric("ir.canon_us", "us/fn", Us("ir.canon"));
  metric("ir.context_us", "us/fn", Us("ir.context"));
  metric("parser.parse_us", "us/fn", Us("parser.parse"));
  metric("opt.pm_build_us", "us/fn", Us("opt.pm_build"));
  metric("opt.pipeline_us", "us/fn", Us("opt.pipeline"));
  metric("analysis.aa_queries", "queries/fn", ratio(double(R.AAQueries), N));
  metric("sem.batches", "batches/fn", ratio(double(R.Batches), N));
  metric("sem.fallback_share", "ratio",
         ratio(double(R.Fallbacks), double(R.Inputs)));
  metric("tv.check_us", "us/fn", Us("tv.check"));
  metric("tv.check_tuples_per_s", "tuples/s",
         ratio(double(R.CheckedInputs), R.Self["tv.check"]));
  metric("tv.blame_us", "us/invalid-fn",
         ratio(R.Self["tv.blame"] * 1e6, double(R.Invalid)));
  metric("tv.e2e_us", "us/fn", ratio(E2E * 1e6, N));
  metric("tv.sanitizer_us", "us/fn", Us("tv.sanitizer"));
  metric("tv.cache_lookup_us", "us/fn", Us("tv.cache_lookup"));
  metric("tv.cache_insert_us", "us/fn", Us("tv.cache_insert"));
  metric("tv.book_us", "us/fn", Us("tv.book"));
  metric("tv.cache_hit_share", "ratio",
         ratio(double(R.Hits), double(R.Hits + R.Misses)));
  metric("tv.checks_run", "checks", double(R.Misses));
  metric("tv.cache_load_ms", "ms", CacheLoad * 1e3);
  metric("tv.cache_save_ms", "ms", CacheSave * 1e3);
  metric("codegen.compile_us", "us/fn", ratio(Probe * 1e6, N));
  metric("codegen.spills", "spills/fn", ratio(double(R.Spills), N));
  metric("trace.coverage", "ratio", ratio(Layers, Untraced));
  metric("trace.overhead", "ratio", ratio(R.Wall, Untraced) - 1);
  metric("trace.functions", "count", N);
}

void serviceMetrics(double Rtt, double Interactive, double Overhead,
                    double Waits, double Util) {
  metric("service.rtt_ms", "ms", Rtt);
  metric("service.interactive_p50_ms", "ms", Interactive);
  metric("service.overhead_ms", "ms", Overhead);
  metric("service.backpressure_waits", "waits", Waits);
  metric("support.cpu_util", "ratio", Util);
}

/// Saves the cache a cold repetition leaves and loads a warm cache file:
/// the two cache-file operations, timed.
void timeCacheFiles(std::vector<Job> &Jobs, const std::string &Dir,
                    const std::string &Preload, const std::string &WarmFile,
                    std::vector<double> &Load, std::vector<double> &Save) {
  tv::VerdictCache VC;
  std::vector<tv::CampaignResult> Rs;
  runJobs(Jobs, Preload, Rs, &VC);
  double T0 = nowSeconds();
  if (!VC.save(Dir + "/trace.cache"))
    fail("cannot save the cache");
  Save.push_back(nowSeconds() - T0);
  tv::VerdictCache Warm;
  T0 = nowSeconds();
  if (!Warm.load(WarmFile))
    fail("cannot load " + WarmFile);
  Load.push_back(nowSeconds() - T0);
}

int runCampaignWorkload(const Args &A) {
  const std::string &D = A.Dir;
  const bool Exhaustive =
      A.W == Workload::ExhaustiveI1 || A.W == Workload::ExhaustiveI4;
  const unsigned Width = A.W == Workload::ExhaustiveI4 ? 4 : 1;
  const std::string WarmFile = D + "/warm.cache";

  std::string Input = setUp(D);
  std::vector<Job> Jobs = workloadJobs(A.W, Input);
  // Each job's requests: its own space's functions (for the exhaustive
  // workloads, RequestsPerRep of the sample's, evenly spaced through it).
  std::vector<std::vector<std::string>> ReqFns;
  size_t NReq = 0;
  for (const Job &J : Jobs) {
    std::vector<std::string> Fns = standaloneFunctions(J.Opts.FileText);
    if (Exhaustive) {
      std::vector<std::string> Stride;
      for (size_t I = 0; I != RequestsPerRep; ++I)
        Stride.push_back(Fns[I * Fns.size() / RequestsPerRep]);
      Fns = std::move(Stride);
    }
    NReq += Fns.size();
    ReqFns.push_back(std::move(Fns));
  }

  std::vector<tv::CampaignResult> Cold, Warm, First;
  std::vector<std::vector<tv::CampaignResult>> Req(Jobs.size());
  Rounds R;

  if (!A.Trace) {
    repeat(A.Seconds, [&] {
      R.Speed.push_back(speedProbe());
      if (R.Setup.size() < SetupsPerRun)
        R.Setup.push_back(coldSetUp(A));
      std::vector<double> ColdT = runJobs(Jobs, "", Cold);
      R.Cold.push_back(total(ColdT));
      if (First.empty())
        First = Cold;
      else
        for (size_t I = 0; I != Cold.size(); ++I)
          if (Cold[I].report() != First[I].report())
            fail("a cold repetition's report changed between repetitions");
      R.Attempted += functionsOf(Cold);

      // Warm and request repetitions are far cheaper than a cold one; a
      // round repeats them for about half as long as its cold repetition
      // took, so that their bests too are drawn from many moments.
      double Spent = 0;
      do {
        double Start = nowSeconds();
        std::vector<double> WarmT = runJobs(Jobs, WarmFile, Warm);
        R.Warm.push_back(total(WarmT));
        checkWarm(Cold, Warm);
        R.Attempted += functionsOf(Warm);

        // Requests: single-function campaigns against the warm cache.
        tv::VerdictCache VC;
        VC.load(WarmFile);
        double T0 = nowSeconds();
        for (size_t J = 0; J != Jobs.size(); ++J) {
          Req[J].clear();
          for (const std::string &Fn : ReqFns[J])
            Req[J].push_back(runRequest(Jobs[J], Fn, VC));
        }
        R.Requests.push_back(nowSeconds() - T0);
        R.Attempted += NReq;
        checkRequests(A.W, Jobs, Cold, Req);
        Spent += nowSeconds() - Start;
      } while (Spent < total(ColdT) / 2);
      std::fprintf(stderr, "round %u: cold %.4f s, warm best %.4f s, "
                   "requests best %.4f s\n",
                   R.N, total(ColdT), minOf(R.Warm), minOf(R.Requests));
    }, R.N);
    double Rss = peakRssMb();

    // Checks outside the timed repetitions.
    if (Exhaustive) {
      checkExhaustive(Width, Cold[0]);
      // A subsample (the request functions) checked three ways must give
      // the same report bytes: this engine, the scalar engine, no cache.
      std::string Requests;
      for (const std::string &Fn : ReqFns[0])
        Requests += Fn + "\n";
      tv::CampaignOptions Sub = requestOptions(Jobs[0], Requests);
      std::string Ref = tv::runCampaign(Sub).report();
      tv::CampaignOptions Scalar = Sub;
      Scalar.TV.Engine = tv::TVEngine::Scalar;
      tv::CampaignOptions NoCache = Sub;
      NoCache.UseVerdictCache = false;
      if (tv::runCampaign(Scalar).report() != Ref)
        fail("subsample report differs from the scalar engine's");
      if (tv::runCampaign(NoCache).report() != Ref)
        fail("subsample report differs with the verdict cache off");
    } else {
      checkFileMixed(Jobs, Cold);
    }

    uint64_t Fns1 = functionsOf(Cold);
    const double Slow = slowdown(R.Speed);
    metric("fns_per_s", "functions/s", double(Fns1) / minOf(R.Cold) * Slow);
    metric("warm_fns_per_s", "functions/s",
           double(Fns1) / minOf(R.Warm) * Slow);
    metric("requests_per_s", "requests/s",
           double(NReq) / minOf(R.Requests) * Slow);
    metric("setup_s", "s", minOf(R.Setup) / Slow);
    metric("peak_rss_mb", "MB", Rss);
    Attempted = R.Attempted;
    std::fprintf(stderr,
                 "frost-bench: %u rounds; cold best %.4f s, warm best %.4f "
                 "s, requests best %.4f s, set-up best %.4f s, speed probe "
                 "best %.4f s (slowdown %.3f)\n",
                 R.N, minOf(R.Cold), minOf(R.Warm), minOf(R.Requests),
                 minOf(R.Setup), minOf(R.Speed), Slow);
    return 0;
  }

  // Traced run: untraced and traced cold repetitions alternate; the
  // per-layer numbers come from the fastest traced one.
  Tracer T;
  TracedRep Best;
  Tracer BestTrace;
  std::vector<double> Untraced, Load, Save;
  const tv::CampaignOptions Space = exhaustiveSpace(Width);
  repeat(A.Seconds, [&] {
    Untraced.push_back(total(runJobs(Jobs, "", Cold)));
    TracedRep Rep = tracedRep(Jobs, "", Cold, T, Exhaustive ? &Space : nullptr);
    if (Best.Functions == 0 || Rep.Wall < Best.Wall) {
      Best = Rep;
      BestTrace = T;
    }
    timeCacheFiles(Jobs, D, "", WarmFile, Load, Save);
    R.Attempted += 2 * functionsOf(Cold);
  }, R.N);
  Attempted = R.Attempted;
  layerMetrics(Best, minOf(Untraced), minOf(Load), minOf(Save));
  serviceMetrics(0, 0, 0, 0, 0);
  if (!A.TraceOut.empty())
    BestTrace.write(A.TraceOut);
  return 0;
}

//===----------------------------------------------------------------------===//
// run: daemon-mixed
//===----------------------------------------------------------------------===//

int runDaemonWorkload(const Args &A) {
  const std::string &D = A.Dir;
  const std::string Preload = D + "/preload.cache", WarmFile = D + "/warm.cache";
  std::string Module = readFile(D + "/module.fr");
  std::string Novel = readFile(D + "/novel.fr");
  std::string Error;
  if (!tv::validateFileCampaign(Module, "module.fr", &Error) ||
      !tv::validateFileCampaign(Novel, "novel.fr", &Error)) {
    std::fprintf(stderr, "frost-bench: %s\n", Error.c_str());
    return 2;
  }
  std::vector<std::string> Cached = standaloneFunctions(Module);
  std::vector<std::string> NovelFns = standaloneFunctions(Novel);
  // The same traffic, batched in-process: the baseline the daemon has to
  // beat (README.md, "Does the service earn its lines?").
  std::vector<Job> Jobs = workloadJobs(Workload::DaemonMixed, Module + Novel);

  // The requests and the report each must get back: the in-process
  // single-function campaign's (reports do not depend on cache state).
  std::vector<DaemonRequest> Bulk, Inter, Probe;
  tv::VerdictCache Ref;
  auto Request = [&](const Config &C, const std::string &Fn, bool IsNovel) {
    tv::CampaignOptions O = fileOptions(C, Fn);
    O.Cache = &Ref;
    return DaemonRequest{&C, Fn, tv::runCampaign(O).report(), IsNovel};
  };
  for (const Config &C : daemonConfigs()) {
    for (const std::string &Fn : Cached)
      Bulk.push_back(Request(C, Fn, false));
    for (const std::string &Fn : NovelFns)
      Bulk.push_back(Request(C, Fn, true));
  }
  // The bulk stream is interleaved in the same order for every seed: which
  // requests meet on the daemon's two workers sets its peak memory and how
  // evenly they share the work, and with a seeded order the daemon's peak
  // RSS took 7.6 or 8.3 MB and its throughput moved by 20% with the seed.
  std::mt19937_64 Rng(3);
  std::shuffle(Bulk.begin(), Bulk.end(), Rng);
  std::vector<DaemonRequest> CachedIR;
  for (const DaemonRequest &Q : Bulk)
    if (!Q.Novel && Q.Cfg == &daemonConfigs()[0])
      CachedIR.push_back(Q);
  for (unsigned I = 0; I != RequestsPerRep; ++I)
    Inter.push_back(CachedIR[I % CachedIR.size()]);
  if (A.Trace)
    Probe.assign(CachedIR.begin(), CachedIR.end());
  const uint64_t NovelRequests = NovelFns.size() * daemonConfigs().size();

  auto CheckDaemon = [&](const DaemonRepResult &DR) {
    Attempted += DR.BulkAnswered + DR.InteractiveAnswered + DR.ProbeRttMs.size();
    if (DR.BulkAnswered != Bulk.size() ||
        DR.InteractiveAnswered != Inter.size())
      fail("not every daemon request was answered");
    if (DR.Wrong) {
      OperationsFailed += DR.Wrong;
      fail(std::to_string(DR.Wrong) +
           " daemon responses differ from the in-process reports");
    }
    if (DR.CacheMisses > NovelRequests)
      fail("daemon cache misses " + std::to_string(DR.CacheMisses) +
           " exceed the novel requests sent, " +
           std::to_string(NovelRequests));
  };

  std::vector<tv::CampaignResult> Rs, Ws;
  unsigned N = 0;
  if (!A.Trace) {
    std::vector<double> Cold, Warm, BulkT, Rss, Setup, Speed;
    repeat(A.Seconds, [&] {
      Speed.push_back(speedProbe());
      std::vector<double> ColdT = runJobs(Jobs, Preload, Rs);
      std::vector<double> WarmT = runJobs(Jobs, WarmFile, Ws);
      Cold.push_back(total(ColdT));
      Warm.push_back(total(WarmT));
      checkWarm(Rs, Ws);
      DaemonRepResult DR = runDaemonRep(A.Tvd, D, Preload, Bulk, Inter, {});
      Setup.push_back(DR.SetupSeconds);
      CheckDaemon(DR);
      BulkT.push_back(DR.BulkSeconds);
      std::fprintf(stderr,
                   "round %u: batched %.4f s, warm %.4f s, daemon bulk %.4f "
                   "s, interactive p50 %.3f ms\n",
                   N, total(ColdT), total(WarmT), DR.BulkSeconds,
                   percentile(DR.InteractiveMs, 50));
      Rss.push_back(DR.PeakRssMb);
    }, N);
    for (size_t I = 0; I != Jobs.size(); ++I)
      expectClean(Jobs[I].Name + " (batched bulk traffic)", Rs[I]);
    double Fns = double(functionsOf(Rs));
    const double Slow = slowdown(Speed);
    metric("fns_per_s", "functions/s", Fns / minOf(Cold) * Slow);
    metric("warm_fns_per_s", "functions/s", Fns / minOf(Warm) * Slow);
    metric("requests_per_s", "requests/s",
           double(Bulk.size()) / minOf(BulkT) * Slow);
    // Every repetition starts a new daemon process, so each set-up is a
    // cold one.
    metric("setup_s", "s", minOf(Setup) / Slow);
    metric("peak_rss_mb", "MB", minOf(Rss));
    std::fprintf(stderr,
                 "frost-bench: %u rounds; batched best %.4f s, warm best "
                 "%.4f s, daemon bulk best %.4f s, set-up best %.4f s, speed "
                 "probe best %.4f s (slowdown %.3f)\n",
                 N, minOf(Cold), minOf(Warm), minOf(BulkT), minOf(Setup),
                 minOf(Speed), Slow);
    return 0;
  }

  Tracer T, BestTrace;
  TracedRep Best;
  std::vector<double> Untraced, Load, Save, Rtt, Inter50, Overhead, Waits;
  double BestBulk = 0, Util = 0;
  repeat(A.Seconds, [&] {
    Untraced.push_back(total(runJobs(Jobs, Preload, Rs)));
    TracedRep Rep = tracedRep(Jobs, Preload, Rs, T);
    if (Best.Functions == 0 || Rep.Wall < Best.Wall) {
      Best = Rep;
      BestTrace = T;
    }
    timeCacheFiles(Jobs, D, Preload, WarmFile, Load, Save);

    DaemonRepResult DR = runDaemonRep(A.Tvd, D, Preload, Bulk, Inter, Probe);
    CheckDaemon(DR);
    // The same probe requests in-process, from the same cache state.
    tv::VerdictCache VC;
    VC.load(Preload);
    std::vector<double> Diff;
    for (size_t I = 0; I != Probe.size() && I != DR.ProbeRttMs.size(); ++I) {
      Job J{Probe[I].Cfg->Name, fileOptions(*Probe[I].Cfg, "")};
      double S = nowSeconds();
      runRequest(J, Probe[I].Function, VC);
      Diff.push_back(DR.ProbeRttMs[I] - (nowSeconds() - S) * 1e3);
    }
    Rtt.push_back(percentile(DR.BulkRttMs, 50));
    Inter50.push_back(percentile(DR.InteractiveMs, 50));
    Overhead.push_back(percentile(Diff, 50));
    Waits.push_back(double(DR.BackpressureWaits));
    if (BestBulk == 0 || DR.BulkSeconds < BestBulk) {
      BestBulk = DR.BulkSeconds;
      Util = ratio(DR.CpuSeconds, DR.BulkSeconds * 2);
    }
  }, N);
  layerMetrics(Best, minOf(Untraced), minOf(Load), minOf(Save));
  serviceMetrics(minOf(Rtt), minOf(Inter50), minOf(Overhead),
                 percentile(Waits, 50), Util);
  if (!A.TraceOut.empty())
    BestTrace.write(A.TraceOut);
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr, "frost-bench: %s\n", Why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args A;
  if (argc < 2)
    usage("usage: frost-bench gen|run|setup --workload W --dir D ... | probe");
  A.Mode = argv[1];
  if (A.Mode == "probe") {
    // The first probe of a new process meets cold caches; the second is
    // the measurement.
    speedProbeSeconds();
    std::printf("%.9f\n", speedProbeSeconds());
    return 0;
  }
  for (int I = 2; I < argc; ++I) {
    std::string F = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + F).c_str());
    std::string V = argv[++I];
    if (F == "--workload") {
      if (V == "exhaustive-i1")
        A.W = Workload::ExhaustiveI1;
      else if (V == "exhaustive-i4")
        A.W = Workload::ExhaustiveI4;
      else if (V == "file-mixed")
        A.W = Workload::FileMixed;
      else if (V == "daemon-mixed")
        A.W = Workload::DaemonMixed;
      else
        usage(("unknown workload " + V).c_str());
    } else if (F == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (F == "--dir")
      A.Dir = V;
    else if (F == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (F == "--trace")
      A.Trace = V == "1";
    else if (F == "--tvd")
      A.Tvd = V;
    else if (F == "--trace-out")
      A.TraceOut = V;
    else
      usage(("unknown flag " + F).c_str());
  }
  if (A.Dir.empty())
    usage("--dir is required");
  if (A.Mode == "gen")
    return gen(A);
  if (A.Mode == "setup") {
    if (A.W == Workload::DaemonMixed)
      usage("daemon-mixed times the daemon's own start");
    setUp(A.Dir);
    std::printf("%.9f\n", nowSeconds());
    return 0;
  }
  if (A.Mode != "run")
    usage("mode must be gen, run or setup");

  int RC = A.W == Workload::DaemonMixed ? runDaemonWorkload(A)
                                        : runCampaignWorkload(A);
  if (RC)
    return RC;
  std::string Json = "{\"correct\": ";
  Json += failed() ? "false" : "true";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(OperationsFailed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
