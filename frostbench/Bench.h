//===- Bench.h - Shared declarations of the frost benchmark ------*- C++ -*-===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark harness (frost-bench) measures frost's campaigns and its
/// daemon end to end, and, in a separate traced run, layer by layer. This
/// header holds what its parts share: the workloads' campaign
/// configurations, the seeded inputs, the span tracer and the traced
/// mirror of tv::runCampaign, and the daemon driver. README.md says why
/// each workload and metric exists.
///
//===----------------------------------------------------------------------===//

#ifndef FROSTBENCH_BENCH_H
#define FROSTBENCH_BENCH_H

#include "fuzz/Enumerate.h"
#include "ir/Function.h"
#include "tv/Campaign.h"
#include "tv/VerdictCache.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace frostbench {

using namespace frost;

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A check on the program's outputs failed: the run reports correct=false.
void fail(const std::string &Why);
bool failed();

/// One run of the machine's speed probe (SpeedProbe.cpp): a fixed piece of
/// work in the benchmark's own code, no frost code. Returns its wall time.
double speedProbeSeconds();
/// The probe's best time on the reference machine (README.md, "Reference
/// figures"). A run whose best probe took longer ran on a slower machine,
/// or in a slower phase of this one, by that ratio.
constexpr double SpeedProbeReferenceSeconds = 0.018;

/// Reads a whole file; aborts the run (exit 2) when it cannot.
std::string readFile(const std::string &Path);
void writeFile(const std::string &Path, const std::string &Text);

//===----------------------------------------------------------------------===//
// Workloads and their inputs (Inputs.cpp)
//===----------------------------------------------------------------------===//

/// One campaign configuration a workload runs over its space.
struct Config {
  const char *Name;
  tv::CampaignKind Kind;
  PipelineMode Pipeline;
  const char *Semantics; ///< svc::semanticsFromName token.
  const char *Passes;    ///< Empty = the default preset.
  bool MemorySliceOnly;  ///< Runs over the memory slice, not the module.
};

/// The five file-mixed configurations, in cold-pass order.
const std::vector<Config> &fileMixedConfigs();
/// The two kinds daemon-mixed sends: the proposed IR and the end-to-end
/// configurations of file-mixed.
const std::vector<Config> &daemonConfigs();

/// The whole exhaustive space of exhaustive-i1 (Width 1) / exhaustive-i4
/// (Width 4), uncapped: what the seeded sample is drawn from.
tv::CampaignOptions exhaustiveSpace(unsigned Width);
/// Functions in the seeded sample of the Width space.
unsigned exhaustiveSampleSize(unsigned Width);
/// The campaign exhaustive-i1/i4 time: the sample module \p Text through
/// the File source, on the scalar engine (i1) or the bit-sliced one (i4).
tv::CampaignOptions exhaustiveOptions(unsigned Width, const std::string &Text);
/// A File-source campaign of \p Text under \p C, as frost-tv --file
/// --compare-memory runs it (and as frost-tvd serves one request).
tv::CampaignOptions fileOptions(const Config &C, const std::string &Text);

/// Section 3 functions of the hand-written part of file-mixed, with the
/// legacy pass the paper blames for each.
struct HandWritten {
  const char *Name;
  const char *BlamedPass;
};
const std::vector<HandWritten> &handWrittenFunctions();

/// The make-up of a generated file-mixed module, for the README.
struct MixedCounts {
  unsigned Random = 0, MemUndefStore = 0, MemOther = 0, HandWritten = 0;
};
/// The file-mixed module for \p Seed: random programs, a slice of the
/// exhaustive memory space, and the hand-written Section 3 functions.
std::string generateFileMixed(uint64_t Seed, MixedCounts *Counts = nullptr);
/// The novel daemon-mixed functions: random programs from a generator
/// seed range disjoint from file-mixed's (fixed; README.md says why).
std::string generateNovel();

/// The strata of the exhaustive sample: what sets a function's checking
/// cost. 0 plain, 1 select, 2 a freeze, 3 a freeze of a poison-fed value
/// (every input tuple falls back from the bit-sliced to the scalar engine).
constexpr unsigned NumCostClasses = 4;
unsigned costClass(const Function &F);
const char *costClassName(unsigned Class);

/// The make-up of an exhaustive sample, for the README.
struct SampleCounts {
  uint64_t SpaceSize = 0;
  uint64_t InSpace[NumCostClasses] = {}, InSample[NumCostClasses] = {};
  /// Per opcode, the sampled functions holding at least one instruction
  /// of it (ret aside).
  std::map<std::string, unsigned> WithOpcode;
};
/// A module of exhaustiveSampleSize(\p Width) functions drawn by \p Seed
/// from the whole Width space, stratified by cost class with proportional
/// allocation, in enumeration order.
std::string generateExhaustiveSample(unsigned Width, uint64_t Seed,
                                     SampleCounts *Counts = nullptr);

/// The stores to global memory in the printed function \p Fn. Legacy DSE
/// deletes a last store of undef as a no-op, leaving what the memory held
/// before; when that store was the only one, that is the initial memory.
struct GlobalStores {
  unsigned Count = 0;
  bool LastUndef = false;
  bool onlyUndef() const { return Count == 1 && LastUndef; }
};
GlobalStores globalStores(const std::string &Fn);
/// The memory-slice functions of a file-mixed module, as a module.
std::string memorySlice(const std::string &Module);

/// Standalone text (printFunction) of every defined function of \p Text.
std::vector<std::string> standaloneFunctions(const std::string &Text);
/// Names of the defined functions of \p Text, in module order.
std::vector<std::string> functionNames(const std::string &Text);

//===----------------------------------------------------------------------===//
// Tracing (Trace.cpp)
//===----------------------------------------------------------------------===//

/// Spans kept in memory and written out when the run ends. Single-threaded:
/// spans nest, so a span's children are the spans opened while it is open.
class Tracer {
public:
  struct Span {
    const char *Name;
    double Start = 0, End = 0;
    int Parent = -1;
  };

  int begin(const char *Name);
  void end(int Id);
  void clear() {
    Spans.clear();
    Open = -1;
  }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, double> selfTimes() const;
  /// Writes one line per span: id, parent, name, start and end (seconds
  /// from the first span).
  void write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int Open = -1;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name) : T(T), Id(T ? T->begin(Name) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int Id;
};

/// The counts a traced campaign and tv::runCampaign must agree on.
struct Counts {
  uint64_t Functions = 0, Changed = 0, Valid = 0, Invalid = 0,
           Inconclusive = 0, InputsChecked = 0, Hits = 0, Misses = 0;
  bool operator==(const Counts &) const = default;
  static Counts of(const tv::CampaignResult &R);
  std::string str() const;
};

/// Runs the File-source campaign \p Opts the way tv::runCampaign does at
/// Jobs = 1, recording a span around every call into a layer. \p Opts.Cache
/// must be set. Returns the campaign's counts; adds to \p CheckedInputs the
/// input tuples of the refinement checks it ran.
Counts tracedCampaign(const tv::CampaignOptions &Opts, Tracer &T,
                      uint64_t &CheckedInputs);
/// Enumerates the first \p Count functions of \p Enum's space in a
/// "fuzz.enumerate" span, the callback doing nothing but count them, as
/// the Exhaustive source of a campaign capped at \p Count would. Returns
/// the functions enumerated.
uint64_t tracedEnumerate(const fuzz::EnumOptions &Enum, uint64_t Count,
                         Tracer &T);

//===----------------------------------------------------------------------===//
// The daemon (Daemon.cpp)
//===----------------------------------------------------------------------===//

struct DaemonRequest {
  const Config *Cfg;
  std::string Function;       ///< Standalone text.
  std::string ExpectedReport; ///< In-process single-function report.
  bool Novel = false;
};

struct DaemonRepResult {
  double SetupSeconds = 0;     ///< Spawn until the port file exists.
  double BulkSeconds = 0;      ///< First bulk send to last bulk response.
  uint64_t BulkAnswered = 0, InteractiveAnswered = 0, Wrong = 0;
  std::vector<double> InteractiveMs; ///< One per interactive request.
  std::vector<double> BulkRttMs;     ///< Send to response, per bulk request.
  std::vector<double> ProbeRttMs;    ///< Unloaded closed loop (traced runs).
  uint64_t CacheMisses = 0, BackpressureWaits = 0;
  double PeakRssMb = 0, CpuSeconds = 0;
};

/// One repetition: spawns frost-tvd (\p TvdPath) with a private copy of
/// \p CacheFile in a fresh directory under \p WorkDir, sends \p Bulk
/// pipelined on one connection while a second runs \p Interactive closed
/// loop, then (when \p Probe is non-empty) the unloaded closed loop
/// \p Probe, samples stats and memory, and ends the daemon with the
/// shutdown frame. Any error kills and reaps the daemon and removes the
/// directory before returning.
DaemonRepResult runDaemonRep(const std::string &TvdPath,
                             const std::string &WorkDir,
                             const std::string &CacheFile,
                             const std::vector<DaemonRequest> &Bulk,
                             const std::vector<DaemonRequest> &Interactive,
                             const std::vector<DaemonRequest> &Probe);

/// Peak resident set of process \p Pid (0 = this process), in MB.
double peakRssMb(int Pid = 0);

} // namespace frostbench

#endif // FROSTBENCH_BENCH_H
