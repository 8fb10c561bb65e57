//===- Daemon.cpp - One daemon-mixed repetition against frost-tvd ---------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each repetition starts frost-tvd afresh from the same preloaded cache
/// file, so every repetition does the same work: the cached functions hit
/// and the novel ones miss, every time. The daemon runs in a private
/// directory; it is ended with the shutdown frame and reaped, or, on any
/// error, killed and reaped. PR_SET_PDEATHSIG kills it should this process
/// die first, so no daemon outlives a run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/Client.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace frost;
using namespace frostbench;

double frostbench::peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

namespace {

/// utime + stime of \p Pid, in seconds.
double cpuSeconds(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  size_t Close = All.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Rest(All.substr(Close + 2));
  std::string Field;
  double Ticks = 0;
  // Fields after the command: state is field 3; utime and stime are 14, 15.
  for (int I = 3; I <= 15 && Rest >> Field; ++I)
    if (I >= 14)
      Ticks += std::strtod(Field.c_str(), nullptr);
  return Ticks / double(sysconf(_SC_CLK_TCK));
}

uint64_t statValue(const std::string &Payload, const std::string &Name) {
  size_t At = Payload.find(Name + " = ");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Payload.c_str() + At + Name.size() + 3, nullptr, 10);
}

/// The daemon process and its private directory.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      reap();
    }
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }

  /// Spawns frost-tvd and waits until it listens. Returns the port, or 0.
  unsigned start(const std::string &TvdPath, const std::string &WorkDir,
                 const std::string &CacheFile, double &SetupSeconds) {
    std::string Template = WorkDir + "/tvd-XXXXXX";
    if (!::mkdtemp(Template.data())) {
      fail("cannot make the daemon's directory under " + WorkDir);
      return 0;
    }
    Dir = Template;
    std::string Cache = Dir + "/verdicts.cache";
    std::string PortFile = Dir + "/port";
    std::string Corpus = Dir + "/corpus.fr";
    // The daemon persists its cache at shutdown; a private copy keeps the
    // preloaded file the same for every repetition.
    std::error_code EC;
    std::filesystem::copy_file(CacheFile, Cache, EC);
    if (EC) {
      fail("cannot copy the preloaded cache: " + EC.message());
      return 0;
    }
    std::vector<std::string> Args = {TvdPath,    "--port",       "0",
                                     "--port-file", PortFile,      "--jobs",
                                     "2",          "--cache-file", Cache,
                                     "--corpus",   Corpus,         "--quiet"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);

    pid_t Parent = ::getpid();
    double T0 = nowSeconds();
    Pid = ::fork();
    if (Pid < 0) {
      fail("fork failed");
      return 0;
    }
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    while (true) {
      std::ifstream In(PortFile);
      unsigned Port = 0;
      if (In >> Port && Port) {
        SetupSeconds = nowSeconds() - T0;
        return Port;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        fail("frost-tvd exited before listening");
        return 0;
      }
      if (nowSeconds() - T0 > 60) {
        fail("frost-tvd did not listen within 60 s");
        return 0;
      }
      ::usleep(100);
    }
  }

  /// Waits for the daemon to exit after the shutdown frame.
  bool reap() {
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  void kill() {
    if (Pid > 0)
      ::kill(Pid, SIGKILL);
  }

  int pid() const { return Pid; }

private:
  pid_t Pid = -1;
  std::string Dir;
};

svc::Request makeRequest(const DaemonRequest &D, uint64_t Id, svc::Lane L) {
  svc::Request R;
  R.Id = Id;
  R.L = L;
  R.Kind = D.Cfg->Kind;
  R.Pipeline = D.Cfg->Pipeline;
  R.Semantics = D.Cfg->Semantics;
  R.CompareMemory = true;
  R.Function = D.Function;
  return R;
}

bool answeredRight(const svc::Response &Resp, const DaemonRequest &D) {
  return Resp.V != svc::Response::Verdict::Error &&
         Resp.Report == D.ExpectedReport;
}

} // namespace

DaemonRepResult frostbench::runDaemonRep(
    const std::string &TvdPath, const std::string &WorkDir,
    const std::string &CacheFile, const std::vector<DaemonRequest> &Bulk,
    const std::vector<DaemonRequest> &Interactive,
    const std::vector<DaemonRequest> &Probe) {
  DaemonRepResult Out;
  Daemon D;
  unsigned Port = D.start(TvdPath, WorkDir, CacheFile, Out.SetupSeconds);
  if (!Port)
    return Out;
  svc::Client BulkC, InterC;
  std::string Error;
  if (!BulkC.connect(Port, &Error) || !InterC.connect(Port, &Error)) {
    fail("cannot connect to frost-tvd: " + Error);
    return Out;
  }

  const uint64_t InteractiveIds = uint64_t(1) << 32;
  std::vector<double> SendT(Bulk.size()), RecvT(Bulk.size());
  std::atomic<bool> BulkOK{true};
  std::atomic<uint64_t> Wrong{0}, BulkAnswered{0};
  double CpuBefore = cpuSeconds(D.pid());
  double Start = nowSeconds();
  std::thread Sender([&] {
    for (uint64_t I = 0; I != Bulk.size(); ++I) {
      SendT[I] = nowSeconds();
      if (!BulkC.send(makeRequest(Bulk[I], I, svc::Lane::Bulk))) {
        BulkOK = false;
        return;
      }
    }
  });
  std::thread Receiver([&] {
    for (uint64_t N = 0; N != Bulk.size(); ++N) {
      svc::Response Resp;
      if (!BulkC.receive(Resp) || Resp.Id >= Bulk.size()) {
        BulkOK = false;
        return;
      }
      RecvT[Resp.Id] = nowSeconds();
      ++BulkAnswered;
      if (!answeredRight(Resp, Bulk[Resp.Id]))
        ++Wrong;
    }
  });

  bool InterOK = true;
  for (uint64_t I = 0; I != Interactive.size() && InterOK; ++I) {
    double T0 = nowSeconds();
    svc::Response Resp;
    InterOK = InterC.send(makeRequest(Interactive[I], InteractiveIds + I,
                                      svc::Lane::Interactive)) &&
              InterC.receive(Resp) && Resp.Id == InteractiveIds + I;
    if (!InterOK)
      break;
    Out.InteractiveMs.push_back((nowSeconds() - T0) * 1e3);
    ++Out.InteractiveAnswered;
    if (!answeredRight(Resp, Interactive[I]))
      ++Wrong;
  }
  Sender.join();
  if (!BulkOK || !InterOK)
    D.kill(); // Ends a receiver waiting for responses that cannot come.
  Receiver.join();
  if (!BulkOK || !InterOK) {
    fail("a daemon request was not answered");
    return Out;
  }
  Out.BulkAnswered = BulkAnswered;
  Out.BulkSeconds = 0;
  for (double T : RecvT)
    Out.BulkSeconds = std::max(Out.BulkSeconds, T - Start);
  for (size_t I = 0; I != Bulk.size(); ++I)
    Out.BulkRttMs.push_back((RecvT[I] - SendT[I]) * 1e3);
  Out.CpuSeconds = cpuSeconds(D.pid()) - CpuBefore;

  for (uint64_t I = 0; I != Probe.size(); ++I) {
    double T0 = nowSeconds();
    svc::Response Resp;
    if (!InterC.send(makeRequest(Probe[I], 2 * InteractiveIds + I,
                                 svc::Lane::Interactive)) ||
        !InterC.receive(Resp)) {
      fail("a daemon probe request was not answered");
      return Out;
    }
    Out.ProbeRttMs.push_back((nowSeconds() - T0) * 1e3);
    if (!answeredRight(Resp, Probe[I]))
      ++Wrong;
  }

  std::string Stats;
  if (!BulkC.stats(Stats, &Error)) {
    fail("stats frame failed: " + Error);
    return Out;
  }
  Out.CacheMisses = statValue(Stats, "svc.cache_misses");
  Out.BackpressureWaits = statValue(Stats, "svc.backpressure_waits");
  Out.PeakRssMb = peakRssMb(D.pid());
  Out.Wrong = Wrong;

  if (!BulkC.shutdownServer(&Error)) {
    fail("shutdown frame failed: " + Error);
    return Out;
  }
  BulkC.close();
  InterC.close();
  if (!D.reap())
    fail("frost-tvd did not exit cleanly after shutdown");
  return Out;
}
