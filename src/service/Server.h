//===- Server.h - The frost-tvd verification daemon -------------*- C++ -*-===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running verification service the ROADMAP's "millions of users"
/// architecture calls for: a loopback TCP daemon that accepts batched
/// verification requests (one standalone function + campaign config per
/// frame, see service/Protocol.h), routes each through tv::runCampaign with
/// one shared VerdictCache kept hot in memory, and answers with the exact
/// report bytes `frost-tv --file` would print — so CI fleets re-checking a
/// pass change pay a cache lookup per already-seen function and burn CPU
/// only on novel ones.
///
/// Concurrency shape: an accept thread spawns one reader thread per
/// connection; readers admit jobs through the two-lane LaneScheduler
/// (interactive overtakes bulk; full lanes block the reader — backpressure
/// via TCP) onto one shared work-stealing ThreadPool. Each job runs a
/// single-function file-source campaign with Jobs=1 — parallelism lives in
/// the service, not nested pools. Responses are written strictly in each
/// connection's request order (out-of-order completions are buffered), so
/// `stats` sampled after a batch observes every prior response on that
/// connection.
///
/// Persistence: the verdict cache and the deduplicated counterexample
/// corpus (service/Corpus.h) are written atomically every PersistEvery
/// completed requests and again at shutdown, so a crash loses at most one
/// window of verdicts — and concurrent CLI runs sharing the --cache-file
/// are safe against the daemon's persist (unique temp names, see
/// support/AtomicFile.h).
///
/// Observability: svc.* counters (requests, per-lane admissions and depths,
/// verdict tallies, cache hit/miss, corpus size, persists, backpressure
/// waits) via the `stats` frame.
///
//===----------------------------------------------------------------------===//

#ifndef FROST_SERVICE_SERVER_H
#define FROST_SERVICE_SERVER_H

#include "service/Corpus.h"
#include "service/Lanes.h"
#include "service/Protocol.h"
#include "service/Socket.h"
#include "support/ThreadPool.h"
#include "tv/VerdictCache.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace frost {
namespace svc {

struct ServerOptions {
  unsigned Port = 0;           ///< 0 = ephemeral; read back via port().
  unsigned Jobs = 0;           ///< Verification workers; 0 = hardware.
  std::string CacheFile;       ///< Verdict-cache persistence (empty = off).
  std::string CorpusFile;      ///< Corpus persistence (empty = off).
  uint64_t PersistEvery = 256; ///< Completed requests per persist window.
  uint64_t LaneCapacity = 128; ///< Queued jobs per lane before backpressure.
  /// Upper bound on any single frame blob; larger lengths are a framing
  /// error (connection closed) before any allocation.
  uint64_t MaxBlobBytes = 1 << 20;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the accept thread. False with \p Error if
  /// the port cannot be bound.
  bool start(std::string *Error);

  /// The bound port (valid after start()).
  unsigned port() const { return BoundPort; }

  /// Initiates shutdown: stops accepting, unblocks connection readers,
  /// drains admitted jobs, persists. Idempotent; safe from any thread and
  /// from a signal handler's perspective only via the listen-fd shutdown
  /// (no locks are taken before the flag is set).
  void requestShutdown();

  /// Blocks until the daemon has fully shut down (accept thread joined,
  /// jobs drained, state persisted, listen fd closed).
  void wait();

  /// The shared in-memory verdict cache (e.g. to preload before start()).
  tv::VerdictCache &cache() { return Cache; }

  /// The counterexample corpus (e.g. to preload before start()).
  Corpus &corpus() { return Cex; }

  /// The `stats` frame payload: svc.* counters plus live gauges (lane
  /// depths, cache entries, corpus size), one "name = value" per line,
  /// sorted by name.
  std::string statsReport() const;

  /// Completed requests since start (all verdicts, including errors).
  uint64_t completedRequests() const { return Completed.load(); }

private:
  struct Connection;

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  Response handleRequest(const Request &Req);
  /// Books one finished request; returns the new completion count.
  uint64_t countCompleted();
  void persist(bool Force);
  void drainPool();

  ServerOptions Opts;
  ThreadPool Pool;
  LaneScheduler Lanes;
  tv::VerdictCache Cache;
  Corpus Cex;

  /// Written by start() and wait(), read by requestShutdown() from any
  /// thread (a signal handler included), hence atomic.
  std::atomic<int> ListenFd{-1};
  unsigned BoundPort = 0;
  std::thread AcceptThread;
  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Started{false};

  std::mutex ConnMutex;
  std::vector<std::shared_ptr<Connection>> Conns; ///< Live connections.
  std::vector<std::thread> Readers;

  std::atomic<uint64_t> Completed{0};
  std::mutex PersistMutex;
};

} // namespace svc
} // namespace frost

#endif // FROST_SERVICE_SERVER_H
