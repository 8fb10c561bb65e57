//===- Server.cpp - The frost-tvd verification daemon ----------------------===//
//
// Part of the frost project: a reproduction of "Taming Undefined Behavior in
// LLVM" (PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "opt/Pipeline.h"
#include "support/Stats.h"

#include <map>

#include <sys/socket.h>
#include <unistd.h>

using namespace frost;
using namespace frost::svc;

/// Per-connection state. Responses are computed by pool workers in any
/// order but written in request order: deliver() parks early completions in
/// Ready until every lower sequence number has gone out. Writing happens
/// under WriteM, so frames never interleave.
struct Server::Connection {
  explicit Connection(int Fd) : Stream(Fd) {}

  SocketStream Stream;
  std::mutex WriteM;
  std::condition_variable WriteCV;
  uint64_t NextWrite = 0;                ///< Next sequence number to write.
  std::map<uint64_t, std::string> Ready; ///< Out-of-order completed frames.

  void deliver(uint64_t Seq, std::string Frame) {
    std::unique_lock<std::mutex> Lock(WriteM);
    Ready.emplace(Seq, std::move(Frame));
    while (!Ready.empty() && Ready.begin()->first == NextWrite) {
      std::string Out = std::move(Ready.begin()->second);
      Ready.erase(Ready.begin());
      // A failed write (peer vanished) is deliberately ignored: the
      // verdict was still computed, cached, and corpus-fed.
      Stream.writeAll(Out);
      ++NextWrite;
      WriteCV.notify_all();
    }
  }

  /// Blocks until every sequence number below \p Seq has been written —
  /// the ordering point that makes `stats` after a batch observe all of
  /// the batch's responses (and their counter updates).
  void waitWritten(uint64_t Seq) {
    std::unique_lock<std::mutex> Lock(WriteM);
    WriteCV.wait(Lock, [&] { return NextWrite >= Seq; });
  }
};

Server::Server(ServerOptions O)
    : Opts(O), Pool(O.Jobs), Lanes(Pool, O.LaneCapacity) {}

Server::~Server() {
  if (Started.load()) {
    requestShutdown();
    wait();
  }
}

bool Server::start(std::string *Error) {
  int Fd = listenLoopback(Opts.Port, &BoundPort, Error);
  if (Fd < 0)
    return false;
  ListenFd.store(Fd);
  Started.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestShutdown() {
  if (ShuttingDown.exchange(true))
    return;
  // Only flag + fd shutdown here: accept() wakes with an error, and the
  // accept thread runs the ordered teardown. No locks on this path.
  int Fd = ListenFd.load();
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void Server::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Closed only after the accept thread, which accepts on it, is joined.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0)
    ::close(Fd);
}

void Server::acceptLoop() {
  while (!ShuttingDown.load()) {
    int Fd = acceptConnection(ListenFd);
    if (Fd < 0)
      break; // Listener shut down (or a hard accept error).
    stats::add("svc.connections");
    auto Conn = std::make_shared<Connection>(Fd);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conns.push_back(Conn);
    Readers.emplace_back([this, Conn] { readerLoop(Conn); });
  }

  // Ordered teardown. Unblock every reader stuck in readLine...
  ShuttingDown.store(true);
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto &Conn : Conns)
      Conn->Stream.shutdownRead();
  }
  for (std::thread &R : Readers)
    R.join();
  // ...then drain every admitted job (their responses still go out to
  // connections that are alive), and persist one final time.
  drainPool();
  persist(/*Force=*/true);
}

void Server::drainPool() {
  // The pool's post-fix error contract: wait() rethrows captured task
  // exceptions one per call until clean. Jobs are wrapped so this should
  // never fire, but a daemon must outlive surprises — count, don't crash.
  while (true) {
    try {
      Lanes.drain();
      return;
    } catch (...) {
      stats::add("svc.task_errors");
    }
  }
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  uint64_t Seq = 0;
  std::string Line;
  while (!ShuttingDown.load() && Conn->Stream.readLine(Line)) {
    if (Line == "stats") {
      uint64_t S = Seq++;
      Conn->waitWritten(S); // Sample after every prior response landed.
      std::string Payload = statsReport();
      Conn->deliver(S, "stats " + std::to_string(Payload.size()) + "\n" +
                           Payload + "\n");
      continue;
    }
    if (Line == "shutdown") {
      uint64_t S = Seq++;
      Conn->waitWritten(S);
      Conn->deliver(S, "bye\n");
      requestShutdown();
      break;
    }
    if (Line.rfind("req ", 0) == 0) {
      Request Req;
      uint64_t PassesLen = 0, FnLen = 0;
      std::string ParseError;
      if (!parseRequestHeader(Line, Req, PassesLen, FnLen, &ParseError)) {
        // Header line consumed whole; the stream is still framed. Reject
        // the frame, keep the connection.
        stats::add("svc.malformed_frames");
        uint64_t S = Seq++;
        Conn->deliver(S, "err " + std::to_string(ParseError.size()) + "\n" +
                             ParseError + "\n");
        continue;
      }
      if (PassesLen > Opts.MaxBlobBytes || FnLen > Opts.MaxBlobBytes) {
        // The blobs are on the wire and unskippable within budget: framing
        // is lost, drop the connection (but never the daemon).
        stats::add("svc.malformed_frames");
        std::string Msg = "frame blob exceeds limit of " +
                          std::to_string(Opts.MaxBlobBytes) + " bytes";
        Conn->deliver(Seq++, "err " + std::to_string(Msg.size()) + "\n" +
                                 Msg + "\n");
        break;
      }
      if (!Conn->Stream.readBlob(PassesLen, Req.Passes) ||
          !Conn->Stream.readBlob(FnLen, Req.Function)) {
        stats::add("svc.malformed_frames");
        break; // Torn frame: stream unframed, connection over.
      }
      stats::add("svc.requests");
      stats::add(Req.L == Lane::Interactive ? "svc.lane_interactive_admitted"
                                            : "svc.lane_bulk_admitted");
      uint64_t S = Seq++;
      // enqueue() blocks while the lane is saturated — this reader thread
      // is the backpressure valve for its connection.
      Lanes.enqueue(Req.L, [this, Conn, S, Req = std::move(Req)] {
        Response Resp = handleRequest(Req);
        // Counted before the response goes out, so a client that has read
        // it (or a later `stats` frame) already sees the request done.
        uint64_t Done = countCompleted();
        Conn->deliver(S, serializeResponse(Resp));
        if (Opts.PersistEvery && Done % Opts.PersistEvery == 0)
          persist(/*Force=*/false);
      });
      continue;
    }
    // Unknown single-line verb: reject, keep the connection.
    stats::add("svc.malformed_frames");
    std::string Msg = "unknown frame verb in '" + Line + "'";
    Conn->deliver(Seq++,
                  "err " + std::to_string(Msg.size()) + "\n" + Msg + "\n");
  }
  // Remove this connection from the live set (shutdown teardown tolerates
  // either outcome; jobs still in flight hold their own shared_ptr).
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (size_t I = 0; I != Conns.size(); ++I)
    if (Conns[I] == Conn) {
      Conns.erase(Conns.begin() + I);
      break;
    }
}

Response Server::handleRequest(const Request &Req) {
  Response Resp;
  Resp.Id = Req.Id;
  try {
    // The same admission contract frost-tv --file enforces with exit 2:
    // the text must be a valid one-function campaign space.
    std::string SpaceError;
    if (!tv::validateFileCampaign(Req.Function,
                                  "request " + std::to_string(Req.Id),
                                  &SpaceError)) {
      stats::add("svc.rejected_requests");
      Resp.V = Response::Verdict::Error;
      Resp.Report = SpaceError;
      return Resp;
    }
    if (!Req.Passes.empty()) {
      PassManager Probe(/*VerifyAfterEachPass=*/false);
      std::string PassError;
      if (!parsePassPipeline(Probe, Req.Passes, Req.Pipeline, &PassError)) {
        stats::add("svc.rejected_requests");
        Resp.V = Response::Verdict::Error;
        Resp.Report = "bad passes pipeline: " + PassError;
        return Resp;
      }
    }

    tv::CampaignOptions O;
    O.Source = tv::CampaignSource::File;
    O.FileText = Req.Function;
    O.FilePath = "<request " + std::to_string(Req.Id) + ">";
    O.Kind = Req.Kind;
    O.Pipeline = Req.Pipeline;
    O.Passes = Req.Passes;
    semanticsFromName(Req.Semantics, O.Semantics); // Validated at parse.
    O.TV.CompareMemory = Req.CompareMemory;
    O.TV.EnumerateMemory = Req.CompareMemory;
    // One function per request and all parallelism in the service layer:
    // the campaign runs inline on this worker, no nested pool.
    O.Jobs = 1;
    O.UseVerdictCache = true;
    O.Cache = &Cache;

    tv::CampaignResult R = tv::runCampaign(O);
    Resp.Report = R.report();
    if (R.Invalid) {
      Resp.V = Response::Verdict::Invalid;
      stats::add("svc.invalid_verdicts");
      for (const tv::Counterexample &CE : R.Counterexamples)
        if (!CE.Inconclusive && Cex.add(CE.Function))
          stats::add("svc.corpus_inserts");
    } else if (R.Inconclusive) {
      Resp.V = Response::Verdict::Inconclusive;
      stats::add("svc.inconclusive_verdicts");
    } else {
      Resp.V = Response::Verdict::Valid;
      stats::add("svc.valid_verdicts");
    }
  } catch (const std::exception &E) {
    stats::add("svc.internal_errors");
    Resp.V = Response::Verdict::Error;
    Resp.Report = std::string("internal error: ") + E.what();
  } catch (...) {
    stats::add("svc.internal_errors");
    Resp.V = Response::Verdict::Error;
    Resp.Report = "internal error";
  }
  return Resp;
}

uint64_t Server::countCompleted() {
  stats::add("svc.responses");
  return Completed.fetch_add(1) + 1;
}

void Server::persist(bool Force) {
  if (Opts.CacheFile.empty() && Opts.CorpusFile.empty())
    return;
  // One persist at a time; the atomic writer makes each file replacement
  // safe even against external writers (CLI runs sharing the cache file).
  std::lock_guard<std::mutex> Lock(PersistMutex);
  (void)Force;
  if (!Opts.CacheFile.empty() && Cache.save(Opts.CacheFile))
    stats::add("svc.cache_persists");
  if (!Opts.CorpusFile.empty() && Cex.save(Opts.CorpusFile))
    stats::add("svc.corpus_persists");
}

std::string Server::statsReport() const {
  // Event counters are process-global stats::* (exact: sampled only after
  // the connection's prior responses have been written); gauges are read
  // live from the owning structures.
  std::map<std::string, uint64_t> Rows;
  for (const char *Name :
       {"svc.connections", "svc.requests", "svc.responses",
        "svc.valid_verdicts", "svc.invalid_verdicts",
        "svc.inconclusive_verdicts", "svc.rejected_requests",
        "svc.internal_errors", "svc.malformed_frames",
        "svc.lane_interactive_admitted", "svc.lane_bulk_admitted",
        "svc.backpressure_waits", "svc.corpus_inserts", "svc.cache_persists",
        "svc.corpus_persists", "svc.task_errors"})
    Rows[Name] = stats::get(Name);
  // The daemon-wide cache economics: hits/misses accumulated by every
  // campaign this process ran (tv/VerdictCache counters).
  Rows["svc.cache_hits"] = stats::get("tv.cache_hits");
  Rows["svc.cache_misses"] = stats::get("tv.cache_misses");
  Rows["svc.cache_entries"] = Cache.size();
  Rows["svc.corpus_size"] = Cex.size();
  Rows["svc.lane_interactive_depth"] = Lanes.depth(Lane::Interactive);
  Rows["svc.lane_bulk_depth"] = Lanes.depth(Lane::Bulk);
  std::string Out;
  for (const auto &[Name, Value] : Rows)
    Out += Name + " = " + std::to_string(Value) + "\n";
  return Out;
}
