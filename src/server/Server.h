//===- server/Server.h - Compilation-as-a-service daemon core ---*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service behind `dra-server`: a unix-socket daemon that
/// answers framed CompileRequests (server/Protocol.h) with the same bytes
/// a local compile would produce. Per request:
///
///   decode -> digest the request (server/RequestIndex.h)
///     -> bytes answered before: ResultCache::probeKey with the indexed
///        key; a hit is the answer, with no parse, verify or key
///     -> otherwise parse + verify the function, ResultCache::cacheKey,
///        probeKey (unless the index path already probed); a hit
///        (hit_mem / hit_disk) is answered on the connection thread with
///        the stored bytes as they are, never admitted and never shed
///     -> a miss: admission control -> compilePipeline on the thread pool
///        (compile, store) -> respond with ResultCache::serializeResult
///
/// Each request probes the cache exactly once. A digest enters the
/// request index only after its body parsed, verified and was answered
/// ok, by a hit or by a compile that stored; errors, sheds and failed
/// compiles never insert. When the index path's probe misses (evicted,
/// cold disk) or is verify-sampled, the request continues down the full
/// path without probing again, so `--cache-verify` recompiles it from a
/// fresh parse; if the fresh key differs from the indexed one, the entry
/// is replaced and `server.index_mismatches` counts it.
///
/// The response body is the cache's canonical serialization — the very
/// byte string `dra-batch` would put in the cache for the same input, and
/// exactly the bytes a hit returns — so "server == local" is a byte
/// comparison, which dra-loadgen's `--verify` sampling and the parity
/// tests exploit.
///
/// Threading model: one acceptor thread, one thread per connection
/// (connections are long-lived and few; clients multiplex requests over
/// them sequentially; the acceptor joins the threads of closed
/// connections before it starts the next), and a shared ThreadPool that
/// bounds actual compile concurrency. The AdmissionQueue bounds
/// *admitted* work — misses only, so `server.accepted` counts misses —
/// independently of connection count: beyond `QueueDepth` in-flight
/// compiles the server sheds (`status=shed`) instead of queueing without
/// bound.
///
/// Shutdown (`stop()`, the SIGTERM path) is graceful: stop accepting,
/// half-close every connection for reading (in-flight responses still go
/// out), join the connection threads, drain the admission queue, flush
/// metrics, unlink the socket. No request that was admitted is dropped.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVER_SERVER_H
#define DRA_SERVER_SERVER_H

#include "driver/Metrics.h"
#include "driver/ResultCache.h"
#include "driver/ThreadPool.h"
#include "driver/Trace.h"
#include "server/FlightRecorder.h"
#include "server/Protocol.h"
#include "server/RequestIndex.h"
#include "server/RequestQueue.h"
#include "server/ServerMetrics.h"

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <thread>

namespace dra {

struct ServerOptions {
  std::string SocketPath;
  /// Compile worker threads; 0 picks ThreadPool::defaultWorkerCount().
  unsigned Workers = 0;
  /// Admission bound: maximum compiles (cache misses) between admit and
  /// release. 0 sheds every miss (useful for overload tests); cache hits
  /// are answered regardless.
  unsigned QueueDepth = 64;
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  int Backlog = 64;
  /// Shared result cache; null disables caching (every request is a
  /// tier=miss compile).
  ResultCache *Cache = nullptr;
  /// Registry for server.* series and latency histograms, and the body of
  /// `dra-ctl-v1 stats`. Null records no histograms; `stats` then answers
  /// with a snapshot of the counters and gauges alone.
  MetricsRegistry *Metrics = nullptr;
  /// Flight-recorder capacity (last-N request records served by
  /// `dra-ctl-v1 recent`). 0 disables the recorder; per-request span
  /// collection then happens only for requests that send a `traceid=`.
  size_t FlightRecorderSize = 256;
  /// Requests whose total service time reaches this threshold keep full
  /// span detail in the flight recorder and count into
  /// `trace.slow_requests`.
  uint64_t SlowRequestUs = 100000;
  /// How `scheme=auto` requests are served (core/Portfolio.h): Off
  /// answers them with a structured error, Race races the default arm
  /// set, Choose consults PortfolioTable (racing on low confidence or
  /// with no table). Explicit-scheme requests are never affected.
  PortfolioMode Portfolio = PortfolioMode::Off;
  /// Choose mode's trained decision table (borrowed; the caller keeps it
  /// alive for the server's lifetime).
  const DecisionTable *PortfolioTable = nullptr;
  /// Worker threads per portfolio race; 0 = one per arm. Wall-clock only
  /// (results are bit-identical at any value).
  unsigned PortfolioJobs = 0;
};

class CompileServer {
public:
  explicit CompileServer(const ServerOptions &O);
  ~CompileServer(); ///< Calls stop().

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds the socket and starts the acceptor. False (with \p Err) when
  /// the socket cannot be created.
  bool start(std::string *Err = nullptr);

  /// Graceful drain (see file comment). Idempotent; also run by the
  /// destructor.
  void stop();

  bool running() const { return Running.load(); }

  /// Handles one already-read request payload (compile or dra-ctl-v1)
  /// and returns the response. Public so protocol tests can drive the
  /// full compile path without a socket. \p ConnId labels the serving
  /// connection in traces and flight records (0 = no connection).
  CompileResponse handleRequest(const std::string &Payload,
                                uint64_t ConnId = 0);

  /// Snapshots server.* counters/gauges (and the cache's, if wired) into
  /// the registry. Safe to call repeatedly and concurrently with serving —
  /// this is the periodic `--metrics-interval` export, and every `stats`
  /// control request runs it too.
  void flushMetrics();

  const ServerMetrics &serverMetrics() const { return SM; }
  const AdmissionQueue &queue() const { return Queue; }
  const FlightRecorder &flightRecorder() const { return Recorder; }
  const RequestIndex &requestIndex() const { return Index; }
  unsigned workerCount() const { return Workers; }

private:
  struct Conn {
    int Fd = -1; ///< -1 once the connection thread has closed it.
    uint64_t Id = 0; ///< 1-based accept order; trace/flight-record label.
    std::atomic<bool> Done{false}; ///< The thread's last action sets it.
    std::thread T;
  };

  void acceptLoop();
  void serveConnection(Conn &Self);
  CompileResponse compileAdmitted(const Function &F, const PipelineConfig &C,
                                  double &QueueUs, double &CompileUs);
  CompileResponse handleControl(const std::string &Payload);
  void flushMetricsInto(MetricsRegistry &M) const;
  void writeRecentJson(std::ostream &OS, size_t N) const;

  ServerOptions Opts;
  unsigned Workers;
  AdmissionQueue Queue;
  ServerMetrics SM;
  FlightRecorder Recorder;
  RequestIndex Index;
  uint64_t StartNs = 0;            ///< start() time, for uptime reporting.
  const uint64_t TraceSeed;        ///< Construction time; salts derived ids.
  std::atomic<uint64_t> TraceSeq{0}; ///< Counter for server-derived ids.
  /// Workers + 1 pool slots: ThreadPool's worker 0 is the submitting
  /// thread, so `Workers` real task threads require Workers + 1.
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  std::thread Acceptor;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};

  std::mutex ConnMtx;
  /// Stable references for the per-conn threads. Holds every connection
  /// whose thread is not yet joined: the open ones, plus those that
  /// closed since the last accept (which joins and erases them).
  std::list<Conn> Conns;
};

} // namespace dra

#endif // DRA_SERVER_SERVER_H
