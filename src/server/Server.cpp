//===- server/Server.cpp - Compilation-as-a-service daemon core -----------===//

#include "server/Server.h"

#include "ir/Parser.h"

#include <cerrno>
#include <exception>
#include <future>
#include <optional>
#include <sstream>
#include <system_error>

#include <sys/socket.h>
#include <unistd.h>

using namespace dra;

CompileServer::CompileServer(const ServerOptions &O)
    : Opts(O),
      Workers(O.Workers ? O.Workers : ThreadPool::defaultWorkerCount()),
      Queue(O.QueueDepth),
      Recorder(O.FlightRecorderSize, O.SlowRequestUs),
      TraceSeed(steadyClockNs()),
      Pool(std::make_unique<ThreadPool>(Workers + 1)) {}

CompileServer::~CompileServer() { stop(); }

bool CompileServer::start(std::string *Err) {
  if (Running.load()) {
    if (Err)
      *Err = "server already running";
    return false;
  }
  ListenFd = listenUnixSocket(Opts.SocketPath, Opts.Backlog, Err);
  if (ListenFd < 0)
    return false;
  StartNs = steadyClockNs();
  Stopping.store(false);
  Running.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void CompileServer::stop() {
  bool WasRunning = true;
  if (!Running.compare_exchange_strong(WasRunning, false))
    return;
  Stopping.store(true);

  // Wake the acceptor (shutdown, not just close: close of an fd another
  // thread is blocked in accept() on does not reliably wake it).
  ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  ::close(ListenFd);
  ListenFd = -1;

  // Half-close every live connection: the next readFrame sees a clean
  // EOF, but a response being written right now still goes out.
  {
    std::lock_guard<std::mutex> Lock(ConnMtx);
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::shutdown(C.Fd, SHUT_RD);
  }
  for (Conn &C : Conns)
    if (C.T.joinable())
      C.T.join();
  Conns.clear();
  SM.ConnectionsOpen.store(0);

  Queue.drain();
  flushMetrics();
  ::unlink(Opts.SocketPath.c_str());
}

void CompileServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener shut down (stop()) or unrecoverable
    }
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    uint64_t ConnId = SM.Connections.fetch_add(1) + 1;
    std::lock_guard<std::mutex> Lock(ConnMtx);
    // Join the threads of closed connections first, so the server holds
    // one thread (and one stack mapping) per open connection, not one per
    // connection it ever accepted.
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (!It->Done.load()) {
        ++It;
        continue;
      }
      It->T.join();
      It = Conns.erase(It);
    }
    Conns.emplace_back();
    Conn &C = Conns.back();
    C.Fd = Fd;
    C.Id = ConnId;
    try {
      C.T = std::thread([this, &C] { serveConnection(C); });
    } catch (const std::system_error &) {
      // Out of threads or mappings: refuse this connection, keep serving.
      Conns.pop_back();
      ::close(Fd);
    }
    SM.ConnectionsOpen.store(Conns.size());
  }
}

void CompileServer::serveConnection(Conn &Self) {
  const int Fd = Self.Fd;
  const uint64_t ConnId = Self.Id;
  for (;;) {
    std::string Payload;
    FrameStatus St = readFrame(Fd, Payload, Opts.MaxFrameBytes);
    if (St == FrameStatus::Eof)
      break;
    if (St == FrameStatus::Ok) {
      CompileResponse Resp = handleRequest(Payload, ConnId);
      if (!writeFrame(Fd, encodeResponse(Resp)))
        break; // peer disconnected mid-response; nothing left to do
      continue;
    }
    // Below the request layer. BadMagic and Oversize leave the stream
    // desynced and Truncated/IoError mean the peer is gone, so the
    // connection is dropped either way — but for the first two the peer
    // may still be listening, so send a structured error first.
    SM.BadFrames.fetch_add(1);
    if (St == FrameStatus::BadMagic || St == FrameStatus::Oversize) {
      CompileResponse Resp;
      Resp.Status = ResponseStatus::Error;
      Resp.Body = std::string("frame rejected: ") + frameStatusName(St);
      writeFrame(Fd, encodeResponse(Resp));
    }
    break;
  }
  {
    std::lock_guard<std::mutex> Lock(ConnMtx);
    Self.Fd = -1; // stop() must not shutdown() a recycled descriptor
  }
  ::close(Fd);
  Self.Done.store(true); // the acceptor may now join and erase Self
}

CompileResponse CompileServer::handleRequest(const std::string &Payload,
                                             uint64_t ConnId) {
  if (isCtlPayload(Payload))
    return handleControl(Payload);

  SM.Requests.fetch_add(1);
  const uint64_t BeginNs = steadyClockNs();
  CompileResponse Resp;

  CompileRequest Req;
  std::string DecodeErr;
  const bool Decoded = decodeRequest(Payload, Req, &DecodeErr);

  // A span collector exists whenever the flight recorder wants one or the
  // client asked (traceid on the wire); otherwise Trace stays null and
  // every instrumentation point below is a pointer test.
  const bool ClientTraced = Decoded && Req.TraceId != 0;
  const bool Collect = ClientTraced || Recorder.enabled();
  TraceContext TC(ClientTraced
                      ? Req.TraceId
                      : deriveTraceId(TraceSeed, TraceSeq.fetch_add(1)));
  TraceContext *Trace = Collect ? &TC : nullptr;
  if (Trace)
    TC.nameCurrentThread("conn-" + std::to_string(ConnId));

  double QueueUs = 0, CompileUs = 0;

  // Every exit path funnels through here: latency is observed for ok,
  // error, *and* shed responses (tier-labeled by outcome), the request
  // lands in the flight recorder, and — only when the client traced —
  // the span summary is attached to the response.
  auto Finish = [&]() -> CompileResponse & {
    const uint64_t EndNs = steadyClockNs();
    const double TotalUs = double(EndNs - BeginNs) / 1000.0;
    const char *TierLabel = Resp.Status == ResponseStatus::Ok
                                ? Resp.Tier.c_str()
                                : (Resp.Status == ResponseStatus::Shed
                                       ? "shed"
                                       : "error");
    if (Opts.Metrics)
      SM.observeLatency(*Opts.Metrics, TierLabel, TotalUs);
    if (Trace) {
      TC.record("request", BeginNs, EndNs, /*Depth=*/0);
      SM.TraceSpans.fetch_add(TC.spanCount());
      SM.TraceDropped.fetch_add(TC.droppedSpans());
    }
    const bool Slow = TotalUs >= double(Recorder.slowThresholdUs());
    if (Slow)
      SM.SlowRequests.fetch_add(1);
    if (ClientTraced) {
      SM.TracedRequests.fetch_add(1);
      Resp.TraceId = Req.TraceId;
      Resp.ServerPid = osProcessId();
      for (const TraceRecord &S : TC.records())
        Resp.Spans.push_back(
            {S.Name, S.Tid, S.Depth, S.BeginNs, S.EndNs - S.BeginNs});
      Resp.ThreadNames = TC.threadNames();
    }
    RequestRecord Rec;
    Rec.TraceId = TC.traceId();
    Rec.ClientTraced = ClientTraced;
    Rec.ConnId = ConnId;
    Rec.Scheme = !Decoded ? "?" : (Req.Auto ? "auto" : wireSchemeName(Req.S));
    Rec.Outcome = Resp.Status == ResponseStatus::Ok
                      ? "ok"
                      : (Resp.Status == ResponseStatus::Shed ? "shed"
                                                             : "error");
    Rec.Tier = TierLabel;
    Rec.BeginNs = BeginNs;
    Rec.TotalUs = TotalUs;
    Rec.QueueUs = QueueUs;
    Rec.CompileUs = CompileUs;
    if (Resp.Status == ResponseStatus::Error)
      Rec.Error = Resp.Body;
    // The recorder keeps span detail for slow requests only.
    if (Trace && Slow) {
      Rec.Spans = TC.records();
      Rec.ThreadNames = TC.threadNames();
    }
    Recorder.record(std::move(Rec));
    return Resp;
  };

  auto Fail = [&](std::string Msg) -> CompileResponse & {
    SM.Errors.fetch_add(1);
    Resp.Status = ResponseStatus::Error;
    Resp.Tier = "none";
    Resp.Body = std::move(Msg);
    return Finish();
  };

  if (!Decoded)
    return Fail("bad request: " + DecodeErr);
  // scheme=auto delegates the choice to the portfolio; a server running
  // without one answers with a structured error instead of silently
  // picking a scheme the client did not ask for.
  if (Req.Auto && Opts.Portfolio == PortfolioMode::Off)
    return Fail("scheme=auto requires a server started with "
                "--portfolio=race or --portfolio=choose");
  PipelineConfig C = Req.toConfig();
  if (Req.S != Scheme::Baseline && Req.S != Scheme::OSpill && !C.Enc.valid())
    return Fail("invalid encoding config (regn/diffn/diffw)");
  C.Cache = Opts.Cache;
  C.Trace = Trace;
  if (Req.Auto) {
    C.Portfolio.Mode = Opts.Portfolio;
    C.Portfolio.Jobs = Opts.PortfolioJobs;
    C.Portfolio.Table = Opts.PortfolioTable;
    // Bounded-cardinality portfolio.* counters (mode/scheme labels only)
    // go to the server registry; C.Metrics stays null so the per-function
    // pipeline series never explode under live traffic.
    C.Portfolio.Metrics = Opts.Metrics;
  }
  // A hit is answered here, with the stored bytes: they are the ok-body
  // by definition, so it needs no admission, no worker and no codec.
  auto AnswerHit = [&](ResultCache::Probe P) {
    if (P != ResultCache::Probe::HitMem && P != ResultCache::Probe::HitDisk)
      return false;
    Resp.Status = ResponseStatus::Ok;
    Resp.Tier = P == ResultCache::Probe::HitMem ? "hit_mem" : "hit_disk";
    return true;
  };

  // Bytes answered ok before: probe by the indexed key, skipping parse,
  // verify and cacheKey. That probe is this request's only one; if it
  // does not answer, the full path below recompiles without probing.
  Hash128 Digest;
  uint64_t IndexedKey = 0;
  bool Probed = false;
  if (Opts.Cache) {
    Digest = Index.digest(Req);
    if (Index.lookup(Digest, IndexedKey)) {
      Probed = true;
      if (AnswerHit(Opts.Cache->probeKey(IndexedKey, Resp.Body, Trace))) {
        SM.IndexHits.fetch_add(1);
        return Finish();
      }
    }
  }
  SM.IndexMisses.fetch_add(1);

  std::optional<Function> F;
  {
    ScopedTraceSpan Span(Trace, "parse", /*Depth=*/1);
    std::string Err;
    F = parseFunction(Req.Body, &Err);
    if (!F)
      return Fail("parse error: " + Err);
    if (!verifyFunction(*F, &Err))
      return Fail("invalid function: " + Err);
  }

  uint64_t Key = 0;
  if (Opts.Cache) {
    Key = ResultCache::cacheKey(*F, C);
    if (Probed && Key != IndexedKey) {
      SM.IndexMismatches.fetch_add(1);
      Index.insert(Digest, Key);
    }
    if (!Probed && AnswerHit(Opts.Cache->probeKey(Key, Resp.Body, Trace))) {
      Index.insert(Digest, Key);
      return Finish();
    }
  }

  if (!Queue.tryAdmit()) {
    Resp.Status = ResponseStatus::Shed;
    Resp.Tier = "none";
    Resp.Body.clear();
    return Finish();
  }
  Resp = compileAdmitted(*F, C, QueueUs, CompileUs);
  Queue.release();

  if (Resp.Status == ResponseStatus::Error)
    SM.Errors.fetch_add(1);
  else if (Opts.Cache)
    Index.insert(Digest, Key); // compilePipeline stored it under Key
  return Finish();
}

CompileResponse CompileServer::compileAdmitted(const Function &F,
                                               const PipelineConfig &C,
                                               double &QueueUs,
                                               double &CompileUs) {
  TraceContext *Trace = C.Trace;
  // The connection thread blocks on the future; the pool bounds how many
  // compiles actually run at once. submit() drops escaped exceptions, so
  // the closure must resolve the promise on every path itself.
  std::promise<CompileResponse> Done;
  std::future<CompileResponse> Result = Done.get_future();
  const uint64_t SubmitNs = steadyClockNs();
  const uint64_t ConnTid = Trace ? osThreadId() : 0;
  // Written inside the task, read after Result.get(); the promise/future
  // handoff provides the happens-before edge.
  uint64_t TaskStartNs = SubmitNs, TaskEndNs = SubmitNs;
  Pool->submit([&, SubmitNs, ConnTid] {
    CompileResponse R;
    TaskStartNs = steadyClockNs();
    if (Trace) {
      // Queue wait belongs to the *connection* thread's track: it is time
      // this request spent waiting for a worker, closed by the moment the
      // worker actually started.
      Trace->recordOn(ConnTid, "queue_wait", SubmitNs, TaskStartNs,
                      /*Depth=*/1);
      Trace->nameCurrentThread(
          "worker-" + std::to_string(ThreadPool::currentWorker()));
    }
    try {
      ScopedTraceSpan CompileSpan(Trace, "compile", /*Depth=*/1);
      // handleRequest already probed the cache: compile without a second
      // probe (the store still happens, and a verify-hijacked hit is
      // compared there).
      R.Body = ResultCache::serializeResult(compilePipeline(F, C));
      R.Status = ResponseStatus::Ok;
      R.Tier = "miss";
    } catch (const std::exception &E) {
      R.Status = ResponseStatus::Error;
      R.Tier = "none";
      R.Body = std::string("compile failed: ") + E.what();
    } catch (...) {
      R.Status = ResponseStatus::Error;
      R.Tier = "none";
      R.Body = "compile failed";
    }
    TaskEndNs = steadyClockNs();
    Done.set_value(std::move(R));
  });
  CompileResponse R = Result.get();
  QueueUs = double(TaskStartNs - SubmitNs) / 1000.0;
  CompileUs = double(TaskEndNs - TaskStartNs) / 1000.0;
  return R;
}

//===----------------------------------------------------------------------===//
// Control requests (dra-ctl-v1)
//===----------------------------------------------------------------------===//

CompileResponse CompileServer::handleControl(const std::string &Payload) {
  SM.CtlRequests.fetch_add(1);
  CompileResponse Resp;
  Resp.Tier = "none";

  CtlRequest Req;
  std::string Err;
  if (!decodeCtlRequest(Payload, Req, &Err)) {
    SM.Errors.fetch_add(1);
    Resp.Status = ResponseStatus::Error;
    Resp.Body = "bad control request: " + Err;
    return Resp;
  }

  std::ostringstream OS;
  if (Req.Cmd == "health") {
    OS << "{\"status\": \"ok\", \"pid\": " << osProcessId()
       << ", \"uptime_us\": ";
    writeJsonNumber(OS, double(steadyClockNs() - StartNs) / 1000.0);
    OS << "}";
  } else if (Req.Cmd == "stats") {
    // The registry --metrics-out writes, freshly flushed. A server without
    // one answers from a registry holding just this request's snapshot.
    MetricsRegistry Local;
    MetricsRegistry &M = Opts.Metrics ? *Opts.Metrics : Local;
    flushMetricsInto(M);
    M.writeJson(OS);
  } else if (Req.Cmd == "recent") {
    writeRecentJson(OS, Req.RecentN);
  } else {
    SM.Errors.fetch_add(1);
    Resp.Status = ResponseStatus::Error;
    Resp.Body = "unknown control command '" + Req.Cmd + "'";
    return Resp;
  }
  Resp.Status = ResponseStatus::Ok;
  Resp.Body = OS.str();
  return Resp;
}

void CompileServer::writeRecentJson(std::ostream &OS, size_t N) const {
  OS << "{\"records\": [";
  bool FirstRec = true;
  for (const RequestRecord &R : Recorder.recent(N)) {
    OS << (FirstRec ? "\n" : ",\n") << "  {\"seq\": " << R.Seq
       << ", \"traceid\": \"" << traceIdToHex(R.TraceId)
       << "\", \"client_traced\": " << (R.ClientTraced ? "true" : "false")
       << ", \"conn\": " << R.ConnId << ", \"scheme\": \""
       << jsonEscape(R.Scheme) << "\", \"outcome\": \""
       << jsonEscape(R.Outcome) << "\", \"tier\": \"" << jsonEscape(R.Tier)
       << "\", \"total_us\": ";
    writeJsonNumber(OS, R.TotalUs);
    OS << ", \"queue_us\": ";
    writeJsonNumber(OS, R.QueueUs);
    OS << ", \"compile_us\": ";
    writeJsonNumber(OS, R.CompileUs);
    OS << ", \"slow\": " << (R.Slow ? "true" : "false");
    if (!R.Error.empty())
      OS << ", \"error\": \"" << jsonEscape(R.Error) << "\"";
    if (!R.Spans.empty()) {
      OS << ", \"spans\": [";
      bool FirstSpan = true;
      for (const TraceRecord &S : R.Spans) {
        OS << (FirstSpan ? "" : ", ") << "{\"name\": \""
           << jsonEscape(S.Name) << "\", \"tid\": " << S.Tid
           << ", \"depth\": " << S.Depth << ", \"begin_ns\": " << S.BeginNs
           << ", \"dur_ns\": " << (S.EndNs - S.BeginNs) << "}";
        FirstSpan = false;
      }
      OS << "]";
    }
    if (!R.ThreadNames.empty()) {
      OS << ", \"threads\": [";
      bool FirstT = true;
      for (const auto &[Tid, Name] : R.ThreadNames) {
        OS << (FirstT ? "" : ", ") << "{\"tid\": " << Tid
           << ", \"name\": \"" << jsonEscape(Name) << "\"}";
        FirstT = false;
      }
      OS << "]";
    }
    OS << "}";
    FirstRec = false;
  }
  OS << (FirstRec ? "]" : "\n]") << "}";
}

void CompileServer::flushMetrics() {
  if (Opts.Metrics)
    flushMetricsInto(*Opts.Metrics);
}

void CompileServer::flushMetricsInto(MetricsRegistry &M) const {
  SM.flush(M, Queue, Workers, Recorder);
  if (Opts.Cache)
    Opts.Cache->flushMetrics(M);
}
