//===- perfbench/src/Replay.cpp - Traced in-process replay ----------------===//

#include "Replay.h"

#include "core/Pipeline.h"
#include "driver/Trace.h"
#include "ir/Parser.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>

using namespace dra;

namespace perfbench {

namespace {

struct Span {
  const char *Name = "";
  uint64_t Id = 0, Parent = 0, Req = 0, Tid = 0;
  uint64_t BeginNs = 0, EndNs = 0;
};

std::atomic<uint64_t> NextSpanId{1};

/// One thread's spans. Ids are unique across threads, so logs merge by
/// concatenation. A log constructed off records nothing and reads no
/// clock: the untraced replay pass.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On) {}
  bool on() const { return On; }
  uint64_t open(const char *Name, uint64_t Parent, uint64_t Req) {
    if (!On)
      return 0;
    Span S;
    S.Name = Name;
    S.Id = NextSpanId.fetch_add(1);
    S.Parent = Parent;
    S.Req = Req;
    S.Tid = osThreadId();
    S.BeginNs = steadyClockNs();
    Open.push_back(Spans.size());
    Spans.push_back(S);
    return S.Id;
  }
  void close() {
    if (!On)
      return;
    Spans[Open.back()].EndNs = steadyClockNs();
    Open.pop_back();
  }
  void add(const char *Name, uint64_t Parent, uint64_t Req, uint64_t Tid,
           uint64_t BeginNs, uint64_t EndNs) {
    if (!On)
      return;
    Spans.push_back(
        {Name, NextSpanId.fetch_add(1), Parent, Req, Tid, BeginNs, EndNs});
  }
  std::vector<Span> Spans;

private:
  bool On;
  std::vector<size_t> Open;
};

/// Per-thread event counts that spans do not carry.
struct Tally {
  uint64_t Requests = 0, Failed = 0;
  uint64_t MemHits = 0, DiskHits = 0, Misses = 0;
  uint64_t PayloadBytes = 0;
  uint64_t Pipelines[5] = {};
  uint64_t Races = 0, ArmsRun = 0, ArmsCancelled = 0;
  double WinRatioSum = 0;
  uint64_t SwapsEvaluated = 0, SwapsApplied = 0, OracleCalls = 0,
           Probes = 0, ProbesUncolorable = 0, RecolorEvals = 0,
           SlrRange = 0, SlrJoin = 0;
  uint64_t Rounds = 0, SimplifySteps = 0, SpilledRanges = 0;
  uint64_t IlpVariables = 0, IlpConstraints = 0, IlpBudgetHits = 0;

  void add(const Tally &O) {
    Requests += O.Requests, Failed += O.Failed, MemHits += O.MemHits,
        DiskHits += O.DiskHits, Misses += O.Misses,
        PayloadBytes += O.PayloadBytes;
    for (int I = 0; I != 5; ++I)
      Pipelines[I] += O.Pipelines[I];
    Races += O.Races, ArmsRun += O.ArmsRun, ArmsCancelled += O.ArmsCancelled;
    WinRatioSum += O.WinRatioSum;
    SwapsEvaluated += O.SwapsEvaluated, SwapsApplied += O.SwapsApplied,
        OracleCalls += O.OracleCalls, Probes += O.Probes,
        ProbesUncolorable += O.ProbesUncolorable,
        RecolorEvals += O.RecolorEvals, SlrRange += O.SlrRange,
        SlrJoin += O.SlrJoin;
    Rounds += O.Rounds, SimplifySteps += O.SimplifySteps,
        SpilledRanges += O.SpilledRanges;
    IlpVariables += O.IlpVariables, IlpConstraints += O.IlpConstraints,
        IlpBudgetHits += O.IlpBudgetHits;
  }

  void countResult(const PipelineResult &R) {
    SwapsEvaluated += R.Remap.SwapsEvaluated;
    SwapsApplied += R.Remap.SwapsApplied;
    OracleCalls += R.Coalesce.OracleCalls;
    Probes += R.Coalesce.ProbesAttempted;
    ProbesUncolorable += R.Coalesce.ProbesUncolorable;
    RecolorEvals += R.Recolor.CandidateEvals;
    SlrRange += R.Enc.SetLastRange;
    SlrJoin += R.Enc.SetLastJoin;
    Rounds += R.Alloc.Iterations;
    SimplifySteps += R.Alloc.SimplifySteps;
    SpilledRanges += R.Alloc.SpilledRanges;
    IlpVariables += R.OSpill.ILPVariables;
    IlpConstraints += R.OSpill.ILPConstraints;
    if (R.OSpill.Rounds > 0 && !R.OSpill.ILPOptimal)
      ++IlpBudgetHits;
  }
};

const char *StageNames[] = {"alloc", "ospill", "coalesce",
                            "recolor", "remap", "encode"};

/// Maps a pipeline stage name onto its span name.
const char *stageSpanName(const char *Stage) {
  static const char *Names[] = {"stage.alloc",   "stage.ospill",
                                "stage.coalesce", "stage.recolor",
                                "stage.remap",   "stage.encode"};
  for (int I = 0; I != 6; ++I)
    if (std::strcmp(Stage, StageNames[I]) == 0)
      return Names[I];
  return "stage.other";
}

const char *pipelineSpanName(Scheme S) {
  switch (S) {
  case Scheme::Baseline:
    return "core.pipeline.baseline";
  case Scheme::OSpill:
    return "core.pipeline.ospill";
  case Scheme::Remap:
    return "core.pipeline.remap";
  case Scheme::Select:
    return "core.pipeline.select";
  case Scheme::Coalesce:
    return "core.pipeline.coalesce";
  }
  return "core.pipeline";
}

/// The pipeline config the server derives from \p Q.
PipelineConfig configFor(const ServerConfig &S, const CompileRequest &Q) {
  PipelineConfig C = Q.toConfig();
  if (Q.Auto) {
    C.Portfolio.Mode = S.Portfolio;
    C.Portfolio.Jobs = S.PortfolioJobs;
  }
  return C;
}

struct PassContext {
  const ServerConfig &S;
  const ReplayInput &In;
  ResultCache &Cache;
  ThreadPool &Pool;
};

/// The pool task of one traced request: lookup, then compile and store on
/// a miss, then serialize. Returns the response body.
std::string serveTask(PassContext &X, SpanLog &Task, Tally &TaskTally,
                      const Function &Fn, const PipelineConfig &C,
                      uint64_t Root, uint64_t Req, uint64_t WorkerTid,
                      const char *&TierName) {
  const uint64_t TaskId = Task.open("pool.task", Root, Req);
  PipelineResult PR;
  const char *Tier = nullptr;
  const uint64_t LookupNs = Task.on() ? steadyClockNs() : 0;
  const bool Hit = X.Cache.lookupTiered(Fn, C, PR, &Tier);
  const bool Disk = Hit && std::strcmp(Tier, "disk") == 0;
  // The lookup span is named by the tier that answered.
  if (Task.on())
    Task.add(!Hit ? "driver.cache_lookup.miss"
                  : (Disk ? "driver.cache_lookup.hit_disk"
                          : "driver.cache_lookup.hit_mem"),
             TaskId, Req, WorkerTid, LookupNs, steadyClockNs());
  if (Hit) {
    TierName = Disk ? "hit_disk" : "hit_mem";
    ++(Disk ? TaskTally.DiskHits : TaskTally.MemHits);
  } else if (C.Portfolio.Mode != PortfolioMode::Off) {
    TierName = "miss";
    ++TaskTally.Misses;
    PipelineConfig Winner;
    PortfolioOutcome O;
    Task.open("core.portfolio", TaskId, Req);
    PR = runPortfolio(Fn, C, &Winner, &O);
    Task.close();
    ++TaskTally.Races;
    TaskTally.ArmsRun += O.ArmsRun;
    TaskTally.ArmsCancelled += O.ArmsCancelled;
    TaskTally.WinRatioSum += O.ArmsRun ? 1.0 / O.ArmsRun : 0;
    TaskTally.countResult(PR);
    Task.open("driver.cache_store", TaskId, Req);
    X.Cache.store(Fn, C, PR);
    Task.close();
    Task.open("driver.cache_store", TaskId, Req);
    X.Cache.store(Fn, Winner, PR);
    Task.close();
  } else {
    TierName = "miss";
    ++TaskTally.Misses;
    const uint64_t PipeId = Task.open(pipelineSpanName(C.S), TaskId, Req);
    PR = runPipeline(Fn, C);
    Task.close();
    for (const StageSpan &SS : PR.Spans)
      if (SS.Depth == 0)
        Task.add(stageSpanName(SS.Stage), PipeId, Req, WorkerTid,
                 SS.BeginNs, SS.EndNs);
    ++TaskTally.Pipelines[static_cast<int>(C.S)];
    TaskTally.countResult(PR);
    Task.open("driver.cache_store", TaskId, Req);
    X.Cache.store(Fn, C, PR);
    Task.close();
  }
  Task.open("driver.cache_serialize", TaskId, Req);
  std::string Body = ResultCache::serializeResult(PR);
  Task.close();
  Task.close(); // pool.task
  return Body;
}

/// The traced request path of one replayed request.
void tracedRequest(PassContext &X, SpanLog &L, Tally &T, uint32_t Key,
                   uint64_t Req) {
  const CompileRequest &Q = X.In.Requests[Key];
  ++T.Requests;
  const uint64_t Root = L.open("request", 0, Req);

  L.open("client.encode", Root, Req);
  const std::string Payload = encodeRequest(Q);
  L.close();

  CompileRequest Dec;
  L.open("server.decode", Root, Req);
  const bool Decoded = decodeRequest(Payload, Dec);
  L.close();

  std::optional<Function> F;
  L.open("ir.parse", Root, Req);
  if (Decoded)
    F = parseFunction(Dec.Body);
  L.close();

  L.open("ir.verify", Root, Req);
  const bool Valid = F && verifyFunction(*F);
  L.close();
  if (!Valid) {
    L.close();
    ++T.Failed;
    return;
  }

  const PipelineConfig C = configFor(X.S, Dec);

  // The pool hop, as the server makes it: the connection thread submits
  // the task and blocks on its future.
  SpanLog Task(L.on());
  Tally TaskTally;
  std::string Body;
  const char *TierName = "";
  std::promise<void> Done;
  std::future<void> Ready = Done.get_future();
  const uint64_t SubmitNs = L.on() ? steadyClockNs() : 0;
  uint64_t StartNs = 0, EndNs = 0, WorkerTid = 0;
  bool Threw = false;
  // submit() drops escaped exceptions, so the task resolves the promise on
  // every path itself, as the server's task does.
  X.Pool.submit([&] {
    if (Task.on()) {
      StartNs = steadyClockNs();
      WorkerTid = osThreadId();
    }
    try {
      Body = serveTask(X, Task, TaskTally, *F, C, Root, Req, WorkerTid,
                       TierName);
    } catch (...) {
      Threw = true;
    }
    if (Task.on())
      EndNs = steadyClockNs();
    Done.set_value();
  });
  Ready.get();
  if (L.on()) {
    const uint64_t BackNs = steadyClockNs();
    L.add("pool.queue_wait", Root, Req, osThreadId(), SubmitNs, StartNs);
    L.add("pool.return", Root, Req, osThreadId(), EndNs, BackNs);
  }
  if (Threw) { // The task's spans may be left open; drop them.
    L.close(); // request
    ++T.Failed;
    return;
  }
  L.Spans.insert(L.Spans.end(), Task.Spans.begin(), Task.Spans.end());
  T.add(TaskTally);

  CompileResponse Resp;
  Resp.Status = ResponseStatus::Ok;
  Resp.Tier = TierName;
  Resp.Body = Body;
  L.open("server.encode", Root, Req);
  const std::string Wire = encodeResponse(Resp);
  L.close();

  CompileResponse Back;
  L.open("client.decode", Root, Req);
  const bool BackOk = decodeResponse(Wire, Back);
  L.close();
  L.close(); // request

  T.PayloadBytes += Back.Body.size();
  if (!BackOk || Back.Body != X.In.Canonical[Key])
    ++T.Failed;
}

/// Probes: calls the server makes only inside lookupTiered and store,
/// timed after the traced pass on the same inputs, one at a time, so they
/// neither count in a request total nor slow a concurrent request.
void probe(const ServerConfig &S, const ReplayInput &In,
           const std::vector<uint32_t> &Keys, SpanLog &L) {
  for (uint32_t Key : Keys) {
    const CompileRequest &Q = In.Requests[Key];
    std::optional<Function> F = parseFunction(Q.Body);
    if (!F)
      continue;
    L.open("probe.cache_key", 0, 0);
    volatile uint64_t K = ResultCache::cacheKey(*F, configFor(S, Q));
    (void)K;
    L.close();
    PipelineResult Scratch;
    L.open("probe.cache_deserialize", 0, 0);
    ResultCache::deserializeResult(In.Canonical[Key], Scratch);
    L.close();
  }
}

/// Stores the verified output of every preload key into \p Cache.
void preload(const ServerConfig &S, const ReplayInput &In,
             ResultCache &Cache) {
  for (uint32_t Key : In.Preload) {
    std::optional<Function> F = parseFunction(In.Requests[Key].Body);
    PipelineResult PR;
    if (!F || !ResultCache::deserializeResult(In.Canonical[Key], PR))
      continue;
    Cache.store(*F, configFor(S, In.Requests[Key]), PR);
  }
}

/// Runs \p PerRequest over the workload's stream on In.Conns threads.
template <typename Fn>
void replayStream(const ReplayInput &In, Fn PerRequest) {
  const NextKeyFn Next = In.MakeStream();
  std::vector<std::thread> Threads;
  for (unsigned Conn = 0; Conn != In.Conns; ++Conn)
    Threads.emplace_back([&, Conn] {
      for (uint64_t I = 0;; ++I) {
        const int64_t Key = Next(Conn, I);
        if (Key < 0)
          break;
        PerRequest(Conn, static_cast<uint32_t>(Key));
      }
    });
  for (std::thread &T : Threads)
    T.join();
}

void writeChromeTrace(const std::string &Path,
                      const std::vector<Span> &Spans) {
  std::ofstream OS(Path);
  if (!OS)
    return;
  uint64_t T0 = UINT64_MAX;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.BeginNs);
  OS << "{\"traceEvents\": [";
  bool First = true;
  for (const Span &S : Spans) {
    OS << (First ? "\n" : ",\n") << "{\"name\": \"" << S.Name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.Tid
       << ", \"ts\": " << double(S.BeginNs - T0) / 1000.0
       << ", \"dur\": " << double(S.EndNs - S.BeginNs) / 1000.0
       << ", \"args\": {\"id\": " << S.Id << ", \"parent\": " << S.Parent
       << ", \"req\": " << S.Req << "}}";
    First = false;
  }
  OS << "\n]}\n";
}

} // namespace

ResultCacheOptions ServerConfig::replayCache(int Pass) const {
  ResultCacheOptions CO;
  CO.MemBudgetBytes = size_t(CacheMemMb) << 20;
  if (!CacheDir.empty())
    CO.DiskDir = CacheDir + "-replay-" + std::to_string(Pass);
  return CO;
}

std::vector<std::string> ServerConfig::args() const {
  std::vector<std::string> A = {"--workers=" + std::to_string(Workers),
                                "--cache-mem-mb=" + std::to_string(CacheMemMb)};
  if (!CacheDir.empty())
    A.push_back("--cache-dir=" + CacheDir);
  if (Portfolio != PortfolioMode::Off) {
    A.push_back(std::string("--portfolio=") + portfolioModeName(Portfolio));
    A.push_back("--portfolio-jobs=" + std::to_string(PortfolioJobs));
  }
  return A;
}

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> Metrics = {
      {"server.handle_us", "us"},
      {"server.wire_us", "us"},
      {"server.codec_us", "us"},
      {"server.failed", "count"},
      {"ir.parse_us", "us"},
      {"ir.verify_us", "us"},
      {"driver.cache_key_us", "us"},
      {"driver.cache_hit_mem_us", "us"},
      {"driver.cache_hit_disk_us", "us"},
      {"driver.cache_miss_probe_us", "us"},
      {"driver.cache_deserialize_us", "us"},
      {"driver.cache_serialize_us", "us"},
      {"driver.cache_store_us", "us"},
      {"driver.cache_hit_ratio", "ratio"},
      {"driver.cache_mem_hit_share", "ratio"},
      {"driver.cache_evictions", "count"},
      {"driver.cache_payload_bytes", "bytes"},
      {"driver.pool_hop_us", "us"},
      {"driver.pool_queue_wait_us", "us"},
      {"core.pipeline_us.baseline", "us"},
      {"core.pipeline_us.ospill", "us"},
      {"core.pipeline_us.remap", "us"},
      {"core.pipeline_us.select", "us"},
      {"core.pipeline_us.coalesce", "us"},
      {"core.stage_alloc_us", "us"},
      {"core.stage_ospill_us", "us"},
      {"core.stage_coalesce_us", "us"},
      {"core.stage_recolor_us", "us"},
      {"core.stage_remap_us", "us"},
      {"core.stage_encode_us", "us"},
      {"core.stage_alloc_share", "ratio"},
      {"core.stage_ospill_share", "ratio"},
      {"core.stage_coalesce_share", "ratio"},
      {"core.stage_recolor_share", "ratio"},
      {"core.stage_remap_share", "ratio"},
      {"core.stage_encode_share", "ratio"},
      {"core.portfolio_race_us", "us"},
      {"core.portfolio_arms_run", "count"},
      {"core.portfolio_arms_cancelled", "count"},
      {"core.portfolio_win_ratio", "ratio"},
      {"core.remap_swaps_evaluated", "count"},
      {"core.remap_swap_yield", "ratio"},
      {"core.coalesce_oracle_calls", "count"},
      {"core.coalesce_probe_waste", "ratio"},
      {"core.recolor_candidate_evals", "count"},
      {"core.encode_slr_range", "count"},
      {"core.encode_slr_join", "count"},
      {"regalloc.rounds", "count"},
      {"regalloc.simplify_steps", "count"},
      {"regalloc.spilled_ranges", "count"},
      {"ilp.variables", "count"},
      {"ilp.constraints", "count"},
      {"ilp.budget_hits", "count"},
      {"unattributed_us", "us"},
      {"attributed_share", "ratio"},
      {"tracing_overhead_us", "us"},
  };
  return Metrics;
}

std::map<std::string, double> replayTraced(const ServerConfig &S,
                                           const ReplayInput &In,
                                           const UntracedView &U,
                                           const std::string &TraceOut) {
  std::map<std::string, double> M;
  for (const LayerMetric &L : layerMetrics())
    M[L.Name] = 0;

  // Each pass starts from its own cache, preloaded with the warm set.
  // Passes 1 and 2: the replay with spans, then without; the difference
  // in mean request time is the tracing overhead.
  std::vector<Span> Spans;
  Tally T;
  double PoolHopUs = 0, UntracedUs = 0;
  ResultCacheStats CS;
  for (int Pass = 1; Pass <= 2; ++Pass) {
    const bool Traced = Pass == 1;
    ResultCache Cache(S.replayCache(Pass));
    preload(S, In, Cache);
    const ResultCacheStats Before = Cache.stats();
    ThreadPool Pool(S.Workers + 1); // Worker 0 is the submitting thread.
    PassContext X{S, In, Cache, Pool};
    std::vector<SpanLog> Logs(In.Conns, SpanLog(Traced));
    std::vector<Tally> Tallies(In.Conns);
    std::vector<double> Us(In.Conns, 0);
    std::vector<std::vector<uint32_t>> Replayed(In.Conns);
    std::atomic<uint64_t> ReqIds{1};
    replayStream(In, [&](unsigned Conn, uint32_t Key) {
      Replayed[Conn].push_back(Key);
      const uint64_t B = steadyClockNs();
      tracedRequest(X, Logs[Conn], Tallies[Conn], Key, ReqIds.fetch_add(1));
      Us[Conn] += double(steadyClockNs() - B) / 1000.0;
    });
    if (!Traced) {
      for (unsigned C = 0; C != In.Conns; ++C)
        UntracedUs += Us[C];
      UntracedUs /= double(std::max<uint64_t>(ReqIds.load() - 1, 1));
      continue;
    }
    std::vector<uint32_t> ProbeKeys;
    for (unsigned C = 0; C != In.Conns; ++C) {
      const size_t N = std::min<size_t>(Replayed[C].size(), 1000);
      ProbeKeys.insert(ProbeKeys.end(), Replayed[C].begin(),
                       Replayed[C].begin() + N);
      Spans.insert(Spans.end(), Logs[C].Spans.begin(), Logs[C].Spans.end());
      T.add(Tallies[C]);
    }
    CS = Cache.stats();
    CS.Evictions -= Before.Evictions;
    SpanLog Probes(true);
    probe(S, In, ProbeKeys, Probes);
    Spans.insert(Spans.end(), Probes.Spans.begin(), Probes.Spans.end());

    // Pool hop probe: an empty task, submit until its future is ready.
    constexpr int Hops = 2000;
    const uint64_t H0 = steadyClockNs();
    for (int I = 0; I != Hops; ++I) {
      std::promise<void> P;
      std::future<void> Fu = P.get_future();
      Pool.submit([&P] { P.set_value(); });
      Fu.get();
    }
    PoolHopUs = double(steadyClockNs() - H0) / 1000.0 / Hops;
  }

  // Pass 3: the same payloads through the server's own handleRequest.
  double HandleUs = 0;
  uint64_t Handled = 0;
  {
    ResultCache Cache(S.replayCache(3));
    preload(S, In, Cache);
    MetricsRegistry Registry;
    ServerOptions SO;
    SO.Workers = S.Workers;
    SO.Cache = &Cache;
    SO.Metrics = &Registry;
    SO.Portfolio = S.Portfolio;
    SO.PortfolioJobs = S.PortfolioJobs;
    CompileServer Server(SO);
    std::vector<double> Sum(In.Conns, 0);
    std::vector<uint64_t> Count(In.Conns, 0), Failed(In.Conns, 0);
    replayStream(In, [&](unsigned Conn, uint32_t Key) {
      const std::string Payload = encodeRequest(In.Requests[Key]);
      const uint64_t B = steadyClockNs();
      CompileResponse R = Server.handleRequest(Payload, Conn + 1);
      Sum[Conn] += double(steadyClockNs() - B) / 1000.0;
      ++Count[Conn];
      if (R.Status != ResponseStatus::Ok || R.Body != In.Canonical[Key])
        ++Failed[Conn];
    });
    for (unsigned C = 0; C != In.Conns; ++C) {
      HandleUs += Sum[C];
      Handled += Count[C];
      T.Failed += Failed[C];
    }
    HandleUs = Handled ? HandleUs / Handled : 0;
  }

  // Aggregate span durations by name.
  std::map<std::string, std::pair<double, uint64_t>> ByName; // sum us, n
  for (const Span &Sp : Spans) {
    auto &E = ByName[Sp.Name];
    E.first += double(Sp.EndNs - Sp.BeginNs) / 1000.0;
    ++E.second;
  }
  const double Reqs = double(std::max<uint64_t>(T.Requests, 1));
  auto Total = [&](const char *N) { return ByName[N].first; };
  auto MeanPerCall = [&](const char *N) {
    auto &E = ByName[N];
    return E.second ? E.first / double(E.second) : 0.0;
  };
  auto PerReq = [&](const char *N) { return Total(N) / Reqs; };

  M["server.handle_us"] = HandleUs;
  M["server.wire_us"] = U.WireUs;
  M["server.codec_us"] = PerReq("client.encode") + PerReq("server.decode") +
                         PerReq("server.encode") + PerReq("client.decode");
  M["server.failed"] = double(T.Failed);
  M["ir.parse_us"] = PerReq("ir.parse");
  M["ir.verify_us"] = PerReq("ir.verify");
  M["driver.cache_key_us"] = MeanPerCall("probe.cache_key");
  M["driver.cache_deserialize_us"] = MeanPerCall("probe.cache_deserialize");
  M["driver.cache_serialize_us"] = MeanPerCall("driver.cache_serialize");
  M["driver.cache_store_us"] = MeanPerCall("driver.cache_store");
  const uint64_t Hits = T.MemHits + T.DiskHits;
  const uint64_t Lookups = Hits + T.Misses;
  M["driver.cache_hit_ratio"] = Lookups ? double(Hits) / Lookups : 0;
  M["driver.cache_mem_hit_share"] = Hits ? double(T.MemHits) / Hits : 0;
  M["driver.cache_evictions"] = double(CS.Evictions);
  M["driver.cache_payload_bytes"] = double(T.PayloadBytes) / Reqs;
  M["driver.pool_hop_us"] = PoolHopUs;
  M["driver.pool_queue_wait_us"] = MeanPerCall("pool.queue_wait");

  static const char *Schemes[] = {"baseline", "ospill", "remap", "select",
                                  "coalesce"};
  double PipelineTotal = 0;
  uint64_t Pipelines = 0;
  for (int I = 0; I != 5; ++I) {
    const std::string Span = std::string("core.pipeline.") + Schemes[I];
    M[std::string("core.pipeline_us.") + Schemes[I]] =
        MeanPerCall(Span.c_str());
    PipelineTotal += Total(Span.c_str());
    Pipelines += T.Pipelines[I];
  }
  for (const char *Stage : StageNames) {
    const std::string Span = std::string("stage.") + Stage;
    const double StageTotal = Total(Span.c_str());
    M[std::string("core.stage_") + Stage + "_us"] =
        Pipelines ? StageTotal / double(Pipelines) : 0;
    M[std::string("core.stage_") + Stage + "_share"] =
        PipelineTotal > 0 ? StageTotal / PipelineTotal : 0;
  }

  M["core.portfolio_race_us"] = MeanPerCall("core.portfolio");
  M["core.portfolio_arms_run"] = double(T.ArmsRun);
  M["core.portfolio_arms_cancelled"] = double(T.ArmsCancelled);
  M["core.portfolio_win_ratio"] =
      T.Races ? T.WinRatioSum / double(T.Races) : 0;
  M["core.remap_swaps_evaluated"] = double(T.SwapsEvaluated);
  M["core.remap_swap_yield"] =
      T.SwapsEvaluated ? double(T.SwapsApplied) / T.SwapsEvaluated : 0;
  M["core.coalesce_oracle_calls"] = double(T.OracleCalls);
  M["core.coalesce_probe_waste"] =
      T.Probes ? double(T.ProbesUncolorable) / T.Probes : 0;
  M["core.recolor_candidate_evals"] = double(T.RecolorEvals);
  M["core.encode_slr_range"] = double(T.SlrRange);
  M["core.encode_slr_join"] = double(T.SlrJoin);
  M["regalloc.rounds"] = double(T.Rounds);
  M["regalloc.simplify_steps"] = double(T.SimplifySteps);
  M["regalloc.spilled_ranges"] = double(T.SpilledRanges);
  M["ilp.variables"] = double(T.IlpVariables);
  M["ilp.constraints"] = double(T.IlpConstraints);
  M["ilp.budget_hits"] = double(T.IlpBudgetHits);

  M["driver.cache_hit_mem_us"] = MeanPerCall("driver.cache_lookup.hit_mem");
  M["driver.cache_hit_disk_us"] = MeanPerCall("driver.cache_lookup.hit_disk");
  M["driver.cache_miss_probe_us"] = MeanPerCall("driver.cache_lookup.miss");

  // Attribution against the untraced client-observed mean latency.
  const double Attributed =
      M["server.wire_us"] + M["server.codec_us"] + M["ir.parse_us"] +
      M["ir.verify_us"] + PerReq("pool.queue_wait") + PerReq("pool.return") +
      PerReq("pool.task");
  M["unattributed_us"] = U.MeanLatencyUs - Attributed;
  M["attributed_share"] =
      U.MeanLatencyUs > 0 ? Attributed / U.MeanLatencyUs : 0;
  M["tracing_overhead_us"] = PerReq("request") - UntracedUs;

  writeChromeTrace(TraceOut, Spans);
  return M;
}

} // namespace perfbench
