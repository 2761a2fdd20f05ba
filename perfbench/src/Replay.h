//===- perfbench/src/Replay.h - Traced in-process replay --------*- C++ -*-===//
//
// The traced run. It replays a workload's request sequence inside the
// benchmark's own process, calling the public functions dra-server calls,
// in the server's order:
//
//   encodeRequest | decodeRequest, parseFunction, verifyFunction,
//   ThreadPool::submit -> [ResultCache::lookupTiered,
//   runPipeline | runPortfolio, ResultCache::store, serializeResult]
//   -> encodeResponse | decodeResponse
//
// Every call gets a span (name, start, end, parent, request id) kept in
// memory and written out as a Chrome trace at the end. Probe calls that
// the server makes only inside another call (ResultCache::cacheKey,
// deserializeResult) are timed on the same inputs beside the request and
// count in no request total. A second pass replays the same calls with
// spans off (the difference is the tracing overhead), and a third sends
// the same payloads through an in-process CompileServer::handleRequest
// for the server-side total.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Load.h"

#include "core/Portfolio.h"
#include "driver/ResultCache.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The server under test: the flags a run spawns dra-server with, and
/// what the replay mirrors of it.
struct ServerConfig {
  unsigned Workers = 2;
  unsigned CacheMemMb = 64;
  std::string CacheDir; ///< Empty: no disk tier.
  dra::PortfolioMode Portfolio = dra::PortfolioMode::Off;
  unsigned PortfolioJobs = 0;

  /// dra-server flags besides --socket.
  std::vector<std::string> args() const;
  /// The cache options of replay pass \p Pass; a disk tier gets its own
  /// directory per pass, so passes never share disk entries.
  dra::ResultCacheOptions replayCache(int Pass) const;
};

struct ReplayInput {
  std::vector<dra::CompileRequest> Requests; ///< By key index.
  /// The verified response body of each key (empty if never produced);
  /// replay outputs are compared with it.
  std::vector<std::string> Canonical;
  /// Keys stored into both passes' caches before replaying (the warm set).
  std::vector<uint32_t> Preload;
  unsigned Conns = 2;
  /// Fresh per pass; the replay calls it the way runPhase does.
  std::function<NextKeyFn()> MakeStream;
};

/// Untraced numbers the attribution is measured against.
struct UntracedView {
  double MeanLatencyUs = 0; ///< Client-observed, timed phase.
  double WireUs = 0;        ///< dra-ctl-v1 health round trip (median).
};

/// Replays \p In traced and through handleRequest; returns the per-layer
/// metrics by name. Writes the spans to \p TraceOut.
std::map<std::string, double> replayTraced(const ServerConfig &S,
                                           const ReplayInput &In,
                                           const UntracedView &U,
                                           const std::string &TraceOut);

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric replayTraced reports, in report order.
const std::vector<LayerMetric> &layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
