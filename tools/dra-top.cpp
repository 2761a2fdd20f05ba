//===- tools/dra-top.cpp - Live dra-server introspection ------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Polls a running dra-server over dra-ctl-v1 control requests (answered
// from in-memory state, never the compile path) and renders a live view:
// request throughput, the server's counters, one latency row per
// histogram series of its metrics registry, trace counters, and the
// flight recorder's most recent requests — slow ones flagged. The stats
// body is the server's dra-metrics-v1 document, read with the same
// loadMetricsJson dra-stats uses, so a series the server adds shows up
// here unchanged. With --json it takes a single snapshot and prints the
// raw health + stats + recent bodies as one JSON document for scripting.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "driver/Json.h"
#include "driver/Metrics.h"
#include "server/Protocol.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include <signal.h>
#include <time.h>
#include <unistd.h>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-top --socket=PATH [options]\n"
    "\n"
    "Live introspection for a running dra-server. Sends dra-ctl-v1\n"
    "control requests ('health', 'stats' and 'recent') over the compile\n"
    "socket — the server answers them from in-memory state without\n"
    "touching the compile path — and renders throughput, counters, one\n"
    "latency row per histogram series of the server's dra-metrics-v1\n"
    "stats document (the per-tier mix including the error/shed tiers,\n"
    "cache probe times, ...), trace counters, and the flight recorder's\n"
    "most recent requests, slow ones flagged with '!'.\n"
    "\n"
    "options:\n"
    "  --socket=PATH     server unix socket (required)\n"
    "  --interval=S      seconds between refreshes (default 2)\n"
    "  --count=N         exit after N refreshes (default 0 = until ^C or\n"
    "                    the server goes away)\n"
    "  --recent=N        recent-request rows to show (default 16)\n"
    "  --json            single snapshot, printed as one JSON document\n"
    "                    {\"mono_us\": ..., \"health\": ..., \"stats\":\n"
    "                    ..., \"recent\": ...} — the control bodies\n"
    "                    verbatim (stats is dra-metrics-v1) plus a client\n"
    "                    monotonic timestamp; for scripting and CI\n"
    "  --help            show this text\n"
    "\n"
    "exit status: 0 on success, 1 when the server cannot be reached or\n"
    "answers a control request with an error, 2 on a command-line error.\n";

struct Options {
  std::string Socket;
  unsigned IntervalS = 2;
  unsigned Count = 0;
  unsigned RecentN = 16;
  bool Json = false;
  bool Help = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--socket=")) {
      O.Socket = V;
    } else if (const char *V = Value("--interval=")) {
      if (!cli::parseUnsigned("--interval", V, O.IntervalS))
        return false;
      if (O.IntervalS == 0) {
        std::fprintf(stderr, "error: --interval must be >= 1\n");
        return false;
      }
    } else if (const char *V = Value("--count=")) {
      if (!cli::parseUnsigned("--count", V, O.Count))
        return false;
    } else if (const char *V = Value("--recent=")) {
      if (!cli::parseUnsigned("--recent", V, O.RecentN))
        return false;
    } else if (Arg == "--json") {
      O.Json = true;
    } else if (Arg == "--help" || Arg == "-h") {
      O.Help = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   Arg.c_str());
      return false;
    }
  }
  return true;
}

/// One control exchange; false (with a diagnostic) on transport failure
/// or an error response.
bool fetch(int Fd, const std::string &Cmd, size_t RecentN,
           std::string &Body) {
  CtlRequest Req;
  Req.Cmd = Cmd;
  Req.RecentN = RecentN;
  CompileResponse Resp;
  std::string Err;
  if (!transactCtl(Fd, Req, Resp, &Err)) {
    std::fprintf(stderr, "error: control '%s': %s\n", Cmd.c_str(),
                 Err.c_str());
    return false;
  }
  if (Resp.Status != ResponseStatus::Ok) {
    std::fprintf(stderr, "error: control '%s': %s\n", Cmd.c_str(),
                 Resp.Body.c_str());
    return false;
  }
  Body = Resp.Body;
  return true;
}

double numField(const JsonValue &Obj, const char *Name) {
  const JsonValue *V = Obj.field(Name);
  return V && V->K == JsonValue::Number ? V->Num : 0;
}

std::string strField(const JsonValue &Obj, const char *Name) {
  const JsonValue *V = Obj.field(Name);
  return V && V->K == JsonValue::String ? V->Str : std::string("?");
}

/// Client-side monotonic clock in microseconds (for the --json snapshot
/// timestamp; rate rendering uses the server's own uptime_us).
uint64_t monotonicUs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000u +
         static_cast<uint64_t>(Ts.tv_nsec) / 1000u;
}

/// The value of series \p Name, 0 when the document does not carry it.
double seriesValue(const std::map<std::string, double> &Series,
                   const char *Name) {
  auto It = Series.find(Name);
  return It == Series.end() ? 0 : It->second;
}

/// Renders one frame from the health, stats and recent documents.
/// \p PrevRequests / \p PrevUptimeUs are the server.requests and health
/// uptime_us of the previous frame (negative on the first one, which
/// suppresses the rate). The rate divides the request delta by the
/// *server's* elapsed uptime, so an interrupted sleep or a wall-clock
/// step cannot skew it; when the elapsed time is zero/near-zero or any
/// counter went backwards (server restarted behind the same socket), the
/// rate renders as '-' instead of inf/nan or a negative surprise.
void render(const JsonValue &Health, const MetricsFileData &Stats,
            const JsonValue &Recent, double PrevRequests,
            double PrevUptimeUs) {
  auto Counter = [&](const char *Name) {
    return seriesValue(Stats.Counters, Name);
  };
  auto Gauge = [&](const char *Name) {
    return seriesValue(Stats.Gauges, Name);
  };

  double Requests = Counter("server.requests");
  double UptimeUs = numField(Health, "uptime_us");
  std::printf("dra-top — pid %.0f, up %.1f s, %.0f worker(s), queue "
              "%.0f/%.0f\n",
              numField(Health, "pid"), UptimeUs / 1e6,
              Gauge("server.workers"), Gauge("server.queue_depth"),
              Gauge("server.queue_limit"));
  std::printf("  requests %.0f", Requests);
  if (PrevRequests >= 0) {
    double ElapsedUs = UptimeUs - PrevUptimeUs;
    // >= 1ms of server time and monotone counters, else no rate.
    if (ElapsedUs >= 1000.0 && Requests >= PrevRequests)
      std::printf(" (%+.1f/s)", (Requests - PrevRequests) /
                                    (ElapsedUs / 1e6));
    else
      std::printf(" (-/s)");
  }
  std::printf("   ctl %.0f   shed %.0f   errors %.0f   bad frames %.0f\n",
              Counter("server.ctl_requests"), Counter("server.shed"),
              Counter("server.errors"), Counter("server.bad_frames"));
  // Share of requests the request index answered without a parse.
  const double IndexHits = Counter("server.index_hits");
  const double IndexLookups = IndexHits + Counter("server.index_misses");
  std::printf("  index: %.1f%% hit (%.0f of %.0f), %.0f mismatch(es)   "
              "connections open %.0f\n",
              IndexLookups > 0 ? 100.0 * IndexHits / IndexLookups : 0.0,
              IndexHits, IndexLookups, Counter("server.index_mismatches"),
              Gauge("server.connections_open"));
  std::printf("  trace: %.0f traced, %.0f span(s), %.0f dropped, %.0f "
              "slow (>= %.0f us), flight %.0f/%.0f\n",
              Counter("trace.requests"), Counter("trace.spans"),
              Counter("trace.dropped_spans"), Counter("trace.slow_requests"),
              Gauge("trace.slow_threshold_us"),
              Gauge("trace.flight_recorded"), Gauge("trace.flight_capacity"));

  // One row per histogram series, named as dra-stats names it.
  if (!Stats.Histograms.empty()) {
    std::printf("\n  %-34s %8s %10s %10s %10s %10s\n", "series", "count",
                "p50", "p90", "p99", "max");
    for (const auto &[Key, H] : Stats.Histograms)
      std::printf("  %-34s %8.0f %10.1f %10.1f %10.1f %10.1f\n",
                  Key.c_str(), H.Count, H.P50, H.P90, H.P99, H.Max);
  }

  const JsonValue *Records = Recent.field("records");
  if (Records && Records->K == JsonValue::Array && !Records->Arr.empty()) {
    std::printf("\n  %5s  %-16s %-5s %-8s %-8s %10s %9s %10s\n", "seq",
                "trace", "conn", "outcome", "tier", "total_us", "queue_us",
                "compile_us");
    for (const JsonValue &R : Records->Arr) {
      const JsonValue *Spans = R.field("spans");
      size_t SpanCount =
          Spans && Spans->K == JsonValue::Array ? Spans->Arr.size() : 0;
      std::printf("  %5.0f%c %-16s %-5.0f %-8s %-8s %10.1f %9.1f %10.1f",
                  numField(R, "seq"),
                  R.field("slow") && R.field("slow")->B ? '!' : ' ',
                  strField(R, "traceid").c_str(), numField(R, "conn"),
                  strField(R, "outcome").c_str(),
                  strField(R, "tier").c_str(), numField(R, "total_us"),
                  numField(R, "queue_us"), numField(R, "compile_us"));
      if (SpanCount)
        std::printf("  [%zu span(s)]", SpanCount);
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (O.Help) {
    std::fputs(UsageText, stdout);
    return 0;
  }
  if (O.Socket.empty()) {
    std::fprintf(stderr, "error: --socket is required (try --help)\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);

  std::string ConnErr;
  int Fd = connectUnixSocket(O.Socket, &ConnErr);
  if (Fd < 0) {
    std::fprintf(stderr, "error: %s\n", ConnErr.c_str());
    return 1;
  }

  if (O.Json) {
    std::string Health, Stats, Recent;
    if (!fetch(Fd, "health", O.RecentN, Health) ||
        !fetch(Fd, "stats", O.RecentN, Stats) ||
        !fetch(Fd, "recent", O.RecentN, Recent)) {
      close(Fd);
      return 1;
    }
    close(Fd);
    // Raw control bodies verbatim (all counters untouched) plus a
    // client-side monotonic timestamp so scripts diffing successive
    // snapshots have a wall-clock-step-immune timebase.
    std::printf("{\"mono_us\": %llu, \"health\": %s, \"stats\": %s, "
                "\"recent\": %s}\n",
                static_cast<unsigned long long>(monotonicUs()),
                Health.c_str(), Stats.c_str(), Recent.c_str());
    return 0;
  }

  double PrevRequests = -1, PrevUptimeUs = -1;
  const bool Tty = isatty(STDOUT_FILENO);
  for (unsigned Frame = 0; O.Count == 0 || Frame != O.Count; ++Frame) {
    if (Frame != 0)
      sleep(O.IntervalS);
    std::string HealthBody, StatsBody, RecentBody;
    if (!fetch(Fd, "health", O.RecentN, HealthBody) ||
        !fetch(Fd, "stats", O.RecentN, StatsBody) ||
        !fetch(Fd, "recent", O.RecentN, RecentBody)) {
      close(Fd);
      return 1;
    }
    JsonValue Health, Recent;
    MetricsFileData Stats;
    std::istringstream StatsIn(StatsBody);
    std::string Err;
    if (!parseJson(HealthBody, Health, &Err) ||
        !loadMetricsJson(StatsIn, Stats, &Err) ||
        !parseJson(RecentBody, Recent, &Err)) {
      std::fprintf(stderr, "error: bad control body: %s\n", Err.c_str());
      close(Fd);
      return 1;
    }
    if (Tty)
      std::printf("\033[H\033[J"); // home + clear: live refresh in place
    else if (Frame != 0)
      std::printf("\n");
    render(Health, Stats, Recent, PrevRequests, PrevUptimeUs);
    PrevRequests = seriesValue(Stats.Counters, "server.requests");
    PrevUptimeUs = numField(Health, "uptime_us");
  }
  close(Fd);
  return 0;
}
