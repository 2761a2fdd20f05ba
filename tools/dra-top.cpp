//===- tools/dra-top.cpp - Live dra-server introspection ------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Polls a running dra-server over dra-ctl-v1 control requests (answered
// from in-memory state, never the compile path) and renders a live view:
// request throughput, per-tier latency percentiles, trace counters, and
// the flight recorder's most recent requests — slow ones flagged. With
// --json it takes a single snapshot and prints the raw stats + recent
// bodies as one JSON document for scripting.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "driver/Json.h"
#include "server/Protocol.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <signal.h>
#include <time.h>
#include <unistd.h>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-top --socket=PATH [options]\n"
    "\n"
    "Live introspection for a running dra-server. Sends dra-ctl-v1\n"
    "control requests ('stats' and 'recent') over the compile socket —\n"
    "the server answers them from in-memory state without touching the\n"
    "compile path — and renders throughput, the per-tier latency mix\n"
    "(including the error/shed tiers), trace counters, and the flight\n"
    "recorder's most recent requests, slow ones flagged with '!'.\n"
    "\n"
    "options:\n"
    "  --socket=PATH     server unix socket (required)\n"
    "  --interval=S      seconds between refreshes (default 2)\n"
    "  --count=N         exit after N refreshes (default 0 = until ^C or\n"
    "                    the server goes away)\n"
    "  --recent=N        recent-request rows to show (default 16)\n"
    "  --json            single snapshot, printed as one JSON document\n"
    "                    {\"mono_us\": ..., \"stats\": ..., \"recent\":\n"
    "                    ...} — the control bodies verbatim (raw\n"
    "                    counters) plus a client monotonic timestamp;\n"
    "                    for scripting and CI\n"
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

/// Renders one frame from the parsed stats/recent documents.
/// \p PrevRequests / \p PrevUptimeUs are the server.requests and
/// server.uptime_us of the previous frame (negative on the first one,
/// which suppresses the rate). The rate divides the request delta by the
/// *server's* elapsed uptime, so an interrupted sleep or a wall-clock
/// step cannot skew it; when the elapsed time is zero/near-zero or any
/// counter went backwards (server restarted behind the same socket), the
/// rate renders as '-' instead of inf/nan or a negative surprise.
void render(const JsonValue &Stats, const JsonValue &Recent,
            double PrevRequests, double PrevUptimeUs) {
  const JsonValue *Server = Stats.field("server");
  const JsonValue *Trace = Stats.field("trace");
  const JsonValue *Tiers = Stats.field("tiers");
  if (!Server || !Trace)
    return;

  double Requests = numField(*Server, "requests");
  double UptimeUs = numField(*Server, "uptime_us");
  std::printf("dra-top — pid %.0f, up %.1f s, %.0f worker(s), queue "
              "%.0f/%.0f\n",
              numField(*Server, "pid"), UptimeUs / 1e6,
              numField(*Server, "workers"),
              numField(*Server, "queue_depth"),
              numField(*Server, "queue_limit"));
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
              numField(*Server, "ctl_requests"), numField(*Server, "shed"),
              numField(*Server, "errors"), numField(*Server, "bad_frames"));
  // Share of requests the request index answered without a parse.
  const double IndexHits = numField(*Server, "index_hits");
  const double IndexLookups = IndexHits + numField(*Server, "index_misses");
  std::printf("  index: %.1f%% hit (%.0f of %.0f), %.0f mismatch(es)   "
              "connections open %.0f\n",
              IndexLookups > 0 ? 100.0 * IndexHits / IndexLookups : 0.0,
              IndexHits, IndexLookups, numField(*Server, "index_mismatches"),
              numField(*Server, "connections_open"));
  std::printf("  trace: %.0f traced, %.0f span(s), %.0f dropped, %.0f "
              "slow (>= %.0f us), flight %.0f/%.0f\n",
              numField(*Trace, "requests"), numField(*Trace, "spans"),
              numField(*Trace, "dropped_spans"),
              numField(*Trace, "slow_requests"),
              numField(*Trace, "slow_threshold_us"),
              numField(*Trace, "flight_recorded"),
              numField(*Trace, "flight_capacity"));

  if (Tiers && Tiers->K == JsonValue::Array && !Tiers->Arr.empty()) {
    std::printf("\n  %-10s %8s %10s %10s %10s %10s\n", "tier", "count",
                "p50_us", "p90_us", "p99_us", "max_us");
    for (const JsonValue &T : Tiers->Arr)
      std::printf("  %-10s %8.0f %10.1f %10.1f %10.1f %10.1f\n",
                  strField(T, "tier").c_str(), numField(T, "count"),
                  numField(T, "p50_us"), numField(T, "p90_us"),
                  numField(T, "p99_us"), numField(T, "max_us"));
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
    std::string Stats, Recent;
    if (!fetch(Fd, "stats", O.RecentN, Stats) ||
        !fetch(Fd, "recent", O.RecentN, Recent)) {
      close(Fd);
      return 1;
    }
    close(Fd);
    // Raw control bodies verbatim (all counters untouched) plus a
    // client-side monotonic timestamp so scripts diffing successive
    // snapshots have a wall-clock-step-immune timebase.
    std::printf("{\"mono_us\": %llu, \"stats\": %s, \"recent\": %s}\n",
                static_cast<unsigned long long>(monotonicUs()),
                Stats.c_str(), Recent.c_str());
    return 0;
  }

  double PrevRequests = -1, PrevUptimeUs = -1;
  const bool Tty = isatty(STDOUT_FILENO);
  for (unsigned Frame = 0; O.Count == 0 || Frame != O.Count; ++Frame) {
    if (Frame != 0)
      sleep(O.IntervalS);
    std::string StatsBody, RecentBody;
    if (!fetch(Fd, "stats", O.RecentN, StatsBody) ||
        !fetch(Fd, "recent", O.RecentN, RecentBody)) {
      close(Fd);
      return 1;
    }
    JsonValue Stats, Recent;
    std::string Err;
    if (!parseJson(StatsBody, Stats, &Err) ||
        !parseJson(RecentBody, Recent, &Err)) {
      std::fprintf(stderr, "error: bad control body: %s\n", Err.c_str());
      close(Fd);
      return 1;
    }
    if (Tty)
      std::printf("\033[H\033[J"); // home + clear: live refresh in place
    else if (Frame != 0)
      std::printf("\n");
    render(Stats, Recent, PrevRequests, PrevUptimeUs);
    const JsonValue *Server = Stats.field("server");
    PrevRequests = Server ? numField(*Server, "requests") : -1;
    PrevUptimeUs = Server ? numField(*Server, "uptime_us") : -1;
  }
  close(Fd);
  return 0;
}
