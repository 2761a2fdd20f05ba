//===- tools/dra-server.cpp - Compilation-as-a-service daemon -------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Persistent compile server: listens on a unix socket, answers framed
// CompileRequests (see src/server/Protocol.h) out of a shared
// content-addressed ResultCache, dispatching misses onto a thread pool.
// Responses are byte-identical to what dra-batch would cache for the same
// input. SIGINT/SIGTERM drain gracefully: in-flight requests finish,
// metrics are flushed, the socket file is removed, exit status 0.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "driver/ResultCache.h"
#include "server/Server.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-server --socket=PATH [options]\n"
    "\n"
    "Runs the differential-register-allocation compile service on a unix\n"
    "stream socket. Clients (dra-loadgen, tests) send framed dra-req-v1\n"
    "requests; the server answers from a shared two-tier result cache,\n"
    "compiling misses on a worker pool. SIGINT/SIGTERM shut down\n"
    "gracefully: accepted requests finish, metrics flush, exit 0.\n"
    "\n"
    "options:\n"
    "  --socket=PATH          unix socket path (required)\n"
    "  --workers=N            compile workers (default 0 = hardware\n"
    "                         concurrency)\n"
    "  --queue-depth=N        admission bound: max in-flight compiles\n"
    "                         (cache misses) before shedding (default 64;\n"
    "                         0 sheds every miss; hits are never shed)\n"
    "  --max-frame-bytes=N    per-frame payload cap (default 16 MiB)\n"
    "  --cache-dir=DIR        persistent cache tier (dra-cache-v1 files)\n"
    "  --cache-mem-mb=N       in-memory cache budget in MiB (default 64)\n"
    "  --cache-verify=F       recompile fraction F of cache hits and\n"
    "                         byte-compare against the cached result\n"
    "  --metrics-out=FILE     write server.* + cache.* metrics\n"
    "                         (dra-metrics-v1) on shutdown and every\n"
    "                         --metrics-interval\n"
    "  --metrics-interval=S   periodic metrics export period in seconds\n"
    "                         (default 0 = only on shutdown)\n"
    "  --flight-recorder=N    request records retained for dra-ctl-v1\n"
    "                         'recent' / dra-top (default 256; 0 disables)\n"
    "  --slow-request-us=N    requests at/above N microseconds keep full\n"
    "                         span detail in the flight recorder\n"
    "                         (default 100000)\n"
    "  --portfolio=MODE       how scheme=auto requests are served:\n"
    "                         off (default: structured error), race\n"
    "                         (race the scheme portfolio, commit the\n"
    "                         deterministic winner), choose (consult the\n"
    "                         --portfolio-table chooser, race on low\n"
    "                         confidence)\n"
    "  --portfolio-table=FILE portfolio-v1 decision table (dra-tune\n"
    "                         output) for --portfolio=choose\n"
    "  --portfolio-jobs=N     workers per portfolio race (default 0 =\n"
    "                         one per arm; results identical at any N)\n"
    "  --help                 show this text\n"
    "\n"
    "exit status: 0 on clean (signal-driven) shutdown, 1 on a runtime\n"
    "error, 2 on a command-line error.\n";

struct Options {
  std::string Socket;
  unsigned Workers = 0;
  unsigned QueueDepth = 64;
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
  std::string CacheDir;
  unsigned CacheMemMb = 64;
  double CacheVerify = 0;
  std::string MetricsOut;
  unsigned MetricsIntervalS = 0;
  size_t FlightRecorder = 256;
  uint64_t SlowRequestUs = 100000;
  PortfolioMode Portfolio = PortfolioMode::Off;
  std::string PortfolioTable;
  unsigned PortfolioJobs = 0;
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
    } else if (const char *V = Value("--workers=")) {
      if (!cli::parseUnsigned("--workers", V, O.Workers))
        return false;
    } else if (const char *V = Value("--queue-depth=")) {
      if (!cli::parseUnsigned("--queue-depth", V, O.QueueDepth))
        return false;
    } else if (const char *V = Value("--max-frame-bytes=")) {
      if (!cli::parseSize("--max-frame-bytes", V, O.MaxFrameBytes))
        return false;
    } else if (const char *V = Value("--cache-dir=")) {
      O.CacheDir = V;
    } else if (const char *V = Value("--cache-mem-mb=")) {
      if (!cli::parseUnsigned("--cache-mem-mb", V, O.CacheMemMb))
        return false;
    } else if (const char *V = Value("--cache-verify=")) {
      if (!cli::parseDouble("--cache-verify", V, O.CacheVerify))
        return false;
      if (O.CacheVerify < 0 || O.CacheVerify > 1) {
        std::fprintf(stderr, "error: --cache-verify must be in [0, 1]\n");
        return false;
      }
    } else if (const char *V = Value("--metrics-out=")) {
      O.MetricsOut = V;
    } else if (const char *V = Value("--metrics-interval=")) {
      if (!cli::parseUnsigned("--metrics-interval", V, O.MetricsIntervalS))
        return false;
    } else if (const char *V = Value("--flight-recorder=")) {
      if (!cli::parseSize("--flight-recorder", V, O.FlightRecorder))
        return false;
    } else if (const char *V = Value("--slow-request-us=")) {
      if (!cli::parseU64("--slow-request-us", V, O.SlowRequestUs))
        return false;
    } else if (const char *V = Value("--portfolio=")) {
      if (!parsePortfolioMode(V, O.Portfolio)) {
        std::fprintf(stderr,
                     "error: --portfolio must be off, race, or choose\n");
        return false;
      }
    } else if (const char *V = Value("--portfolio-table=")) {
      O.PortfolioTable = V;
    } else if (const char *V = Value("--portfolio-jobs=")) {
      if (!cli::parseUnsigned("--portfolio-jobs", V, O.PortfolioJobs))
        return false;
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

/// Self-pipe for signal-driven shutdown: the handler's only action is an
/// async-signal-safe write; the main thread sleeps in poll() on the read
/// end, so the drain logic runs in a normal context.
int SignalPipe[2] = {-1, -1};

void onShutdownSignal(int) {
  char Byte = 1;
  ssize_t Ignored = write(SignalPipe[1], &Byte, 1);
  (void)Ignored;
}

bool writeMetrics(const Options &O, CompileServer &Server,
                  MetricsRegistry &Metrics) {
  if (O.MetricsOut.empty())
    return true;
  Server.flushMetrics();
  std::string Err;
  if (!Metrics.writeJsonFile(O.MetricsOut, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  return true;
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

  if (pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction SA;
  std::memset(&SA, 0, sizeof SA);
  SA.sa_handler = onShutdownSignal;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  MetricsRegistry Metrics;
  ResultCacheOptions CO;
  CO.MemBudgetBytes = static_cast<size_t>(O.CacheMemMb) << 20;
  CO.DiskDir = O.CacheDir;
  CO.VerifyFraction = O.CacheVerify;
  ResultCache Cache(CO);
  Cache.setMetrics(&Metrics);

  // The decision table outlives the server (ServerOptions borrows it).
  DecisionTable Table;
  bool HaveTable = false;
  if (!O.PortfolioTable.empty()) {
    std::ifstream In(O.PortfolioTable, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open --portfolio-table '%s'\n",
                   O.PortfolioTable.c_str());
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string TErr;
    if (!DecisionTable::fromJson(SS.str(), Table, &TErr)) {
      std::fprintf(stderr, "error: %s: %s\n", O.PortfolioTable.c_str(),
                   TErr.c_str());
      return 2;
    }
    HaveTable = true;
  }
  if (O.Portfolio == PortfolioMode::Choose && !HaveTable)
    std::fprintf(stderr, "dra-server: --portfolio=choose without a "
                         "--portfolio-table races every request\n");

  ServerOptions SO;
  SO.SocketPath = O.Socket;
  SO.Workers = O.Workers;
  SO.QueueDepth = O.QueueDepth;
  SO.MaxFrameBytes = O.MaxFrameBytes;
  SO.Cache = &Cache;
  SO.Metrics = &Metrics;
  SO.FlightRecorderSize = O.FlightRecorder;
  SO.SlowRequestUs = O.SlowRequestUs;
  SO.Portfolio = O.Portfolio;
  SO.PortfolioTable = HaveTable ? &Table : nullptr;
  SO.PortfolioJobs = O.PortfolioJobs;
  CompileServer Server(SO);

  std::string Err;
  if (!Server.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "dra-server: listening on %s (%u worker(s), "
                       "queue depth %u)\n",
               O.Socket.c_str(), Server.workerCount(), O.QueueDepth);

  // Sleep until a shutdown signal, waking for the periodic export.
  int TimeoutMs =
      O.MetricsIntervalS ? static_cast<int>(O.MetricsIntervalS) * 1000 : -1;
  for (;;) {
    struct pollfd Pfd = {SignalPipe[0], POLLIN, 0};
    int N = poll(&Pfd, 1, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
      break;
    }
    if (N == 0) { // periodic flush
      writeMetrics(O, Server, Metrics);
      continue;
    }
    break; // signal arrived
  }

  std::fprintf(stderr, "dra-server: draining...\n");
  Server.stop();
  bool Ok = writeMetrics(O, Server, Metrics);
  ResultCacheStats CS = Cache.stats();
  std::fprintf(stderr,
               "dra-server: served %llu request(s) (%llu shed, %llu "
               "error(s)); cache %llu hit(s) / %llu miss(es)\n",
               static_cast<unsigned long long>(
                   Server.serverMetrics().Requests.load()),
               static_cast<unsigned long long>(Server.queue().shed()),
               static_cast<unsigned long long>(
                   Server.serverMetrics().Errors.load()),
               static_cast<unsigned long long>(CS.Hits),
               static_cast<unsigned long long>(CS.Misses));
  if (Cache.stats().VerifyMismatches != 0) {
    std::fprintf(stderr, "error: cache verification found mismatches\n");
    Ok = false;
  }
  return Ok ? 0 : 1;
}
