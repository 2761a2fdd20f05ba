//===- perfbench/src/main.cpp - The repository benchmark's client ---------===//
//
// Runs one benchmark workload against a spawned dra-server and prints one
// JSON result line. See perfbench/README.md for the workloads, the
// metrics and how to run them.
//
//   perfbench --workload=serve-hot|compile-cold|serve-churn --seed=N
//             --seconds=S --trace=0|1 --server-bin=PATH --work-dir=DIR
//             --pinned=FILE [--smoke]
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Corpus.h"
#include "Load.h"
#include "Replay.h"
#include "ServerProcess.h"

#include "adt/Rng.h"
#include "driver/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include <signal.h>
#include <unistd.h>

using namespace dra;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServerBin, WorkDir, Pinned;
  bool Smoke = false;
};

/// Input sizes. The full sizes are calibrated so each timed phase takes
/// about --seconds; --smoke shrinks everything to a toy run.
struct Sizing {
  unsigned HotFns = 64;
  unsigned ColdFnsPerSecond = 8;
  unsigned ChurnPerConnPerSecond = 70;
  unsigned ChurnEvery = 8; ///< One new function per this many requests.
  unsigned SpawnCycles = 30;
  unsigned RecompileSample = 12;
  unsigned HotReplayPerConn = 4000;
  unsigned ColdReplay = 400; ///< compile-cold replays this prefix.
};

Sizing smokeSizing() {
  Sizing S;
  S.HotFns = 4;
  S.ColdFnsPerSecond = 4;
  S.ChurnPerConnPerSecond = 40;
  S.SpawnCycles = 3;
  S.RecompileSample = 3;
  S.HotReplayPerConn = 100;
  S.ColdReplay = 10;
  return S;
}

constexpr unsigned Conns = 2;
constexpr uint64_t PinnedSeed = 1;
constexpr double PinnedSeconds = 20;

/// Everything a workload sends, derived from the seed alone.
struct Plan {
  Corpus C;
  std::vector<RequestKey> Keys;
  std::vector<CompileRequest> Requests;
  ServerConfig Server;
  std::function<NextKeyFn()> MakeWarm;  ///< serve-hot's set-up pass.
  std::function<NextKeyFn()> MakeTimed;
  std::function<NextKeyFn()> MakeReplay;
  KeepBodyFn Keep;
  bool TimeBounded = false;
  double TailQ = 99;
  Tier Expect = Tier::None; ///< Tier every timed response should have.
  std::vector<RequestKey> FingerprintSeq;
  uint64_t Introductions = 0, Races = 0; ///< serve-churn's compile set.
};

std::vector<uint32_t> shuffled(size_t N, Rng R) {
  std::vector<uint32_t> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = static_cast<uint32_t>(I);
  for (size_t I = N; I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
  return V;
}

/// A stream that hands out the first \p Cap keys of \p Order once, shared
/// by all connections.
std::function<NextKeyFn()> sharedQueue(std::vector<uint32_t> Order,
                                       size_t Cap = SIZE_MAX) {
  auto O = std::make_shared<std::vector<uint32_t>>(std::move(Order));
  const size_t N = std::min(Cap, O->size());
  return [O, N] {
    auto Next = std::make_shared<std::atomic<size_t>>(0);
    return NextKeyFn([O, N, Next](unsigned, uint64_t) -> int64_t {
      size_t I = Next->fetch_add(1);
      return I < N ? int64_t((*O)[I]) : -1;
    });
  };
}

/// A seeded ranking of every (function, scheme) key of \p P in which
/// rank R is a medium function iff R % 4 == 3 and has scheme R % 5.
std::vector<uint32_t> stratifiedRanking(const Plan &P, Rng R) {
  // Pools of key indices per (size, scheme), each in seeded order.
  std::vector<uint32_t> Pool[2][5];
  for (uint32_t K : shuffled(P.Keys.size(), R)) {
    const RequestKey &Key = P.Keys[K];
    Pool[P.C.Medium[Key.Fn]][static_cast<int>(Key.S)].push_back(K);
  }
  std::vector<uint32_t> Ranking;
  for (size_t Rank = 0; Ranking.size() != P.Keys.size(); ++Rank) {
    const bool Medium = Rank % 4 == 3;
    // Fall back to any non-empty pool once a stratum runs dry.
    for (int Try = 0; Try != 10; ++Try) {
      std::vector<uint32_t> &Src =
          Pool[Try < 5 ? Medium : !Medium][(Rank + Try) % 5];
      if (!Src.empty()) {
        Ranking.push_back(Src.back());
        Src.pop_back();
        break;
      }
    }
  }
  return Ranking;
}

void addAllSchemeKeys(Plan &P) {
  for (unsigned Fn = 0; Fn != P.C.Texts.size(); ++Fn)
    for (Scheme S : AllSchemes)
      P.Keys.push_back({Fn, false, S});
}

Plan planServeHot(uint64_t Seed, const Sizing &Z) {
  Plan P;
  P.C = makeCorpus(Seed, 1, Z.HotFns);
  addAllSchemeKeys(P);
  std::vector<uint32_t> Warm = shuffled(P.Keys.size(), Rng::forTask(Seed, 11));
  P.MakeWarm = sharedQueue(Warm);
  // Zipf(1) popularity over a seeded ranking of the keys; each connection
  // draws from its own stream. The ranking is stratified: rank R holds a
  // medium function when R % 4 == 3 and scheme R % 5, so every seed sends
  // the same share of each size and scheme and only the functions differ.
  auto Rank = std::make_shared<std::vector<uint32_t>>(
      stratifiedRanking(P, Rng::forTask(Seed, 12)));
  auto Zipf = std::make_shared<ZipfSampler>(P.Keys.size(), 1.0);
  auto Stream = [Seed, Rank, Zipf](uint64_t Cap) {
    return [Seed, Rank, Zipf, Cap] {
      auto Rngs = std::make_shared<std::vector<Rng>>();
      for (unsigned C = 0; C != Conns; ++C)
        Rngs->push_back(Rng::forTask(Seed, 100 + C));
      return NextKeyFn([Rank, Zipf, Rngs, Cap](unsigned C,
                                               uint64_t I) -> int64_t {
        if (Cap && I >= Cap)
          return -1;
        return (*Rank)[Zipf->rank((*Rngs)[C].nextDouble())];
      });
    };
  };
  P.MakeTimed = Stream(0);
  P.MakeReplay = Stream(Z.HotReplayPerConn);
  P.Keep = [](unsigned, uint64_t I, uint32_t) { return I % 64 == 0; };
  P.TimeBounded = true;
  // p99 of hits is set by scheduler stalls and spread 0.11-0.15 across
  // seeds; p95 is the highest percentile that repeats.
  P.TailQ = 95;
  P.Expect = Tier::HitMem;
  for (uint32_t K : Warm)
    P.FingerprintSeq.push_back(P.Keys[K]);
  // The timed stream is unbounded; its first 1000 keys per connection
  // stand for it in the fingerprint.
  NextKeyFn FpStream = Stream(1000)();
  for (unsigned C = 0; C != Conns; ++C)
    for (int64_t I = 0, K; (K = FpStream(C, I)) >= 0; ++I)
      P.FingerprintSeq.push_back(P.Keys[K]);
  return P;
}

Plan planCompileCold(uint64_t Seed, double Seconds, const Sizing &Z) {
  Plan P;
  const unsigned Fns =
      std::max(4u, unsigned(std::lround(Z.ColdFnsPerSecond * Seconds)));
  P.C = makeCorpus(Seed, 2, Fns);
  addAllSchemeKeys(P);
  std::vector<uint32_t> Order = shuffled(P.Keys.size(), Rng::forTask(Seed, 21));
  P.MakeTimed = sharedQueue(Order);
  // Three replay passes of every compile would take longer than the run.
  P.MakeReplay = sharedQueue(Order, Z.ColdReplay);
  P.Keep = [](unsigned, uint64_t, uint32_t) { return true; };
  P.TailQ = 95;
  P.Expect = Tier::Miss;
  for (uint32_t K : Order)
    P.FingerprintSeq.push_back(P.Keys[K]);
  return P;
}

Plan planServeChurn(uint64_t Seed, double Seconds, const Sizing &Z,
                    const std::string &CacheDir) {
  Plan P;
  const uint64_t PerConn =
      std::max<uint64_t>(Z.ChurnEvery * 2,
                         std::llround(Z.ChurnPerConnPerSecond * Seconds));
  // A multiple of four, so both connections' slots follow the corpus's
  // small/medium pattern from the same phase.
  const unsigned NewPerConn =
      unsigned((PerConn + 4 * Z.ChurnEvery - 1) / (4 * Z.ChurnEvery)) * 4;
  P.C = makeCorpus(Seed, 3, NewPerConn * Conns);
  // Connection C introduces functions [C * NewPerConn, (C + 1) *
  // NewPerConn), so no key is introduced by two connections. A quarter of
  // the introductions are scheme=auto, spread evenly over the small and
  // medium slots; the rest cycle through the five schemes.
  for (unsigned C = 0; C != Conns; ++C)
    for (unsigned K = 0, Explicit = C; K != NewPerConn; ++K) {
      RequestKey Key;
      Key.Fn = C * NewPerConn + K;
      Key.Auto = (K + K / 4) % 4 == 0;
      if (!Key.Auto)
        Key.S = AllSchemes[Explicit++ % 5];
      P.Keys.push_back(Key);
    }
  P.Server.CacheMemMb = 1;
  P.Server.CacheDir = CacheDir;
  P.Server.Portfolio = PortfolioMode::Race;
  P.Server.PortfolioJobs = 1;

  // Each connection's sequence: every ChurnEvery-th request introduces its
  // next function; the others repeat an introduced key, zipf(1) over
  // introduction order (the oldest key is the most popular).
  std::vector<double> Harmonic(NewPerConn);
  for (unsigned I = 0; I != NewPerConn; ++I)
    Harmonic[I] = (I ? Harmonic[I - 1] : 0) + 1.0 / (I + 1);
  auto Seqs = std::make_shared<std::vector<std::vector<uint32_t>>>(Conns);
  for (unsigned C = 0; C != Conns; ++C) {
    Rng R = Rng::forTask(Seed, 300 + C);
    unsigned Introduced = 0;
    for (uint64_t I = 0; I != PerConn; ++I) {
      uint32_t Local;
      if (I % Z.ChurnEvery == 0) {
        Local = Introduced++;
        ++P.Introductions;
        P.Races += P.Keys[C * NewPerConn + Local].Auto;
      } else {
        const double U = R.nextDouble() * Harmonic[Introduced - 1];
        Local = unsigned(std::upper_bound(Harmonic.begin(),
                                          Harmonic.begin() + Introduced, U) -
                         Harmonic.begin());
        Local = std::min(Local, Introduced - 1);
      }
      (*Seqs)[C].push_back(C * NewPerConn + Local);
    }
  }
  P.MakeTimed = [Seqs] {
    return NextKeyFn([Seqs](unsigned C, uint64_t I) -> int64_t {
      return I < (*Seqs)[C].size() ? int64_t((*Seqs)[C][I]) : -1;
    });
  };
  P.MakeReplay = P.MakeTimed;
  const unsigned Every = Z.ChurnEvery;
  P.Keep = [Every](unsigned, uint64_t I, uint32_t) {
    return I % Every == 0 || I % 16 == 1;
  };
  P.TailQ = 99;
  for (unsigned C = 0; C != Conns; ++C)
    for (uint32_t K : (*Seqs)[C])
      P.FingerprintSeq.push_back(P.Keys[K]);
  return P;
}

Plan makePlan(const std::string &W, uint64_t Seed, double Seconds,
              const Sizing &Z, const std::string &CacheDir) {
  Plan P = W == "serve-hot"      ? planServeHot(Seed, Z)
           : W == "compile-cold" ? planCompileCold(Seed, Seconds, Z)
                                 : planServeChurn(Seed, Seconds, Z, CacheDir);
  for (const RequestKey &K : P.Keys)
    P.Requests.push_back(makeRequest(P.C, K));
  return P;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I != Argc; ++I) {
    std::string S = Argv[I];
    auto Val = [&](const char *P) -> const char * {
      size_t N = std::strlen(P);
      return S.compare(0, N, P) == 0 ? S.c_str() + N : nullptr;
    };
    try {
      if (const char *V = Val("--workload="))
        A.Workload = V;
      else if (const char *V = Val("--seed="))
        A.Seed = std::stoull(V);
      else if (const char *V = Val("--seconds="))
        A.Seconds = std::stod(V);
      else if (const char *V = Val("--trace="))
        A.Trace = std::string(V) == "1";
      else if (const char *V = Val("--server-bin="))
        A.ServerBin = V;
      else if (const char *V = Val("--work-dir="))
        A.WorkDir = V;
      else if (const char *V = Val("--pinned="))
        A.Pinned = V;
      else if (S == "--smoke")
        A.Smoke = true;
      else {
        std::fprintf(stderr, "perfbench: unknown argument '%s'\n", S.c_str());
        return false;
      }
    } catch (const std::exception &) {
      std::fprintf(stderr, "perfbench: bad value in '%s'\n", S.c_str());
      return false;
    }
  }
  if (A.Workload != "serve-hot" && A.Workload != "compile-cold" &&
      A.Workload != "serve-churn") {
    std::fprintf(stderr, "perfbench: --workload must be serve-hot, "
                         "compile-cold or serve-churn\n");
    return false;
  }
  if (A.ServerBin.empty() || A.WorkDir.empty() || !(A.Seconds > 0)) {
    std::fprintf(stderr, "perfbench: --server-bin, --work-dir and a "
                         "positive --seconds are required\n");
    return false;
  }
  return true;
}

/// The pinned input fingerprint of \p Workload, or 0 if none is pinned.
uint64_t readPinned(const std::string &Path, const std::string &Workload) {
  std::ifstream In(Path);
  std::string Line;
  const std::string Key = "\"" + Workload + "\":";
  while (std::getline(In, Line)) {
    size_t At = Line.find(Key);
    if (At == std::string::npos)
      continue;
    size_t Q1 = Line.find('"', At + Key.size());
    size_t Q2 = Line.find('"', Q1 + 1);
    if (Q1 == std::string::npos || Q2 == std::string::npos)
      return 0;
    return std::stoull(Line.substr(Q1 + 1, Q2 - Q1 - 1), nullptr, 16);
  }
  return 0;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)V);
  return Buf;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 50);
}

/// Median dra-ctl-v1 health round trip against the live server.
double wireRoundTripUs(const std::string &Socket, unsigned N) {
  int Fd = connectUnixSocket(Socket);
  if (Fd < 0)
    return 0;
  std::vector<double> Us;
  CtlRequest Req;
  Req.Cmd = "health";
  for (unsigned I = 0; I != N; ++I) {
    CompileResponse Resp;
    const double T0 = nowSeconds();
    if (!transactCtl(Fd, Req, Resp))
      break;
    Us.push_back((nowSeconds() - T0) * 1e6);
  }
  ::close(Fd);
  return median(Us);
}

void writeMetric(std::ostream &OS, bool &First, const std::string &Name,
                 double Value, const char *Unit) {
  OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": ";
  writeJsonNumber(OS, Value);
  OS << ", \"unit\": \"" << Unit << "\"}";
  First = false;
}

int runBenchmark(const Args &A) {
  const Sizing Z = A.Smoke ? smokeSizing() : Sizing();
  const std::string Work = A.WorkDir;
  std::error_code Ec;
  fs::remove_all(Work, Ec);
  fs::create_directories(Work, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", Work.c_str());
    return 1;
  }
  const std::string Socket = Work + "/s.sock";
  const std::string CacheDir = Work + "/cache";
  std::vector<std::string> Problems;

  // Pinned inputs: the default seed's inputs at the reference size must
  // fingerprint to the recorded value, whatever seed this run uses.
  bool PinOk = true;
  uint64_t PinGot = 0, PinWant = 0;
  if (!A.Smoke) {
    PinWant = readPinned(A.Pinned, A.Workload);
    const Plan Ref =
        makePlan(A.Workload, PinnedSeed, PinnedSeconds, Sizing(), CacheDir);
    PinGot = inputFingerprint(Ref.C, Ref.FingerprintSeq);
    PinOk = PinGot == PinWant;
    if (!PinOk)
      Problems.push_back("input fingerprint of seed 1 is " + hex(PinGot) +
                         ", pinned " + hex(PinWant));
  }
  const Plan P = makePlan(A.Workload, A.Seed, A.Seconds, Z, CacheDir);

  // Set-up: repeated spawn-to-accepting cycles; the last server stays up.
  std::vector<double> Ready;
  ServerProcess Server;
  std::string Err;
  for (unsigned I = 0; I != Z.SpawnCycles; ++I) {
    ServerProcess Cycle;
    ServerProcess &S = I + 1 == Z.SpawnCycles ? Server : Cycle;
    if (!S.start(A.ServerBin, Socket, P.Server.args(), Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 1;
    }
    Ready.push_back(S.readySeconds());
    if (&S == &Cycle && !Cycle.stop(Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 1;
    }
  }
  double SetupS = median(Ready);

  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Canonical(P.Keys.size());
  std::vector<uint8_t> Seen(P.Keys.size(), 0);
  auto Absorb = [&](const PhaseResult &R) {
    for (const Sample &S : R.Samples) {
      ++Attempted;
      Failed += S.Out != Outcome::Ok;
    }
    for (const std::string &E : R.Errors)
      Problems.push_back(E);
    for (const std::string &E : R.ErrorBodies)
      Problems.push_back("error response: " + E);
  };
  auto Collect = [&](const PhaseResult &R) {
    for (const KeptBody &B : R.Bodies) {
      if (!Seen[B.Key]) {
        Seen[B.Key] = 1;
        Canonical[B.Key] = B.Body;
      } else if (Canonical[B.Key] != B.Body) {
        ++Failed;
        Problems.push_back("two responses for one key differ");
      }
    }
  };

  double WarmS = 0;
  if (P.MakeWarm) {
    const double T0 = nowSeconds();
    PhaseResult Warm = runPhase(Socket, P.Requests, Conns, P.MakeWarm(),
                                [](unsigned, uint64_t, uint32_t) {
                                  return true;
                                });
    WarmS = nowSeconds() - T0;
    Absorb(Warm);
    Collect(Warm);
  }
  SetupS += WarmS;

  // The timed phase.
  const double Cpu0 = Server.cpuSeconds();
  const CpuSample Mach0 = sampleCpu();
  const double Load0 = loadAverage();
  PhaseResult Timed =
      runPhase(Socket, P.Requests, Conns, P.MakeTimed(), P.Keep,
               P.TimeBounded ? nowSeconds() + A.Seconds : 0);
  const double Cpu1 = Server.cpuSeconds();
  const CpuSample Mach1 = sampleCpu();
  const double Load1 = loadAverage();
  const double PeakRss = Server.peakRssMb();
  const double WireUs = A.Trace ? wireRoundTripUs(Socket, 500) : 0;
  if (!Server.stop(Err)) {
    Problems.push_back(Err);
    ++Failed;
  }
  Absorb(Timed);
  Collect(Timed);

  // Everything below runs after the timed phase.
  std::vector<double> Lat;
  uint64_t Ok = 0, TierCount[4] = {};
  double LatSum = 0;
  for (const Sample &S : Timed.Samples) {
    if (S.Out != Outcome::Ok)
      continue;
    ++Ok;
    ++TierCount[static_cast<int>(S.T)];
    Lat.push_back(S.LatencyUs);
    LatSum += S.LatencyUs;
  }
  std::sort(Lat.begin(), Lat.end());
  if (P.Expect != Tier::None && TierCount[static_cast<int>(P.Expect)] != Ok)
    Problems.push_back("a timed response came from an unexpected tier");
  if (!P.MakeWarm && P.Introductions &&
      TierCount[static_cast<int>(Tier::Miss)] != P.Introductions)
    Problems.push_back("the compile set differs from the introductions");

  const CheckReport Check =
      checkOutputs(P.C, P.Keys, Canonical, A.Seed, Z.RecompileSample, 2);
  Failed += Check.Mismatches;
  for (const std::string &S : Check.Problems)
    Problems.push_back(S);

  const double SecondsTimed = std::max(Timed.Seconds, 1e-9);
  const double TailBeyond = double(Lat.size()) * (100 - P.TailQ) / 100;

  std::ostringstream Metrics;
  bool First = true;
  if (!A.Trace) {
    writeMetric(Metrics, First, "setup_s", SetupS, "s");
    writeMetric(Metrics, First, "throughput_per_s", double(Ok) / SecondsTimed,
                "1/s");
    writeMetric(Metrics, First, "latency_p50_us", percentile(Lat, 50), "us");
    writeMetric(Metrics, First, "latency_tail_us", percentile(Lat, P.TailQ),
                "us");
    writeMetric(Metrics, First, "cpu_us_per_op",
                Ok ? (Cpu1 - Cpu0) * 1e6 / double(Ok) : 0, "us");
    writeMetric(Metrics, First, "peak_rss_mb", PeakRss, "MiB");
    writeMetric(Metrics, First, "spill_pct", Check.Q.spillPct(), "%");
    writeMetric(Metrics, First, "slr_pct", Check.Q.slrPct(), "%");
    writeMetric(Metrics, First, "code_bytes_per_inst",
                Check.Q.codeBytesPerInst(), "bytes/inst");
    writeMetric(Metrics, First, "sim_cycles_per_kinst",
                Check.Q.simCyclesPerKinst(), "cycles/kinst");
  } else {
    ReplayInput In;
    In.Requests = P.Requests;
    In.Canonical = Canonical;
    In.Conns = Conns;
    In.MakeStream = P.MakeReplay;
    if (P.MakeWarm) // The warm pass stored every key.
      for (uint32_t K = 0; K != P.Keys.size(); ++K)
        In.Preload.push_back(K);
    UntracedView U;
    U.MeanLatencyUs = Ok ? LatSum / double(Ok) : 0;
    U.WireUs = WireUs;
    const std::map<std::string, double> L = replayTraced(
        P.Server, In, U, Work + "/../trace-" + A.Workload + ".json");
    for (const LayerMetric &M : layerMetrics())
      writeMetric(Metrics, First, M.Name, L.at(M.Name), M.Unit);
    if (L.at("server.failed") != 0)
      Problems.push_back("the traced replay produced failed requests");
  }
  const bool Correct = PinOk && Failed == 0 && Ok > 0 && Problems.empty();

  // Diagnostics go to stderr, one JSON line.
  std::ostringstream Diag;
  Diag << "{\"workload\": \"" << A.Workload << "\", \"seed\": " << A.Seed
       << ", \"input_fingerprint_seed1\": \"" << hex(PinGot)
       << "\", \"pinned\": \"" << hex(PinWant) << "\", \"requests\": " << Ok
       << ", \"tail_percentile\": " << P.TailQ
       << ", \"samples_beyond_tail\": " << TailBeyond
       << ", \"p90_us\": " << percentile(Lat, 90)
       << ", \"p95_us\": " << percentile(Lat, 95)
       << ", \"p99_us\": " << percentile(Lat, 99)
       << ", \"hit_mem\": " << TierCount[1] << ", \"hit_disk\": " << TierCount[2]
       << ", \"miss\": " << TierCount[3]
       << ", \"introductions\": " << P.Introductions
       << ", \"races\": " << P.Races << ", \"setup_spawn_median_s\": ";
  writeJsonNumber(Diag, median(Ready));
  Diag << ", \"warm_s\": ";
  writeJsonNumber(Diag, WarmS);
  Diag << ", \"timed_s\": ";
  writeJsonNumber(Diag, Timed.Seconds);
  Diag << ", \"loadavg\": [";
  writeJsonNumber(Diag, Load0);
  Diag << ", ";
  writeJsonNumber(Diag, Load1);
  Diag << "], \"steal_share\": ";
  writeJsonNumber(Diag, stealShare(Mach0, Mach1));
  Diag << ", \"outputs_simulated\": " << Check.Simulated
       << ", \"outputs_recompiled\": " << Check.Recompiled
       << ", \"mismatches\": " << Check.Mismatches << ", \"problems\": [";
  for (size_t I = 0; I != Problems.size(); ++I)
    Diag << (I ? ", " : "") << "\"" << jsonEscape(Problems[I]) << "\"";
  Diag << "]}";
  std::fprintf(stderr, "perfbench: %s\n", Diag.str().c_str());

  fs::remove_all(Work, Ec);
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": {" << Metrics.str() << "}}" << std::endl;
  return 0;
}
} // namespace

int main(int Argc, char **Argv) {
  signal(SIGPIPE, SIG_IGN);
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  try {
    return runBenchmark(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
