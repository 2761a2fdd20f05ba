//===- bench/bench_remap_search.cpp - Remap search throughput -------------===//
//
// Microbenchmark for the multi-start greedy remap search (core/Remap.cpp).
// Two modes:
//
//  * default: times the search over seeded dense graphs at RegN 32 and 64
//    and prints swaps/second (the swap sequence is fixed by the seeds, so
//    the rate is pure evaluation throughput);
//
//  * --perf-out=DIR: writes DIR/remap_perf.json, the RegN 64 run as
//    unlabeled gauges (remap.swaps_evaluated_per_sec, ...). CI runs
//    dra-stats --fail-on=remap.swaps_evaluated_per_sec:200 with this file
//    as the base and tests/data/ci_remap_perf_baseline.json as the current
//    file, which fails when the run's throughput falls below a third of
//    the checked-in baseline.
//
//===----------------------------------------------------------------------===//

#include "adt/Rng.h"
#include "core/Remap.h"
#include "driver/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

using namespace dra;

namespace {

/// One timed run of the remap search.
struct RemapSearchPerf {
  unsigned RegN = 0;
  double Seconds = 0; ///< Wall time of the findRemap call.
  double SwapsEvaluated = 0;
  double SwapsPerSec = 0; ///< The throughput metric CI gates on.
  double CostAfter = 0;
};

/// Times the production multi-start greedy remap search over a seeded
/// dense synthetic adjacency graph at \p RegN (vliwConfig, integer
/// weights).
RemapSearchPerf measureRemapSearch(unsigned RegN, unsigned NumStarts) {
  EncodingConfig C = vliwConfig(RegN);
  // Dense seeded graph with small integer weights: every cost and delta
  // is an exactly representable double.
  Rng R(0x5eedbead ^ RegN);
  AdjacencyGraph G(RegN);
  for (unsigned E = 0; E != RegN * 8; ++E) {
    RegId A = static_cast<RegId>(R.nextBelow(RegN));
    RegId B = static_cast<RegId>(R.nextBelow(RegN));
    if (A != B)
      G.addWeight(A, B, static_cast<double>(1 + R.nextBelow(9)));
  }

  RemapOptions O;
  O.NumStarts = NumStarts;
  auto T0 = std::chrono::steady_clock::now();
  RemapResult RR = findRemap(G, C, O);
  double Sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  RemapSearchPerf P;
  P.RegN = RegN;
  P.Seconds = Sec;
  P.SwapsEvaluated = static_cast<double>(RR.SwapsEvaluated);
  P.SwapsPerSec = P.SwapsEvaluated / std::max(Sec, 1e-9);
  P.CostAfter = RR.CostAfter;
  return P;
}

/// Writes the RegN 64 measurement as unlabeled gauges.
int runPerfOut(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  const RemapSearchPerf P = measureRemapSearch(64, 24);
  MetricsRegistry Reg;
  Reg.gauge("remap.search_seconds", P.Seconds);
  Reg.gauge("remap.swaps_evaluated", P.SwapsEvaluated);
  Reg.gauge("remap.swaps_evaluated_per_sec", P.SwapsPerSec);
  Reg.gauge("remap.cost_after", P.CostAfter);
  Reg.gauge("remap.regn", static_cast<double>(P.RegN));
  const std::string Path = (fs::path(Dir) / "remap_perf.json").string();
  std::string Err;
  if (!Reg.writeJsonFile(Path, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s (%.3g swaps/s)\n", Path.c_str(), P.SwapsPerSec);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PerfOut;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--perf-out=", 0) == 0) {
      PerfOut = Arg.substr(std::strlen("--perf-out="));
    } else {
      std::fprintf(stderr, "usage: bench_remap_search [--perf-out=DIR]\n");
      return 2;
    }
  }
  if (!PerfOut.empty())
    return runPerfOut(PerfOut);

  std::printf("Remap search throughput (multi-start greedy descent)\n");
  for (unsigned RegN : {32u, 64u}) {
    const RemapSearchPerf P = measureRemapSearch(RegN, 24);
    std::printf("  RegN %2u  %9.0f swaps in %7.3fs  %12.0f swaps/s  "
                "cost %g\n",
                P.RegN, P.SwapsEvaluated, P.Seconds, P.SwapsPerSec,
                P.CostAfter);
  }
  return 0;
}
