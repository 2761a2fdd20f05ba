//===- bench/bench_remap_search.cpp - Remap search throughput -------------===//
//
// Microbenchmark and acceptance harness for the parallel multi-start remap
// search (core/Remap.cpp). Three modes:
//
//  * default: times the search at Jobs 1, 2 and 4 over seeded dense
//    graphs and prints swaps/second with the parallel scaling against
//    Jobs 1 (every run evaluates the identical swap sequence, so the rate
//    is pure evaluation throughput);
//
//  * --corpus=DIR: compiles every .dra file to physical registers and
//    checks that the search at Jobs 2, 4 and 8 returns a RemapResult
//    identical to the Jobs 1 run (permutation, costs and stats) and the
//    same printed remapped function. Exits 1 on the first divergence;
//    runs as the `bench_remap_corpus_identity` ctest;
//
//  * --perf-out=DIR: writes DIR/remap_perf.json, the Jobs 1 run at
//    RegN 64 as unlabeled gauges (remap.swaps_evaluated_per_sec, ...).
//    CI runs dra-stats --fail-on=remap.swaps_evaluated_per_sec:200 with
//    this file as the base and tests/data/ci_remap_perf_baseline.json as
//    the current file, which fails when the run's throughput falls below
//    a third of the checked-in baseline.
//
//===----------------------------------------------------------------------===//

#include "SuiteRunner.h"

#include "core/Remap.h"
#include "ir/Parser.h"
#include "regalloc/GraphColoring.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace dra;

namespace {

/// Field-by-field RemapResult comparison.
bool sameResult(const RemapResult &A, const RemapResult &B,
                std::string &Why) {
  auto Fail = [&](const char *Field) {
    Why = std::string("field ") + Field + " differs";
    return false;
  };
  if (A.Perm != B.Perm)
    return Fail("Perm");
  if (A.CostBefore != B.CostBefore)
    return Fail("CostBefore");
  if (A.CostAfter != B.CostAfter)
    return Fail("CostAfter");
  if (A.Exhaustive != B.Exhaustive)
    return Fail("Exhaustive");
  if (A.StartsRun != B.StartsRun)
    return Fail("StartsRun");
  if (A.StartsCutOff != B.StartsCutOff)
    return Fail("StartsCutOff");
  if (A.SwapsEvaluated != B.SwapsEvaluated)
    return Fail("SwapsEvaluated");
  if (A.SwapsApplied != B.SwapsApplied)
    return Fail("SwapsApplied");
  if (A.DeltaArcsVisited != B.DeltaArcsVisited)
    return Fail("DeltaArcsVisited");
  if (A.DeltaRecostSavings != B.DeltaRecostSavings)
    return Fail("DeltaRecostSavings");
  return true;
}

/// Acceptance mode: every corpus function, compiled to physical registers,
/// must remap identically at every job count.
int runCorpusIdentity(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".dra")
      Files.push_back(Entry.path().string());
  if (EC || Files.empty()) {
    std::fprintf(stderr, "error: no .dra files under '%s'\n", Dir.c_str());
    return 2;
  }
  std::sort(Files.begin(), Files.end());

  const unsigned JobCounts[] = {2, 4, 8};
  size_t Checked = 0;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::string Text(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>{});
    std::string Err;
    auto Parsed = parseFunction(Text, &Err);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 2;
    }
    allocateGraphColoring(*Parsed, 12);
    EncodingConfig C = lowEndConfig(12);

    RemapOptions O;
    O.NumStarts = 64;
    Function FRef = *Parsed;
    RemapResult Ref = remapFunction(FRef, C, O);

    for (unsigned Jobs : JobCounts) {
      O.Jobs = Jobs;
      Function FJ = *Parsed;
      RemapResult RJ = remapFunction(FJ, C, O);
      std::string Why;
      if (!sameResult(Ref, RJ, Why)) {
        std::fprintf(stderr, "MISMATCH: %s: jobs=%u vs jobs=1: %s\n",
                     Path.c_str(), Jobs, Why.c_str());
        return 1;
      }
      if (printFunction(FRef) != printFunction(FJ)) {
        std::fprintf(stderr,
                     "MISMATCH: %s: remapped function differs at jobs=%u\n",
                     Path.c_str(), Jobs);
        return 1;
      }
      ++Checked;
    }
  }
  std::printf("corpus identity: %zu file(s) x %zu job count(s) against "
              "jobs 1, %zu comparisons, all bit-identical\n",
              Files.size(), std::size(JobCounts), Checked);
  return 0;
}

/// Writes the Jobs 1 measurement at RegN 64 as unlabeled gauges.
int runPerfOut(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  const RemapSearchPerf P = measureRemapSearch(64, 24, {}).front();
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
  std::string Corpus, PerfOut;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--corpus=", 0) == 0)
      Corpus = Arg.substr(std::strlen("--corpus="));
    else if (Arg.rfind("--perf-out=", 0) == 0)
      PerfOut = Arg.substr(std::strlen("--perf-out="));
    else {
      std::fprintf(stderr,
                   "usage: bench_remap_search [--corpus=DIR | "
                   "--perf-out=DIR]\n");
      return 2;
    }
  }
  if (!Corpus.empty())
    return runCorpusIdentity(Corpus);
  if (!PerfOut.empty())
    return runPerfOut(PerfOut);

  std::printf("Remap search throughput (multi-start greedy descent; "
              "identical swap sequences, so swaps/s is evaluation "
              "throughput)\n");
  for (unsigned RegN : {32u, 64u}) {
    std::vector<RemapSearchPerf> Perf = measureRemapSearch(RegN, 24, {2, 4});
    const double Sequential = Perf.front().SwapsPerSec;
    for (const RemapSearchPerf &P : Perf) {
      std::printf("  RegN %2u  jobs %u  %9.0f swaps in %7.3fs  "
                  "%12.0f swaps/s  (%4.2fx jobs 1)  cost %g%s\n",
                  P.RegN, P.Jobs, P.SwapsEvaluated, P.Seconds,
                  P.SwapsPerSec, P.SwapsPerSec / Sequential, P.CostAfter,
                  P.MatchesReference ? "" : "  DIVERGED!");
      if (!P.MatchesReference)
        return 1;
    }
  }
  return 0;
}
