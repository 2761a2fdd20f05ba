//===- bench/bench_portfolio.cpp - Portfolio race latency + identity ------===//
//
// Acceptance harness for the scheme-portfolio race (core/Portfolio.h).
// Two modes:
//
//  * --corpus=DIR: compiles every .dra file (plus a spread of generated
//    programs) through the race at Jobs 1, 2, 8, and one-worker-per-arm,
//    and checks each committed result is byte-identical — via
//    ResultCache::serializeResult — to the best sequential single-scheme
//    arm under the (encoded-cost, arm-index) winner rule. Exits 1 on the
//    first divergence; runs as the `bench_portfolio_identity` ctest;
//
//  * --perf-out=DIR: times, at batch depth 1 (one function in flight,
//    the latency case the portfolio exists for), the sequential
//    all-arms sweep versus the concurrent race on the same function
//    set, and writes portfolio_perf_seq.json (SEQ) and
//    portfolio_perf_race.json (RACE) carrying the *same* unlabeled gauge
//    key (portfolio.wall_us), so
//      dra-stats --fail-on=portfolio.wall_us:-25 SEQ RACE
//    fails unless racing cuts single-function latency by more than 25%
//    over compiling the arms back to back on the same machine and run.
//    Every timed race is also byte-checked against its sequential sweep.
//
//    The timed portfolio is {select, remap x48, remap x96} — arms with
//    *comparable* costs, so the measurement isolates what racing buys:
//    overlapping arms hides all but the slowest. The default portfolio's
//    coalesce arm would drown the comparison (its ILP search is ~100x
//    the other arms on these shapes), making any wall-clock gate read on
//    one arm's runtime rather than on concurrency.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Portfolio.h"
#include "driver/Metrics.h"
#include "driver/ResultCache.h"
#include "ir/Parser.h"
#include "workloads/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

using namespace dra;

namespace {

PipelineConfig raceConfig() {
  PipelineConfig C;
  C.Enc = lowEndConfig(12);
  // Enough restart budget that every arm does real work; the race's win
  // is hiding the slowest arm behind the others, not skipping work.
  C.Remap.NumStarts = 24;
  C.Portfolio.Mode = PortfolioMode::Race;
  return C;
}

/// The sequential reference: each resolved arm compiled alone, strict
/// (cost, index) minimum kept.
PipelineResult bestSequentialArm(const Function &F, const PipelineConfig &C,
                                 size_t *WinnerArm = nullptr) {
  std::vector<PortfolioArm> Arms = resolvedPortfolioArms(C.Portfolio);
  PipelineResult Best;
  uint64_t BestCost = UINT64_MAX;
  size_t BestIdx = 0;
  for (size_t A = 0; A != Arms.size(); ++A) {
    PipelineConfig AC = C;
    AC.Portfolio = PortfolioConfig();
    AC.S = Arms[A].S;
    if (Arms[A].RemapStarts != 0)
      AC.Remap.NumStarts = Arms[A].RemapStarts;
    PipelineResult R = runPipeline(F, AC);
    uint64_t Cost = encodedCost(R);
    if (Cost < BestCost) {
      BestCost = Cost;
      BestIdx = A;
      Best = std::move(R);
    }
  }
  if (WinnerArm)
    *WinnerArm = BestIdx;
  return Best;
}

std::vector<std::pair<std::string, Function>>
loadCorpus(const std::string &Dir, bool *Ok) {
  namespace fs = std::filesystem;
  *Ok = true;
  std::vector<std::pair<std::string, Function>> Corpus;
  if (!Dir.empty()) {
    std::vector<std::string> Files;
    std::error_code EC;
    for (const auto &Entry : fs::directory_iterator(Dir, EC))
      if (Entry.path().extension() == ".dra")
        Files.push_back(Entry.path().string());
    if (EC || Files.empty()) {
      std::fprintf(stderr, "error: no .dra files under '%s'\n", Dir.c_str());
      *Ok = false;
      return Corpus;
    }
    std::sort(Files.begin(), Files.end());
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      std::string Text(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>{});
      std::string Err;
      auto F = parseFunction(Text, &Err);
      if (!F) {
        std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
        *Ok = false;
        return Corpus;
      }
      Corpus.emplace_back(Path, std::move(*F));
    }
  }
  // Generated shapes with real pressure, so arm costs actually diverge
  // and the slowest arm dominates a sequential sweep.
  for (uint64_t Seed : {7u, 23u, 61u, 101u}) {
    ProgramProfile P;
    P.Seed = Seed;
    P.TopStatements = 12;
    P.BodyStatements = 7;
    P.PressureVars = 8;
    Corpus.emplace_back("gen" + std::to_string(Seed),
                        generateProgram("gen" + std::to_string(Seed), P));
  }
  return Corpus;
}

int runCorpusIdentity(const std::string &Dir) {
  bool Ok = false;
  auto Corpus = loadCorpus(Dir, &Ok);
  if (!Ok)
    return 2;

  const unsigned JobCounts[] = {1, 2, 8, 0};
  size_t Checked = 0;
  for (auto &[Name, F] : Corpus) {
    PipelineConfig C = raceConfig();
    std::string Ref = ResultCache::serializeResult(bestSequentialArm(F, C));
    for (unsigned Jobs : JobCounts) {
      C.Portfolio.Jobs = Jobs;
      PortfolioOutcome Out;
      PipelineResult R = runPortfolio(F, C, nullptr, &Out);
      if (ResultCache::serializeResult(R) != Ref) {
        std::fprintf(stderr,
                     "MISMATCH: %s: race jobs=%u (winner arm %u) differs "
                     "from best sequential arm\n",
                     Name.c_str(), Jobs, Out.WinnerArm);
        return 1;
      }
      ++Checked;
    }
  }
  std::printf("portfolio identity: %zu function(s) x %zu job count(s), "
              "%zu comparisons, all bit-identical\n",
              Corpus.size(), std::size(JobCounts), Checked);
  return 0;
}

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool writeWallUs(const std::string &Path, double WallUs, double Functions) {
  MetricsRegistry Reg;
  Reg.gauge("portfolio.wall_us", WallUs);
  Reg.gauge("portfolio.functions", Functions);
  std::string Err;
  if (!Reg.writeJsonFile(Path, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  return true;
}

int runPerfOut(const std::string &Dir, const std::string &Corpus) {
  std::filesystem::create_directories(Dir);
  bool Ok = false;
  auto Functions = loadCorpus(Corpus, &Ok);
  if (!Ok)
    return 2;

  // Batch depth 1: one function in flight at a time — the interactive
  // request-latency shape, where a sequential sweep pays the sum of the
  // arm times and the race pays roughly the max.
  const int Iters = 3;
  double SeqUs = 0, RaceUs = 0;
  for (int It = 0; It != Iters; ++It) {
    for (auto &[Name, F] : Functions) {
      PipelineConfig C = raceConfig();
      C.Portfolio.Arms = {{Scheme::Select, 0},
                          {Scheme::Remap, 48},
                          {Scheme::Remap, 96}};
      C.Portfolio.Jobs = 0; // One worker per arm.

      double T0 = nowUs();
      PipelineResult Seq = bestSequentialArm(F, C);
      double T1 = nowUs();
      PipelineResult Raced = runPortfolio(F, C);
      double T2 = nowUs();
      SeqUs += T1 - T0;
      RaceUs += T2 - T1;

      if (ResultCache::serializeResult(Raced) !=
          ResultCache::serializeResult(Seq)) {
        std::fprintf(stderr, "MISMATCH: %s: raced result differs from "
                             "sequential sweep\n",
                     Name.c_str());
        return 1;
      }
    }
  }

  if (!writeWallUs(Dir + "/portfolio_perf_seq.json", SeqUs,
                   double(Functions.size())) ||
      !writeWallUs(Dir + "/portfolio_perf_race.json", RaceUs,
                   double(Functions.size())))
    return 2;
  std::printf("portfolio perf: %zu function(s) x %d iteration(s): "
              "sequential sweep %.0f us, race %.0f us (%.2fx); wrote %s\n",
              Functions.size(), Iters, SeqUs, RaceUs,
              RaceUs > 0 ? SeqUs / RaceUs : 0.0,
              (Dir + "/portfolio_perf_{seq,race}.json").c_str());
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
      std::fprintf(stderr, "usage: bench_portfolio [--corpus=DIR] "
                           "[--perf-out=DIR]\n");
      return 2;
    }
  }
  if (!PerfOut.empty())
    return runPerfOut(PerfOut, Corpus);
  return runCorpusIdentity(Corpus);
}
