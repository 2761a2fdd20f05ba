//===- bench/bench_cache_throughput.cpp - Result-cache cold/warm bench ----===//
//
// Acceptance harness and microbenchmark for the content-addressed result
// cache (driver/ResultCache.h). `--corpus=DIR` compiles every .dra file
// under DIR through the batch driver for all five schemes at Jobs 1 and 8,
// three passes per arm — cold (all misses), warm (all hits, repeated and
// averaged), and a verify pass at fraction 1.0 (every hit recompiled and
// byte-compared). Requires bit-identical warm payloads, zero verify
// mismatches, and a suite-level warm throughput of at least 5x cold;
// writes per-arm measurements as cache.* gauges labeled {scheme, jobs} to
// BENCH_cache.json. Runs as the `bench_cache_throughput_corpus` ctest
// (pass marker: "warm at least 5x cold overall").
//
//===----------------------------------------------------------------------===//

#include "SuiteRunner.h"

#include "driver/BatchCompiler.h"
#include "driver/ResultCache.h"
#include "ir/Parser.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace dra;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

std::vector<Function> loadCorpus(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".dra")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<Function> Out;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::string Text(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>{});
    std::string Err;
    auto Parsed = parseFunction(Text, &Err);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return {};
    }
    Out.push_back(std::move(*Parsed));
  }
  return Out;
}

int runCorpus(const std::string &Dir) {
  std::vector<Function> Programs = loadCorpus(Dir);
  if (Programs.empty()) {
    std::fprintf(stderr, "error: no .dra files under '%s'\n", Dir.c_str());
    return 2;
  }

  const Scheme Schemes[] = {Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                            Scheme::Select, Scheme::Coalesce};
  const unsigned JobCounts[] = {1, 8};
  // Warm passes are microseconds each; averaging over many keeps the
  // measurement above timer noise.
  const unsigned WarmPasses = 20;

  MetricsRegistry Bench;
  double MinSpeedup = -1;
  double TotalColdSec = 0, TotalWarmSec = 0;
  uint64_t Mismatches = 0;

  std::printf("Result-cache throughput (%zu program(s), %u warm pass "
              "average)\n",
              Programs.size(), WarmPasses);
  for (Scheme S : Schemes) {
    for (unsigned Jobs : JobCounts) {
      PipelineConfig Config;
      Config.S = S;
      Config.Enc = lowEndConfig(12);
      Config.Remap.NumStarts = 200;

      ResultCache Cache;
      BatchOptions BO;
      BO.Jobs = Jobs;
      BO.Cache = &Cache;
      BatchCompiler Batch(BO);

      auto T0 = std::chrono::steady_clock::now();
      std::vector<PipelineResult> Cold = Batch.run(Programs, Config);
      double ColdSec = secondsSince(T0);
      if (Cache.stats().Misses != Programs.size()) {
        std::fprintf(stderr, "error: cold run was not all misses\n");
        return 1;
      }

      T0 = std::chrono::steady_clock::now();
      std::vector<PipelineResult> Warm;
      for (unsigned P = 0; P != WarmPasses; ++P)
        Warm = Batch.run(Programs, Config);
      double WarmSec = secondsSince(T0) / WarmPasses;
      ResultCacheStats St = Cache.stats();
      if (St.Hits != Programs.size() * WarmPasses) {
        std::fprintf(stderr, "error: warm runs were not all hits\n");
        return 1;
      }
      for (size_t I = 0; I != Programs.size(); ++I)
        if (ResultCache::serializeResult(Warm[I]) !=
            ResultCache::serializeResult(Cold[I])) {
          std::fprintf(stderr, "error: warm result differs from cold for "
                               "program %zu\n",
                       I);
          return 1;
        }

      // Verify pass: every hit is hijacked into a recompile whose result
      // must be byte-identical to the cached payload.
      Cache.setVerifyFraction(1.0);
      Batch.run(Programs, Config);
      Cache.setVerifyFraction(0.0);
      St = Cache.stats();
      if (St.VerifyRecompiles != Programs.size()) {
        std::fprintf(stderr, "error: verify pass recompiled %llu of %zu\n",
                     static_cast<unsigned long long>(St.VerifyRecompiles),
                     Programs.size());
        return 1;
      }
      Mismatches += St.VerifyMismatches;

      double Speedup = WarmSec > 0 ? ColdSec / WarmSec : 1e9;
      if (MinSpeedup < 0 || Speedup < MinSpeedup)
        MinSpeedup = Speedup;
      TotalColdSec += ColdSec;
      TotalWarmSec += WarmSec;
      MetricLabels L{{"scheme", schemeName(S)},
                     {"jobs", std::to_string(Jobs)}};
      Bench.gauge("cache.cold_seconds", ColdSec, L);
      Bench.gauge("cache.warm_seconds", WarmSec, L);
      Bench.gauge("cache.warm_speedup", Speedup, L);
      Bench.gauge("cache.verify_mismatches",
                  static_cast<double>(St.VerifyMismatches), L);
      std::printf("  %-9s jobs %u  cold %8.3f ms  warm %8.3f ms  "
                  "%7.1fx  verify %llu/%llu mismatch\n",
                  schemeName(S), Jobs, ColdSec * 1e3, WarmSec * 1e3, Speedup,
                  static_cast<unsigned long long>(St.VerifyMismatches),
                  static_cast<unsigned long long>(St.VerifyRecompiles));
    }
  }

  // The acceptance gate is suite-level: the cheapest schemes compile the
  // tiny example programs in tens of microseconds, where the measurement
  // is dominated by batch dispatch overhead rather than cache cost, so a
  // per-arm floor would gate on timer noise. Per-arm speedups are still
  // recorded as gauges for dra-stats diffs.
  double Overall = TotalWarmSec > 0 ? TotalColdSec / TotalWarmSec : 1e9;
  Bench.gauge("cache.warm_speedup_overall", Overall);

  std::string Err;
  if (!Bench.writeJsonFile("BENCH_cache.json", &Err))
    std::fprintf(stderr, "warning: BENCH_cache.json: %s\n", Err.c_str());
  else
    std::printf("metrics written to BENCH_cache.json\n");
  if (Mismatches != 0) {
    std::fprintf(stderr, "FAIL: %llu verify mismatch(es)\n",
                 static_cast<unsigned long long>(Mismatches));
    return 1;
  }
  if (Overall < 5.0) {
    std::fprintf(stderr, "FAIL: warm throughput only %.1fx cold overall "
                         "(acceptance floor is 5x)\n",
                 Overall);
    return 1;
  }
  std::printf("cache throughput: warm at least 5x cold overall (%.1fx, "
              "slowest arm %.1fx), 0 verify mismatches\n",
              Overall, MinSpeedup);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Flag = "--corpus=";
  std::string Arg = Argc == 2 ? Argv[1] : "";
  if (Arg.size() <= Flag.size() || Arg.compare(0, Flag.size(), Flag) != 0) {
    std::fprintf(stderr, "usage: bench_cache_throughput --corpus=DIR\n");
    return 2;
  }
  return runCorpus(Arg.substr(Flag.size()));
}
