//===- tools/dra-batch.cpp - Batch compiler with stage report -------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// The compile driver: reads functions in the textual IR syntax (see
// src/ir/Parser.h) from a directory, an explicit list of `.dra` files or
// stdin (`-`), compiles them through one allocation pipeline on the
// parallel batch driver, and emits a report: a per-file summary and a
// per-stage table on stdout, optional simulated cycles, binary sizes and
// machine code per file, the run's metrics registry as dra-metrics-v1
// (--metrics-out), and a Chrome trace-event timeline (--trace-out) with
// one span per function and its pipeline stages nested inside, viewable
// in chrome://tracing or https://ui.perfetto.dev.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "core/BinaryEmitter.h"
#include "core/Features.h"
#include "core/Pipeline.h"
#include "driver/BatchCompiler.h"
#include "driver/ResultCache.h"
#include "driver/Trace.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "opt/ConstantFold.h"
#include "opt/DeadCode.h"
#include "opt/SimplifyCfg.h"
#include "sim/LowEndSim.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-batch [options] <dir | file.dra | - ...>\n"
    "\n"
    "Compiles every .dra file found in the given directories (plus any\n"
    "explicitly listed files, and one function read from stdin for '-')\n"
    "through one allocation pipeline on a worker pool, and reports\n"
    "per-file and aggregate statistics. A directory's files are processed\n"
    "in sorted path order; results are deterministic and independent of\n"
    "--jobs.\n"
    "\n"
    "options:\n"
    "  --scheme=NAME      baseline|ospill|remap|select|coalesce\n"
    "                     (default coalesce)\n"
    "  --baseline-k=N     registers of the unmodified ISA (default 8)\n"
    "  --regn=N           differential registers (default 12)\n"
    "  --diffn=N          difference codes (default 8)\n"
    "  --diffw=N          field width in bits (default 3)\n"
    "  --remap-starts=N   remapping restarts (default 200)\n"
    "  --adaptive         Section 8.2 selective enabling: fall back to the\n"
    "                     baseline where differential encoding does not\n"
    "                     pay (marked in the file's row)\n"
    "  --cleanup          run fold/simplify/DCE before allocation (and\n"
    "                     before the reference run)\n"
    "  --jobs=N           pool workers (default 0 = hardware concurrency)\n"
    "  --trace-out=FILE   Chrome trace-event JSON (chrome://tracing)\n"
    "  --metrics-out=FILE allocator-deep metrics (per-function counters,\n"
    "                     gauges, stage histograms) as dra-metrics-v1\n"
    "                     JSON; compare runs with dra-stats\n"
    "  --cache-dir=DIR    persistent content-addressed result cache: one\n"
    "                     dra-cache-v1 file per (function, config) entry;\n"
    "                     corrupt or stale entries are quarantined, never\n"
    "                     errors. Warm runs skip compilation entirely\n"
    "  --cache-mem-mb=N   in-memory cache tier budget in MiB (default 64;\n"
    "                     0 disables the memory tier). Implies caching\n"
    "                     even without --cache-dir\n"
    "  --cache-verify=F   recompile fraction F (0..1) of cache hits and\n"
    "                     compare against the cached result byte-for-byte\n"
    "                     (exit 1 on any mismatch)\n"
    "  --portfolio=MODE   off (default) | race | choose: instead of\n"
    "                     --scheme, race the scheme portfolio per function\n"
    "                     and commit the deterministic (cost, arm-index)\n"
    "                     winner; choose consults --portfolio-table and\n"
    "                     races only on low confidence\n"
    "  --portfolio-jobs=N workers per race (default 1 = serial; results\n"
    "                     are bit-identical at any value; 0 = one per arm)\n"
    "  --portfolio-table=FILE\n"
    "                     portfolio-v1 decision table (dra-tune output)\n"
    "  --min-confidence=F chooser confidence below which a prediction\n"
    "                     falls back to racing (default 0.75)\n"
    "  --portfolio-train=FILE\n"
    "                     training-sweep mode: compile every input with\n"
    "                     every portfolio arm, extract per-function\n"
    "                     features, and write a portfolio-train-v1 JSON\n"
    "                     corpus for tools/dra-tune (ignores --scheme and\n"
    "                     --portfolio)\n"
    "  --simulate         run the pipeline model; one 'simulated:' line\n"
    "                     per file\n"
    "  --emit-size        bit-exact binary sizes (direct vs differential);\n"
    "                     one 'binary:' line per differential file\n"
    "  --print-code       print each resulting function after the report\n"
    "  --help             show this text\n"
    "\n"
    "exit status: 0 on success, 1 when any input fails to parse/compile,\n"
    "changes semantics, or fails cache verification; 2 on a command-line\n"
    "error.\n";

struct Options {
  Scheme S = Scheme::Coalesce;
  unsigned BaselineK = 8;
  unsigned RegN = 12;
  unsigned DiffN = 8;
  unsigned DiffW = 3;
  unsigned RemapStarts = 200;
  unsigned Jobs = 0;
  bool Adaptive = false;
  bool Cleanup = false;
  bool Simulate = false;
  bool EmitSize = false;
  bool PrintCode = false;
  bool Help = false;
  std::string TraceOut;
  std::string MetricsOut;
  std::string CacheDir;
  unsigned CacheMemMb = 64;
  double CacheVerify = 0;
  bool UseCache = false;
  PortfolioMode Portfolio = PortfolioMode::Off;
  unsigned PortfolioJobs = 1;
  std::string PortfolioTable;
  double MinConfidence = 0.75;
  std::string PortfolioTrain;
  std::vector<std::string> Inputs;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--scheme=")) {
      if (!parseSchemeName(V, O.S)) {
        std::fprintf(stderr, "error: unknown scheme '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--baseline-k=")) {
      if (!cli::parseUnsigned("--baseline-k", V, O.BaselineK))
        return false;
    } else if (const char *V = Value("--regn=")) {
      if (!cli::parseUnsigned("--regn", V, O.RegN))
        return false;
    } else if (const char *V = Value("--diffn=")) {
      if (!cli::parseUnsigned("--diffn", V, O.DiffN))
        return false;
    } else if (const char *V = Value("--diffw=")) {
      if (!cli::parseUnsigned("--diffw", V, O.DiffW))
        return false;
    } else if (const char *V = Value("--remap-starts=")) {
      if (!cli::parseUnsigned("--remap-starts", V, O.RemapStarts))
        return false;
    } else if (const char *V = Value("--jobs=")) {
      if (!cli::parseUnsigned("--jobs", V, O.Jobs))
        return false;
    } else if (const char *V = Value("--trace-out=")) {
      O.TraceOut = V;
    } else if (const char *V = Value("--metrics-out=")) {
      O.MetricsOut = V;
    } else if (const char *V = Value("--cache-dir=")) {
      O.CacheDir = V;
      O.UseCache = true;
    } else if (const char *V = Value("--cache-mem-mb=")) {
      if (!cli::parseUnsigned("--cache-mem-mb", V, O.CacheMemMb))
        return false;
      O.UseCache = true;
    } else if (const char *V = Value("--cache-verify=")) {
      if (!cli::parseDouble("--cache-verify", V, O.CacheVerify))
        return false;
      if (O.CacheVerify < 0 || O.CacheVerify > 1) {
        std::fprintf(stderr, "error: --cache-verify must be in [0, 1]\n");
        return false;
      }
      O.UseCache = true;
    } else if (const char *V = Value("--portfolio=")) {
      if (!parsePortfolioMode(V, O.Portfolio)) {
        std::fprintf(stderr,
                     "error: --portfolio must be off, race, or choose\n");
        return false;
      }
    } else if (const char *V = Value("--portfolio-jobs=")) {
      if (!cli::parseUnsigned("--portfolio-jobs", V, O.PortfolioJobs))
        return false;
    } else if (const char *V = Value("--portfolio-table=")) {
      O.PortfolioTable = V;
    } else if (const char *V = Value("--min-confidence=")) {
      if (!cli::parseDouble("--min-confidence", V, O.MinConfidence))
        return false;
      if (O.MinConfidence < 0 || O.MinConfidence > 1) {
        std::fprintf(stderr, "error: --min-confidence must be in [0, 1]\n");
        return false;
      }
    } else if (const char *V = Value("--portfolio-train=")) {
      O.PortfolioTrain = V;
    } else if (Arg == "--adaptive") {
      O.Adaptive = true;
    } else if (Arg == "--cleanup") {
      O.Cleanup = true;
    } else if (Arg == "--simulate") {
      O.Simulate = true;
    } else if (Arg == "--emit-size") {
      O.EmitSize = true;
    } else if (Arg == "--print-code") {
      O.PrintCode = true;
    } else if (Arg == "--help" || Arg == "-h") {
      O.Help = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   Arg.c_str());
      return false;
    } else {
      O.Inputs.push_back(Arg);
    }
  }
  return true;
}

/// Expands directories into their .dra files; keeps files and `-` (stdin)
/// as given. Returns false (with a diagnostic) for a path that is none of
/// these.
bool collectInputs(const std::vector<std::string> &Inputs,
                   std::vector<std::string> &Files) {
  namespace fs = std::filesystem;
  for (const std::string &In : Inputs) {
    std::error_code EC;
    if (In == "-") {
      Files.push_back(In);
    } else if (fs::is_directory(In, EC)) {
      std::vector<std::string> Found;
      for (const fs::directory_entry &E : fs::directory_iterator(In, EC))
        if (E.is_regular_file() && E.path().extension() == ".dra")
          Found.push_back(E.path().string());
      std::sort(Found.begin(), Found.end());
      Files.insert(Files.end(), Found.begin(), Found.end());
    } else if (fs::is_regular_file(In, EC)) {
      Files.push_back(In);
    } else {
      std::fprintf(stderr, "error: '%s' is not a file or directory\n",
                   In.c_str());
      return false;
    }
  }
  return true;
}

/// --portfolio-train: compile every function with every default arm (one
/// parallel batch per arm), extract features, and write the
/// portfolio-train-v1 corpus dra-tune fits its decision table from.
int runTrainSweep(const Options &O, const PipelineConfig &Base,
                  const std::vector<std::string> &Files,
                  const std::vector<Function> &Functions,
                  const std::vector<uint64_t> &RefFp) {
  const std::vector<PortfolioArm> Arms = defaultPortfolioArms();
  BatchOptions BO;
  BO.Jobs = O.Jobs;
  BatchCompiler Batch(BO);

  bool AllOk = true;
  std::vector<std::vector<uint64_t>> Costs(Arms.size());
  for (size_t A = 0; A != Arms.size(); ++A) {
    PipelineConfig C = Base;
    C.S = Arms[A].S;
    if (Arms[A].RemapStarts)
      C.Remap.NumStarts = Arms[A].RemapStarts;
    std::vector<PipelineResult> Results = Batch.run(Functions, C);
    for (size_t I = 0; I != Results.size(); ++I) {
      if (fingerprint(interpret(Results[I].F)) != RefFp[I]) {
        std::fprintf(stderr, "error: %s: semantics changed under arm %s\n",
                     Files[I].c_str(), wireSchemeName(Arms[A].S));
        AllOk = false;
      }
      Costs[A].push_back(encodedCost(Results[I]));
    }
  }

  std::ofstream Out(O.PortfolioTrain);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n",
                 O.PortfolioTrain.c_str());
    return 1;
  }
  Out << "{\"schema\":\"portfolio-train-v1\",\"features\":[";
  const std::vector<std::string> &Names = featureNames();
  for (size_t I = 0; I != Names.size(); ++I)
    Out << (I ? "," : "") << '"' << jsonEscape(Names[I]) << '"';
  Out << "],\"arms\":[";
  for (size_t A = 0; A != Arms.size(); ++A)
    Out << (A ? "," : "") << "{\"scheme\":\"" << wireSchemeName(Arms[A].S)
        << "\",\"remap_starts\":" << Arms[A].RemapStarts << "}";
  Out << "],\"samples\":[";
  for (size_t I = 0; I != Functions.size(); ++I) {
    const std::string &Name =
        Functions[I].Name.empty() ? Files[I] : Functions[I].Name;
    Out << (I ? ",\n" : "\n") << "{\"function\":\"" << jsonEscape(Name)
        << "\",\"features\":[";
    std::vector<double> FV = computeFeatures(Functions[I]).asVector();
    for (size_t F = 0; F != FV.size(); ++F) {
      Out << (F ? "," : "");
      writeJsonNumber(Out, FV[F]);
    }
    // encodedCost values are exact in a double far beyond any real
    // corpus (they only lose precision past 2^53 ≈ 2M spill insts).
    Out << "],\"costs\":[";
    for (size_t A = 0; A != Arms.size(); ++A)
      Out << (A ? "," : "") << Costs[A][I];
    Out << "]}";
  }
  Out << "\n]}\n";
  if (!Out.good()) {
    std::fprintf(stderr, "error: write to '%s' failed\n",
                 O.PortfolioTrain.c_str());
    return 1;
  }

  std::vector<size_t> Wins(Arms.size(), 0);
  for (size_t I = 0; I != Functions.size(); ++I) {
    size_t Best = 0;
    for (size_t A = 1; A != Arms.size(); ++A)
      if (Costs[A][I] < Costs[Best][I])
        Best = A;
    ++Wins[Best];
  }
  std::printf("portfolio-train: %zu function(s) x %zu arm(s) -> %s\n",
              Functions.size(), Arms.size(), O.PortfolioTrain.c_str());
  for (size_t A = 0; A != Arms.size(); ++A)
    std::printf("  arm %zu (%s, remap_starts=%u): %zu win(s)\n", A,
                wireSchemeName(Arms[A].S), Arms[A].RemapStarts, Wins[A]);
  return AllOk ? 0 : 1;
}

/// The stage table's rows: the stage_us histogram of each stage. A batch
/// compiles one config, so each stage has exactly one {scheme, stage}
/// series.
std::map<std::string, MetricsRegistry::HistogramSample>
stageRows(const MetricsRegistry &M) {
  std::map<std::string, MetricsRegistry::HistogramSample> Rows;
  for (const MetricsRegistry::HistogramSample &H : M.histograms())
    if (H.Name == "stage_us")
      for (const auto &[Key, Value] : H.Labels.entries())
        if (Key == "stage")
          Rows[Value] = H;
  return Rows;
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
  if (O.Inputs.empty()) {
    std::fprintf(stderr, "error: no inputs (try --help)\n");
    return 2;
  }

  std::vector<std::string> Files;
  if (!collectInputs(O.Inputs, Files))
    return 2;
  if (Files.empty()) {
    std::fprintf(stderr, "error: no .dra files found\n");
    return 1;
  }

  PipelineConfig Config;
  Config.S = O.S;
  Config.BaselineK = O.BaselineK;
  Config.Enc.RegN = O.RegN;
  Config.Enc.DiffN = O.DiffN;
  Config.Enc.DiffW = O.DiffW;
  Config.Remap.NumStarts = O.RemapStarts;
  Config.AdaptiveEnable = O.Adaptive;
  if (!Config.Enc.valid()) {
    std::fprintf(stderr, "error: invalid encoding configuration "
                         "(regn/diffn/diffw)\n");
    return 2;
  }

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
  if (O.Portfolio != PortfolioMode::Off) {
    Config.Portfolio.Mode = O.Portfolio;
    Config.Portfolio.Jobs = O.PortfolioJobs;
    Config.Portfolio.MinConfidence = O.MinConfidence;
    Config.Portfolio.Table = HaveTable ? &Table : nullptr;
  }

  std::vector<Function> Functions;
  std::vector<uint64_t> RefFp;
  for (const std::string &File : Files) {
    std::string Text;
    if (File == "-") {
      Text.assign(std::istreambuf_iterator<char>(std::cin),
                  std::istreambuf_iterator<char>{});
    } else {
      std::ifstream In(File);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
        return 1;
      }
      Text.assign(std::istreambuf_iterator<char>(In),
                  std::istreambuf_iterator<char>{});
    }
    std::string Err;
    auto Parsed = parseFunction(Text, &Err);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s: parse failed: %s\n", File.c_str(),
                   Err.c_str());
      return 1;
    }
    if (!verifyFunction(*Parsed, &Err)) {
      std::fprintf(stderr, "error: %s: invalid function: %s\n",
                   File.c_str(), Err.c_str());
      return 1;
    }
    if (O.Cleanup) {
      ConstantFoldStats CF = foldConstants(*Parsed);
      SimplifyCfgStats SC = simplifyCfg(*Parsed);
      size_t Dce = eliminateDeadCode(*Parsed);
      std::printf("%s: cleanup: folded %zu insts + %zu branches, merged "
                  "%zu blocks, removed %zu dead insts\n",
                  File.c_str(), CF.InstsFolded, CF.BranchesFolded,
                  SC.BlocksMerged, Dce);
    }
    RefFp.push_back(fingerprint(interpret(*Parsed)));
    Functions.push_back(std::move(*Parsed));
  }

  if (!O.PortfolioTrain.empty())
    return runTrainSweep(O, Config, Files, Functions, RefFp);

  // The registry backs the stage table as well as --metrics-out; a batch
  // trace keeps every span.
  MetricsRegistry Metrics;
  Config.Metrics = &Metrics;
  TraceContext Trace(/*Id=*/1, SIZE_MAX);
  if (!O.TraceOut.empty())
    Config.Trace = &Trace;
  std::unique_ptr<ResultCache> Cache;
  if (O.UseCache) {
    ResultCacheOptions CO;
    CO.MemBudgetBytes = static_cast<size_t>(O.CacheMemMb) << 20;
    CO.DiskDir = O.CacheDir;
    CO.VerifyFraction = O.CacheVerify;
    Cache = std::make_unique<ResultCache>(CO);
    Cache->setMetrics(&Metrics);
  }
  BatchOptions BO;
  BO.Jobs = O.Jobs;
  BO.Cache = Cache.get();
  BatchCompiler Batch(BO);

  const uint64_t BatchBeginNs = steadyClockNs();
  std::vector<PipelineResult> Results = Batch.run(Functions, Config);
  const double BatchMs = double(steadyClockNs() - BatchBeginNs) / 1e6;

  std::printf("%-28s %8s %8s %8s %10s %s\n", "file", "insts", "spills",
              "slr", "bytes", "semantics");
  bool AllOk = true;
  for (size_t I = 0; I != Files.size(); ++I) {
    const PipelineResult &R = Results[I];
    bool Same = fingerprint(interpret(R.F)) == RefFp[I];
    AllOk = AllOk && Same;
    std::printf("%-28s %8zu %8zu %8zu %10zu %s%s\n", Files[I].c_str(),
                R.NumInsts, R.SpillInsts, R.SetLastRegs, R.CodeBytes,
                Same ? "ok" : "CHANGED (bug!)",
                R.AdaptiveFellBack ? " (adaptive: baseline)" : "");
  }
  if (O.Simulate || O.EmitSize)
    std::printf("\n");
  for (size_t I = 0; I != Files.size(); ++I) {
    const PipelineResult &R = Results[I];
    if (O.Simulate) {
      SimResult Sim = simulate(R.F);
      std::printf("%s: simulated: %llu cycles, %llu insts, I$ miss %llu, "
                  "D$ miss %llu, spill accesses %llu, slr slots %llu\n",
                  Files[I].c_str(),
                  static_cast<unsigned long long>(Sim.Cycles),
                  static_cast<unsigned long long>(Sim.DynInsts),
                  static_cast<unsigned long long>(Sim.ICacheMisses),
                  static_cast<unsigned long long>(Sim.DCacheMisses),
                  static_cast<unsigned long long>(Sim.SpillAccesses),
                  static_cast<unsigned long long>(Sim.SlrSlots));
    }
    if (O.EmitSize && R.DiffEncoded) {
      Function Stripped = stripSetLastReg(R.F);
      EncodedFunction E = encodeFunction(Stripped, Config.Enc);
      BinaryModule Diff = emitDifferential(E, Config.Enc);
      BinaryModule Direct = emitDirect(Stripped);
      std::printf("%s: binary: direct %zu bits (%u-bit fields), "
                  "differential %zu bits (%u-bit fields)\n",
                  Files[I].c_str(), Direct.BitCount, Direct.FieldWidth,
                  Diff.BitCount, Diff.FieldWidth);
    }
  }

  std::printf("\nbatch: %zu files, scheme %s, %u worker(s), %.1f ms "
              "wall\n",
              Files.size(),
              O.Portfolio != PortfolioMode::Off
                  ? (O.Portfolio == PortfolioMode::Race ? "auto (race)"
                                                        : "auto (choose)")
                  : schemeName(O.S),
              Batch.pool().workerCount(), BatchMs);
  if (Cache) {
    ResultCacheStats CS = Cache->stats();
    std::printf("cache: %llu hit(s) (%llu mem, %llu disk), %llu miss(es), "
                "%llu eviction(s), %llu load error(s), %llu verified, "
                "%llu mismatch(es)\n",
                static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.MemHits),
                static_cast<unsigned long long>(CS.DiskHits),
                static_cast<unsigned long long>(CS.Misses),
                static_cast<unsigned long long>(CS.Evictions),
                static_cast<unsigned long long>(CS.LoadErrors),
                static_cast<unsigned long long>(CS.VerifyRecompiles),
                static_cast<unsigned long long>(CS.VerifyMismatches));
    if (CS.VerifyMismatches != 0) {
      std::fprintf(stderr, "error: cache verification found %llu "
                           "mismatch(es) (cached != fresh)\n",
                   static_cast<unsigned long long>(CS.VerifyMismatches));
      AllOk = false;
    }
    Cache->flushMetrics(Metrics);
  }
  std::printf("%-12s %8s %12s %10s %10s %10s\n", "stage", "count",
              "total_us", "mean_us", "min_us", "max_us");
  for (const auto &[Name, H] : stageRows(Metrics))
    std::printf("%-12s %8zu %12.0f %10.1f %10.0f %10.0f\n", Name.c_str(),
                H.Count, H.Sum, H.Sum / static_cast<double>(H.Count), H.Min,
                H.Max);
  if (O.PrintCode)
    for (size_t I = 0; I != Files.size(); ++I)
      std::printf("\n; %s\n%s", Files[I].c_str(),
                  printFunction(Results[I].F).c_str());

  if (!O.TraceOut.empty()) {
    std::ofstream Out(O.TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.TraceOut.c_str());
      return 1;
    }
    writeChromeTrace(Out, Trace, "dra-batch");
    std::fprintf(stderr, "trace written to %s\n", O.TraceOut.c_str());
  }
  if (!O.MetricsOut.empty()) {
    std::string Err;
    if (!Metrics.writeJsonFile(O.MetricsOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", O.MetricsOut.c_str());
  }

  return AllOk ? 0 : 1;
}
