//===- tools/dra-opt.cpp - Command-line pipeline driver -------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// A small `opt`-style driver: reads functions in the textual IR syntax
// (see src/ir/Parser.h), runs one of the five allocation pipelines, and
// prints the resulting machine code, statistics, and (optionally) the
// simulated execution profile. Useful for poking at the encoder with
// hand-written programs. Multiple input files are compiled as one batch
// on a worker pool (--jobs) and can dump a Chrome trace (--trace-out).
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "core/BinaryEmitter.h"
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

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-opt [options] [input.dra ...]\n"
    "\n"
    "Reads functions in the textual IR syntax (stdin when no file is\n"
    "given), runs one of the five allocation pipelines on each, and\n"
    "prints statistics. Multiple inputs are compiled as one batch.\n"
    "\n"
    "pipeline options:\n"
    "  --scheme=NAME      baseline|ospill|remap|select|coalesce\n"
    "                     (default coalesce)\n"
    "  --baseline-k=N     registers of the unmodified ISA (default 8)\n"
    "  --regn=N           differential registers (default 12)\n"
    "  --diffn=N          difference codes (default 8)\n"
    "  --diffw=N          field width in bits (default 3)\n"
    "  --remap-starts=N   remapping restarts (default 200)\n"
    "  --remap-jobs=N     shard the multi-start remap search over N pool\n"
    "                     workers (default 1; 0 = hardware concurrency;\n"
    "                     results are bit-identical at any value)\n"
    "  --adaptive         Section 8.2 selective enabling\n"
    "  --cleanup          run fold/simplify/DCE before allocation\n"
    "\n"
    "portfolio options:\n"
    "  --portfolio=MODE   off (default) | race (race the scheme\n"
    "                     portfolio per function, commit the\n"
    "                     deterministic winner) | choose (consult the\n"
    "                     --portfolio-table chooser, race on low\n"
    "                     confidence); overrides --scheme\n"
    "  --portfolio-jobs=N workers per race (default 1; 0 = one per\n"
    "                     arm; results bit-identical at any N)\n"
    "  --portfolio-table=FILE\n"
    "                     portfolio-v1 decision table (dra-tune\n"
    "                     output) for --portfolio=choose\n"
    "  --min-confidence=F race instead of trusting the chooser below\n"
    "                     this leaf confidence (default 0.75)\n"
    "\n"
    "driver options:\n"
    "  --jobs=N           compile inputs on N pool workers\n"
    "                     (default 1; 0 = hardware concurrency)\n"
    "  --trace-out=FILE   write a Chrome trace-event JSON of the batch\n"
    "                     (open in chrome://tracing or ui.perfetto.dev)\n"
    "  --metrics-out=FILE write allocator-deep metrics (counters, gauges,\n"
    "                     stage histograms) as dra-metrics-v1 JSON;\n"
    "                     compare runs with dra-stats\n"
    "  --cache-dir=DIR    persistent content-addressed result cache\n"
    "                     (dra-cache-v1 entries; stale/corrupt entries\n"
    "                     quarantine as misses, never errors)\n"
    "  --cache-mem-mb=N   in-memory cache tier budget in MiB (default 64;\n"
    "                     implies caching even without --cache-dir)\n"
    "  --cache-verify=F   recompile fraction F (0..1) of cache hits and\n"
    "                     compare byte-for-byte (exit 1 on mismatch)\n"
    "\n"
    "output options:\n"
    "  --simulate         run the pipeline model and print cycles\n"
    "  --print-code       print the resulting function\n"
    "  --emit-size        print bit-exact binary sizes (direct vs diff)\n"
    "  --help             show this text\n"
    "\n"
    "exit status: 0 on success, 1 when any pipeline changes semantics or\n"
    "an input fails to parse, 2 on a command-line error.\n";

struct Options {
  Scheme S = Scheme::Coalesce;
  unsigned BaselineK = 8;
  unsigned RegN = 12;
  unsigned DiffN = 8;
  unsigned DiffW = 3;
  unsigned RemapStarts = 200;
  unsigned RemapJobs = 1;
  unsigned Jobs = 1;
  PortfolioMode Portfolio = PortfolioMode::Off;
  unsigned PortfolioJobs = 1;
  std::string PortfolioTable;
  double MinConfidence = 0.75;
  bool Adaptive = false;
  bool Cleanup = false;
  bool Simulate = false;
  bool PrintCode = false;
  bool EmitSize = false;
  bool Help = false;
  std::string TraceOut;
  std::string MetricsOut;
  std::string CacheDir;
  unsigned CacheMemMb = 64;
  double CacheVerify = 0;
  bool UseCache = false;
  std::vector<std::string> InputFiles;
};

bool parseScheme(const std::string &Name, Scheme &Out) {
  if (Name == "baseline")
    Out = Scheme::Baseline;
  else if (Name == "ospill")
    Out = Scheme::OSpill;
  else if (Name == "remap")
    Out = Scheme::Remap;
  else if (Name == "select")
    Out = Scheme::Select;
  else if (Name == "coalesce")
    Out = Scheme::Coalesce;
  else
    return false;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--scheme=")) {
      if (!parseScheme(V, O.S)) {
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
    } else if (const char *V = Value("--remap-jobs=")) {
      if (!cli::parseUnsigned("--remap-jobs", V, O.RemapJobs))
        return false;
      if (O.RemapJobs == 0)
        O.RemapJobs = std::thread::hardware_concurrency();
    } else if (const char *V = Value("--jobs=")) {
      if (!cli::parseUnsigned("--jobs", V, O.Jobs))
        return false;
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
    } else if (Arg == "--adaptive") {
      O.Adaptive = true;
    } else if (Arg == "--cleanup") {
      O.Cleanup = true;
    } else if (Arg == "--simulate") {
      O.Simulate = true;
    } else if (Arg == "--print-code") {
      O.PrintCode = true;
    } else if (Arg == "--emit-size") {
      O.EmitSize = true;
    } else if (Arg == "--help" || Arg == "-h") {
      O.Help = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   Arg.c_str());
      return false;
    } else {
      O.InputFiles.push_back(Arg);
    }
  }
  return true;
}

/// One parsed input.
struct InputUnit {
  std::string Label; // file name, or "<stdin>"
  Function F;
  uint64_t ReferenceFp = 0;
  int64_t ReturnValue = 0;
};

bool readInput(const std::string &Label, const std::string &Text,
               const Options &O, std::vector<InputUnit> &Units) {
  std::string Err;
  auto Parsed = parseFunction(Text, &Err);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s: parse failed: %s\n", Label.c_str(),
                 Err.c_str());
    return false;
  }
  if (!verifyFunction(*Parsed, &Err)) {
    std::fprintf(stderr, "error: %s: invalid function: %s\n", Label.c_str(),
                 Err.c_str());
    return false;
  }
  if (O.Cleanup) {
    ConstantFoldStats CF = foldConstants(*Parsed);
    SimplifyCfgStats SC = simplifyCfg(*Parsed);
    size_t Dce = eliminateDeadCode(*Parsed);
    std::printf("%s: cleanup: folded %zu insts + %zu branches, merged %zu "
                "blocks, removed %zu dead insts\n",
                Label.c_str(), CF.InstsFolded, CF.BranchesFolded,
                SC.BlocksMerged, Dce);
  }
  InputUnit U;
  U.Label = Label;
  ExecResult Reference = interpret(*Parsed);
  U.ReferenceFp = fingerprint(Reference);
  U.ReturnValue = Reference.ReturnValue;
  U.F = std::move(*Parsed);
  Units.push_back(std::move(U));
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

  std::vector<InputUnit> Units;
  if (O.InputFiles.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    if (!readInput("<stdin>", Buffer.str(), O, Units))
      return 1;
  } else {
    for (const std::string &File : O.InputFiles) {
      std::ifstream In(File);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
        return 1;
      }
      std::string Text(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>{});
      if (!readInput(File, Text, O, Units))
        return 1;
    }
  }

  PipelineConfig Config;
  Config.S = O.S;
  Config.BaselineK = O.BaselineK;
  Config.Enc.RegN = O.RegN;
  Config.Enc.DiffN = O.DiffN;
  Config.Enc.DiffW = O.DiffW;
  Config.Remap.NumStarts = O.RemapStarts;
  Config.Remap.Jobs = O.RemapJobs;
  Config.AdaptiveEnable = O.Adaptive;
  if (!Config.Enc.valid()) {
    std::fprintf(stderr, "error: invalid encoding configuration "
                         "(regn/diffn/diffw)\n");
    return 2;
  }

  // The table must outlive the batch (PortfolioConfig borrows it).
  DecisionTable Table;
  if (O.Portfolio != PortfolioMode::Off) {
    Config.Portfolio.Mode = O.Portfolio;
    Config.Portfolio.Jobs = O.PortfolioJobs;
    Config.Portfolio.MinConfidence = O.MinConfidence;
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
      Config.Portfolio.Table = &Table;
    }
  }

  MetricsRegistry Metrics;
  if (!O.MetricsOut.empty())
    Config.Metrics = &Metrics;
  TraceContext Trace(/*Id=*/1, SIZE_MAX); // a batch trace keeps every span
  if (!O.TraceOut.empty())
    Config.Trace = &Trace;
  std::unique_ptr<ResultCache> Cache;
  if (O.UseCache) {
    ResultCacheOptions CO;
    CO.MemBudgetBytes = static_cast<size_t>(O.CacheMemMb) << 20;
    CO.DiskDir = O.CacheDir;
    CO.VerifyFraction = O.CacheVerify;
    Cache = std::make_unique<ResultCache>(CO);
    if (!O.MetricsOut.empty())
      Cache->setMetrics(&Metrics);
  }
  BatchOptions BO;
  BO.Jobs = O.Jobs;
  BO.Cache = Cache.get();
  BatchCompiler Batch(BO);

  std::vector<Function> Functions;
  for (const InputUnit &U : Units)
    Functions.push_back(U.F);
  std::vector<PipelineResult> Results = Batch.run(Functions, Config);

  bool AllSame = true;
  for (size_t I = 0; I != Units.size(); ++I) {
    const InputUnit &U = Units[I];
    const PipelineResult &R = Results[I];
    const char *Prefix = Units.size() > 1 ? U.Label.c_str() : "input";
    std::printf("%s: %zu instructions, %u virtual registers, returns "
                "%lld\n",
                Prefix, U.F.numInsts(), U.F.NumRegs,
                static_cast<long long>(U.ReturnValue));

    ExecResult After = interpret(R.F);
    bool Same = fingerprint(After) == U.ReferenceFp;
    AllSame = AllSame && Same;
    const char *SchemeL =
        O.Portfolio == PortfolioMode::Race    ? "auto (race)"
        : O.Portfolio == PortfolioMode::Choose ? "auto (choose)"
                                               : schemeName(O.S);
    std::printf("%s: %zu insts (%zu spill, %zu set_last_reg), code %zu "
                "bytes, semantics %s\n",
                SchemeL, R.NumInsts, R.SpillInsts, R.SetLastRegs,
                R.CodeBytes, Same ? "preserved" : "CHANGED (bug!)");
    if (R.AdaptiveFellBack)
      std::printf("adaptive mode chose the baseline for this function\n");

    if (O.Simulate) {
      SimResult Sim = simulate(R.F);
      std::printf("simulated: %llu cycles, %llu insts, I$ miss %llu, D$ "
                  "miss %llu, spill accesses %llu, slr slots %llu\n",
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
      std::printf("binary: direct %zu bits (%u-bit fields), differential "
                  "%zu bits (%u-bit fields)\n",
                  Direct.BitCount, Direct.FieldWidth, Diff.BitCount,
                  Diff.FieldWidth);
    }

    if (O.PrintCode)
      std::printf("\n%s", printFunction(R.F).c_str());
  }

  if (Cache) {
    ResultCacheStats CS = Cache->stats();
    std::printf("cache: %llu hit(s) (%llu mem, %llu disk), %llu miss(es), "
                "%llu load error(s), %llu verified, %llu mismatch(es)\n",
                static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.MemHits),
                static_cast<unsigned long long>(CS.DiskHits),
                static_cast<unsigned long long>(CS.Misses),
                static_cast<unsigned long long>(CS.LoadErrors),
                static_cast<unsigned long long>(CS.VerifyRecompiles),
                static_cast<unsigned long long>(CS.VerifyMismatches));
    if (CS.VerifyMismatches != 0) {
      std::fprintf(stderr, "error: cache verification found %llu "
                           "mismatch(es) (cached != fresh)\n",
                   static_cast<unsigned long long>(CS.VerifyMismatches));
      AllSame = false;
    }
    Cache->flushMetrics(Metrics);
  }

  if (!O.TraceOut.empty()) {
    std::ofstream Out(O.TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.TraceOut.c_str());
      return 1;
    }
    writeChromeTrace(Out, Trace, "dra-opt");
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

  return AllSame ? 0 : 1;
}
