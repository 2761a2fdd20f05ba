//===- tools/dra-fuzz.cpp - Differential-testing fuzz driver --------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Sweeps seeded random programs through every differential scheme and
// encoding-config variant, checking each case with the lockstep
// interpreter oracle and the structural invariants (src/fuzz/). Failing
// cases are delta-debugged to a minimal program and serialized as
// self-contained repro files that `--repro=FILE` replays exactly.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "driver/Metrics.h"
#include "driver/ThreadPool.h"
#include "frontend/Frontend.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Repro.h"

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

/// Sweep size when --seeds is not given: three passes over the matrix.
unsigned defaultSeeds() { return 3 * caseMatrixSize(); }

/// A printf format: printUsage fills in the default sweep size, the
/// matrix size and the --only choices from the case matrix.
const char *UsageText =
    "usage: dra-fuzz [options]\n"
    "       dra-fuzz --repro=FILE\n"
    "\n"
    "Differential-testing harness: generates seeded random programs and\n"
    "checks, for every scheme variant (remap, select, coalesce, plus\n"
    "cache-replay, which recompiles through a warm result cache and\n"
    "requires a bit-identical replay, csrc, which compiles a\n"
    "seeded random mini-C source file through the frontend and fuzzes\n"
    "the lowered function, and portfolio, which races the scheme\n"
    "portfolio and checks the winner against every arm run alone) and\n"
    "encoding variant ({lowend, vliw} x {src-first, dst-first} x {with,\n"
    "without special registers}), that the pipeline preserves semantics,\n"
    "that decode(encode(F)) == F field for field, that the lockstep\n"
    "interpreter oracle sees identical traces, and that the structural\n"
    "invariants hold (permutation well-formedness, interference\n"
    "preservation, move legality). Failures are minimized by delta\n"
    "debugging and written as self-contained repro files.\n"
    "\n"
    "The sweep is deterministic: case K of a given --base-seed is the\n"
    "same program and configuration at any --jobs and in any chunking.\n"
    "\n"
    "options:\n"
    "  --seeds=N          cases to run (default %u, three passes over the\n"
    "                     %u-case matrix; a multiple of it covers the\n"
    "                     matrix evenly)\n"
    "  --only=VARIANT     run only case slots of one scheme variant:\n"
    "                     %s;\n"
    "                     indices are taken from the full matrix, so each\n"
    "                     case is identical to its unfiltered run\n"
    "  --seed-start=N     first case index (default 0); resume a sweep\n"
    "                     with --seed-start=<cases already run>\n"
    "  --base-seed=N      base RNG seed for the whole sweep (default 1)\n"
    "  --jobs=N           pool workers (default 0 = hardware concurrency)\n"
    "  --time-budget=SEC  stop launching new cases after SEC seconds\n"
    "                     (default 0 = run all --seeds cases)\n"
    "  --step-limit=N     interpreter step budget per execution\n"
    "                     (default 2000000)\n"
    "  --inject-fault=F   corrupt the encoder output of every case:\n"
    "                     none|drop-join|corrupt-code|drop-delayed\n"
    "                     (mutation-tests the harness itself)\n"
    "  --no-minimize      skip delta debugging of failures\n"
    "  --repro-dir=DIR    write one .repro file per failure into DIR\n"
    "                     (created if missing); without it the repro text\n"
    "                     is printed to stdout\n"
    "  --repro=FILE       replay one repro file instead of sweeping\n"
    "  --metrics-out=FILE write fuzz.cases / fuzz.mismatches /\n"
    "                     fuzz.minimize_steps counters as dra-metrics-v1\n"
    "                     JSON (compare runs with dra-stats)\n"
    "  --help             show this text\n"
    "\n"
    "exit status: 0 when every case passes (or a replayed repro no longer\n"
    "fails), 1 when any case fails (or a replayed repro still fails), 2 on\n"
    "a command-line error.\n";

void printUsage() {
  std::string Variants;
  for (unsigned V = 0; V != caseVariantCount(); ++V)
    Variants += std::string(V ? "|" : "") + caseVariantName(V);
  std::printf(UsageText, defaultSeeds(), caseMatrixSize(), Variants.c_str());
}

struct Options {
  uint64_t Seeds = defaultSeeds();
  uint64_t SeedStart = 0;
  uint64_t BaseSeed = 1;
  unsigned Jobs = 0;
  double TimeBudgetSec = 0;
  uint64_t StepLimit = 2'000'000;
  InjectFault Fault = InjectFault::None;
  bool Minimize = true;
  bool Help = false;
  std::string Only;
  std::string ReproDir;
  std::string ReproFile;
  std::string MetricsOut;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--seeds=")) {
      if (!cli::parseU64("--seeds", V, O.Seeds))
        return false;
    } else if (const char *V = Value("--seed-start=")) {
      if (!cli::parseU64("--seed-start", V, O.SeedStart))
        return false;
    } else if (const char *V = Value("--base-seed=")) {
      if (!cli::parseU64("--base-seed", V, O.BaseSeed))
        return false;
    } else if (const char *V = Value("--jobs=")) {
      if (!cli::parseUnsigned("--jobs", V, O.Jobs))
        return false;
    } else if (const char *V = Value("--time-budget=")) {
      if (!cli::parseDouble("--time-budget", V, O.TimeBudgetSec))
        return false;
    } else if (const char *V = Value("--step-limit=")) {
      if (!cli::parseU64("--step-limit", V, O.StepLimit))
        return false;
    } else if (const char *V = Value("--inject-fault=")) {
      if (!parseInjectFault(V, O.Fault)) {
        std::fprintf(stderr, "error: unknown fault '%s'\n", V);
        return false;
      }
    } else if (Arg == "--no-minimize") {
      O.Minimize = false;
    } else if (const char *V = Value("--only=")) {
      O.Only = V;
    } else if (const char *V = Value("--repro-dir=")) {
      O.ReproDir = V;
    } else if (const char *V = Value("--repro=")) {
      O.ReproFile = V;
    } else if (const char *V = Value("--metrics-out=")) {
      O.MetricsOut = V;
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

/// Replays one repro file: the embedded program under the embedded case
/// configuration. Returns the process exit status.
int replayRepro(const Options &O) {
  std::ifstream In(O.ReproFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", O.ReproFile.c_str());
    return 2;
  }
  std::string Text(std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>{});
  FuzzCase FC;
  Function P;
  std::string Err;
  if (!loadRepro(Text, FC, P, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("replaying %s (case %s)\n", O.ReproFile.c_str(),
              FC.name().c_str());
  if (FC.CSrc) {
    // csrc repros replay from the embedded mini-C source so the frontend
    // is part of the replayed path (the IR body is informational).
    CcDiag D;
    std::optional<Function> F = compileCSource("repro", FC.CSource, &D);
    if (!F) {
      std::printf("FAIL: frontend rejected repro source: %s\n",
                  D.render().c_str());
      return 1;
    }
    P = std::move(*F);
  }
  std::optional<std::string> Failure = checkProgram(P, FC);
  if (Failure) {
    std::printf("FAIL: %s\n", Failure->c_str());
    return 1;
  }
  std::printf("ok: repro no longer fails\n");
  return 0;
}

bool writeReproFile(const std::string &Dir, const FuzzCase &FC,
                    const Function &P, std::string &PathOut) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  PathOut = (fs::path(Dir) / (FC.name() + ".repro")).string();
  std::ofstream Out(PathOut);
  if (!Out)
    return false;
  Out << writeRepro(FC, P);
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (O.Help) {
    printUsage();
    return 0;
  }
  if (!O.ReproFile.empty())
    return replayRepro(O);
  if (O.Seeds == 0) {
    std::fprintf(stderr, "error: --seeds must be positive\n");
    return 2;
  }

  ThreadPool Pool(O.Jobs);
  MetricsRegistry Metrics;
  auto Begin = std::chrono::steady_clock::now();
  auto ElapsedSec = [&Begin] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Begin)
        .count();
  };

  uint64_t Ran = 0;
  uint64_t Failures = 0;
  uint64_t TotalMinimizeSteps = 0;
  uint64_t TotalDynInsts = 0;
  bool OutOfTime = false;

  // The sweep's case list: --seeds consecutive matrix indices, or with
  // --only the first --seeds indices whose scheme-variant slot matches.
  // Filtering selects indices, never redefines them, so a filtered case
  // is bit-identical to the same case in a full sweep.
  std::vector<uint64_t> CaseIndices;
  if (O.Only.empty()) {
    for (uint64_t I = 0; I != O.Seeds; ++I)
      CaseIndices.push_back(O.SeedStart + I);
  } else {
    bool Known = false;
    for (unsigned V = 0; V != caseVariantCount(); ++V)
      Known = Known || O.Only == caseVariantName(V);
    if (!Known) {
      std::fprintf(stderr, "error: unknown variant '%s' for --only\n",
                   O.Only.c_str());
      return 2;
    }
    for (uint64_t I = O.SeedStart; CaseIndices.size() < O.Seeds; ++I)
      if (O.Only == caseVariantName(I))
        CaseIndices.push_back(I);
  }

  // Chunked sweep: the pool drains one stripe of cases, then the time
  // budget is consulted before the next stripe launches. Case identity
  // depends only on (base seed, index), so chunk size and job count never
  // change what any case runs — only whether it runs before the budget
  // expires.
  const size_t Chunk =
      std::max<size_t>(static_cast<size_t>(Pool.workerCount()) * 4,
                       caseMatrixSize());
  for (size_t Pos = 0; Pos < CaseIndices.size();) {
    if (O.TimeBudgetSec > 0 && ElapsedSec() >= O.TimeBudgetSec) {
      OutOfTime = true;
      break;
    }
    size_t End = std::min(Pos + Chunk, CaseIndices.size());
    size_t N = End - Pos;
    std::vector<FuzzCaseResult> Results =
        Pool.parallelMap<FuzzCaseResult>(N, [&](size_t I) {
          FuzzCase FC = caseForIndex(O.BaseSeed, CaseIndices[Pos + I]);
          FC.StepLimit = O.StepLimit;
          FC.Fault = O.Fault;
          return runFuzzCase(FC, O.Minimize ? 600 : 0);
        });

    for (size_t I = 0; I != Results.size(); ++I) {
      const FuzzCaseResult &R = Results[I];
      FuzzCase FC = caseForIndex(O.BaseSeed, CaseIndices[Pos + I]);
      FC.StepLimit = O.StepLimit;
      FC.Fault = O.Fault;
      ++Ran;
      TotalDynInsts += R.OracleDynInsts;
      TotalMinimizeSteps += R.MinimizeSteps;
      MetricLabels L{{"scheme", schemeName(FC.S)},
                     {"result", R.Ok ? "ok" : "mismatch"}};
      Metrics.count("fuzz.cases", 1, L);
      if (R.Ok)
        continue;
      ++Failures;
      Metrics.count("fuzz.mismatches", 1,
                    MetricLabels{{"scheme", schemeName(FC.S)}});
      Metrics.count("fuzz.minimize_steps",
                    static_cast<double>(R.MinimizeSteps),
                    MetricLabels{{"scheme", schemeName(FC.S)}});
      std::printf("FAIL %s: %s\n", FC.name().c_str(), R.Detail.c_str());
      if (!O.ReproDir.empty()) {
        std::string Path;
        if (writeReproFile(O.ReproDir, FC, R.Program, Path))
          std::printf("  repro written to %s (%zu minimize steps)\n",
                      Path.c_str(), R.MinimizeSteps);
        else
          std::fprintf(stderr, "error: cannot write repro to %s\n",
                       Path.c_str());
      } else {
        std::printf("---- repro (replay with --repro) ----\n%s"
                    "---- end repro ----\n",
                    writeRepro(FC, R.Program).c_str());
      }
    }
    Pos = End;
  }

  double Sec = ElapsedSec();
  std::printf("dra-fuzz: %llu case(s), %llu failure(s), %u worker(s), "
              "%.1fs wall, %.1fM oracle insts%s\n",
              static_cast<unsigned long long>(Ran),
              static_cast<unsigned long long>(Failures),
              Pool.workerCount(), Sec,
              static_cast<double>(TotalDynInsts) / 1e6,
              OutOfTime ? " (time budget reached)" : "");

  if (!O.MetricsOut.empty()) {
    Metrics.gauge("fuzz.wall_seconds", Sec);
    Metrics.gauge("fuzz.oracle_dyn_insts",
                  static_cast<double>(TotalDynInsts));
    std::string Err;
    if (!Metrics.writeJsonFile(O.MetricsOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  return Failures == 0 ? 0 : 1;
}
