//===- tools/dra-cc.cpp - Mini-C compiler driver --------------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Compiles mini-C source files (see DESIGN.md "Mini-C frontend") through
// the frontend and the allocation pipelines, runs the result under the
// interpreter, and checks it against the frontend IR's behavior and the
// program's `// expect: N` annotation. The --test-dir mode is the corpus
// runner behind the tests/cc/ executable test suite: every program must
// produce its annotated value under all five schemes.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "interp/Interpreter.h"
#include "opt/ConstantFold.h"
#include "opt/DeadCode.h"
#include "opt/SimplifyCfg.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-cc [options] [input.c ...]\n"
    "\n"
    "Compiles mini-C source (stdin when no file is given) through the\n"
    "frontend, runs the allocation pipelines on the lowered IR, and\n"
    "interprets the result. Each compiled function must behave exactly\n"
    "like the frontend IR; a '// expect: N' annotation in the source\n"
    "additionally pins main's return value.\n"
    "\n"
    "modes:\n"
    "  (default)          compile each input through the selected schemes\n"
    "                     and report 'file: scheme ... -> value'\n"
    "  --test-dir=DIR     corpus runner: compile every *.c under DIR, all\n"
    "                     five schemes; every file must carry an\n"
    "                     '// expect: N' annotation (exit 1 otherwise)\n"
    "  --emit-dir=DIR     lower only: write DIR/<stem>.dra in the textual\n"
    "                     IR syntax for dra-batch/dra-loadgen\n"
    "\n"
    "pipeline options:\n"
    "  --scheme=NAME      baseline|ospill|remap|select|coalesce|all\n"
    "                     (default all)\n"
    "  --baseline-k=N     registers of the unmodified ISA (default 8)\n"
    "  --regn=N           differential registers (default 12)\n"
    "  --diffn=N          difference codes (default 8)\n"
    "  --diffw=N          field width in bits (default 3)\n"
    "  --cleanup          run fold/simplify/DCE before allocation\n"
    "\n"
    "output options:\n"
    "  --expect=N         require main to return N (overrides annotation)\n"
    "  --emit-ir          print the lowered (pre-allocation) IR\n"
    "  --print-code       print each scheme's allocated function\n"
    "  --help             show this text\n"
    "\n"
    "exit status: 0 on success, 1 when compilation fails or any scheme\n"
    "changes behavior or misses the expected value, 2 on a command-line\n"
    "error.\n";

struct Options {
  bool AllSchemes = true;
  Scheme S = Scheme::Coalesce;
  unsigned BaselineK = 8;
  unsigned RegN = 12;
  unsigned DiffN = 8;
  unsigned DiffW = 3;
  bool Cleanup = false;
  bool EmitIr = false;
  bool PrintCode = false;
  bool Help = false;
  bool HaveExpect = false;
  int64_t Expect = 0;
  std::string TestDir;
  std::string EmitDir;
  std::vector<std::string> InputFiles;
};

/// One scheme name, or "all" for every scheme.
bool parseScheme(const std::string &Name, Options &O) {
  O.AllSchemes = Name == "all";
  return O.AllSchemes || parseSchemeName(Name, O.S);
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--scheme=")) {
      if (!parseScheme(V, O)) {
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
    } else if (const char *V = Value("--expect=")) {
      uint64_t Mag = 0;
      bool Neg = *V == '-';
      if (!cli::parseU64("--expect", Neg ? V + 1 : V, Mag))
        return false;
      uint64_t Limit =
          Neg ? (static_cast<uint64_t>(INT64_MAX) + 1) : INT64_MAX;
      if (Mag > Limit) {
        std::fprintf(stderr, "error: --expect value out of int64 range\n");
        return false;
      }
      O.Expect = static_cast<int64_t>(Neg ? 0 - Mag : Mag);
      O.HaveExpect = true;
    } else if (const char *V = Value("--test-dir=")) {
      O.TestDir = V;
    } else if (const char *V = Value("--emit-dir=")) {
      O.EmitDir = V;
    } else if (Arg == "--cleanup") {
      O.Cleanup = true;
    } else if (Arg == "--emit-ir") {
      O.EmitIr = true;
    } else if (Arg == "--print-code") {
      O.PrintCode = true;
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

std::vector<Scheme> schemesToRun(const Options &O) {
  if (O.AllSchemes)
    return {Scheme::Baseline, Scheme::OSpill, Scheme::Remap, Scheme::Select,
            Scheme::Coalesce};
  return {O.S};
}

PipelineConfig configFor(const Options &O, Scheme S) {
  PipelineConfig C;
  C.S = S;
  C.BaselineK = O.BaselineK;
  C.Enc.RegN = O.RegN;
  C.Enc.DiffN = O.DiffN;
  C.Enc.DiffW = O.DiffW;
  return C;
}

/// Compiles one source through the frontend. On failure prints the
/// positioned diagnostic and returns std::nullopt.
std::optional<Function> frontend(const std::string &Label,
                                 const std::string &Source,
                                 const Options &O) {
  CcDiag D;
  auto F = compileCSource(Label, Source, &D);
  if (!F) {
    std::fprintf(stderr, "error: %s: %s\n", Label.c_str(),
                 D.render().c_str());
    return std::nullopt;
  }
  if (O.Cleanup) {
    foldConstants(*F);
    simplifyCfg(*F);
    eliminateDeadCode(*F);
  }
  return F;
}

/// Runs every requested scheme on \p F and checks each result against
/// the frontend IR's fingerprint and (when present) \p Expect. Returns
/// false on any mismatch. \p Quiet suppresses per-scheme output lines.
bool runSchemes(const std::string &Label, const Function &F,
                const Options &O, const int64_t *Expect, bool Quiet) {
  ExecResult Ref = interpret(F);
  if (Ref.HitStepLimit) {
    std::fprintf(stderr, "error: %s: interpreter step limit hit\n",
                 Label.c_str());
    return false;
  }
  uint64_t RefFp = fingerprint(Ref);
  if (Expect && Ref.ReturnValue != *Expect) {
    std::fprintf(stderr,
                 "FAIL %s: frontend IR returned %lld, expected %lld\n",
                 Label.c_str(), static_cast<long long>(Ref.ReturnValue),
                 static_cast<long long>(*Expect));
    return false;
  }
  bool Ok = true;
  for (Scheme S : schemesToRun(O)) {
    PipelineResult R = runPipeline(F, configFor(O, S));
    ExecResult Got = interpret(R.F);
    if (fingerprint(Got) != RefFp || Got.ReturnValue != Ref.ReturnValue) {
      std::fprintf(stderr,
                   "FAIL %s: scheme %s changed behavior (returned %lld, "
                   "frontend IR returned %lld)\n",
                   Label.c_str(), schemeName(S),
                   static_cast<long long>(Got.ReturnValue),
                   static_cast<long long>(Ref.ReturnValue));
      Ok = false;
      continue;
    }
    if (!Quiet)
      std::printf("%s: %-22s -> %lld  (insts %zu, spill%% %.2f, "
                  "set_last%% %.2f)\n",
                  Label.c_str(), schemeName(S),
                  static_cast<long long>(Got.ReturnValue), R.NumInsts,
                  R.spillPercent(), R.setLastPercent());
    if (O.PrintCode)
      std::fputs(printFunction(R.F).c_str(), stdout);
  }
  return Ok;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// A source file's stem ("tests/cc/fib.c" -> "fib"), used to label
/// functions and name emitted .dra files.
std::string stemOf(const std::string &Path) {
  return std::filesystem::path(Path).stem().string();
}

int runCorpus(const Options &O) {
  std::vector<std::string> Files;
  std::error_code EC;
  for (std::filesystem::directory_iterator It(O.TestDir, EC), End;
       !EC && It != End; It.increment(EC)) {
    if (It->path().extension() == ".c")
      Files.push_back(It->path().string());
  }
  if (EC) {
    std::fprintf(stderr, "error: cannot read test dir '%s': %s\n",
                 O.TestDir.c_str(), EC.message().c_str());
    return 1;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "error: no *.c files under '%s'\n",
                 O.TestDir.c_str());
    return 1;
  }
  std::sort(Files.begin(), Files.end());

  size_t Passed = 0, Failed = 0;
  for (const std::string &Path : Files) {
    std::string Source;
    if (!readFile(Path, Source)) {
      ++Failed;
      continue;
    }
    auto Expect = expectedReturnAnnotation(Source);
    if (!Expect) {
      std::fprintf(stderr,
                   "FAIL %s: missing '// expect: N' annotation (every "
                   "corpus program must pin its return value)\n",
                   Path.c_str());
      ++Failed;
      continue;
    }
    auto F = frontend(stemOf(Path), Source, O);
    if (!F) {
      ++Failed;
      continue;
    }
    if (runSchemes(Path, *F, O, &*Expect, /*Quiet=*/true)) {
      std::printf("PASS %s (expect %lld, all %zu scheme(s))\n", Path.c_str(),
                  static_cast<long long>(*Expect), schemesToRun(O).size());
      ++Passed;
    } else {
      ++Failed;
    }
  }
  std::printf("corpus: %zu passed, %zu failed (of %zu)\n", Passed, Failed,
              Files.size());
  return Failed ? 1 : 0;
}

int runEmit(const Options &O) {
  std::error_code EC;
  std::filesystem::create_directories(O.EmitDir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot create '%s': %s\n", O.EmitDir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  if (O.InputFiles.empty()) {
    std::fprintf(stderr, "error: --emit-dir requires input files\n");
    return 2;
  }
  for (const std::string &Path : O.InputFiles) {
    std::string Source;
    if (!readFile(Path, Source))
      return 1;
    auto F = frontend(stemOf(Path), Source, O);
    if (!F)
      return 1;
    std::string OutPath =
        (std::filesystem::path(O.EmitDir) / (stemOf(Path) + ".dra"))
            .string();
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
      return 1;
    }
    Out << printFunction(*F);
    std::printf("%s -> %s\n", Path.c_str(), OutPath.c_str());
  }
  return 0;
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
  if (!O.TestDir.empty())
    return runCorpus(O);
  if (!O.EmitDir.empty())
    return runEmit(O);

  // Default mode: compile + run each input (stdin when none).
  std::vector<std::pair<std::string, std::string>> Sources;
  if (O.InputFiles.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Sources.emplace_back("<stdin>", Buffer.str());
  } else {
    for (const std::string &Path : O.InputFiles) {
      std::string Source;
      if (!readFile(Path, Source))
        return 1;
      Sources.emplace_back(Path, std::move(Source));
    }
  }

  bool Ok = true;
  for (const auto &[Label, Source] : Sources) {
    std::string Name = Label == "<stdin>" ? "stdin" : stemOf(Label);
    auto F = frontend(Name, Source, O);
    if (!F) {
      Ok = false;
      continue;
    }
    if (O.EmitIr)
      std::fputs(printFunction(*F).c_str(), stdout);
    // The annotation participates in the default mode too, so corpus
    // files behave identically run directly or via --test-dir.
    int64_t Expect = 0;
    const int64_t *ExpectPtr = nullptr;
    if (O.HaveExpect) {
      Expect = O.Expect;
      ExpectPtr = &Expect;
    } else if (auto Ann = expectedReturnAnnotation(Source)) {
      Expect = *Ann;
      ExpectPtr = &Expect;
    }
    if (!runSchemes(Label, *F, O, ExpectPtr, /*Quiet=*/false))
      Ok = false;
  }
  return Ok ? 0 : 1;
}
