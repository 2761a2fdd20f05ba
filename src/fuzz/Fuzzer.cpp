//===- fuzz/Fuzzer.cpp - Randomized differential-testing harness ----------===//

#include "fuzz/Fuzzer.h"

#include "adt/Rng.h"
#include "core/Encoder.h"
#include "driver/ResultCache.h"
#include "frontend/CSourceGen.h"
#include "frontend/Frontend.h"
#include "fuzz/Invariants.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "interp/Interpreter.h"

#include <optional>
#include <utility>

using namespace dra;

const char *dra::injectFaultName(InjectFault F) {
  switch (F) {
  case InjectFault::None:
    return "none";
  case InjectFault::DropJoinRepair:
    return "drop-join";
  case InjectFault::CorruptFieldCode:
    return "corrupt-code";
  case InjectFault::DropDelayedSlr:
    return "drop-delayed";
  }
  assert(false && "unknown fault");
  return "<bad>";
}

bool dra::parseInjectFault(const std::string &Name, InjectFault &Out) {
  for (InjectFault F :
       {InjectFault::None, InjectFault::DropJoinRepair,
        InjectFault::CorruptFieldCode, InjectFault::DropDelayedSlr})
    if (Name == injectFaultName(F)) {
      Out = F;
      return true;
    }
  return false;
}

namespace {

/// The (scheme × encoding) variants the sweep cycles through. Order is
/// part of the tool's contract: a run of caseMatrixSize() consecutive
/// indices covers the whole matrix.
struct ConfigVariant {
  const char *Name;
  EncodingConfig (*Make)();
};

EncodingConfig lowendSrc() { return lowEndConfig(12); }
EncodingConfig lowendDst() {
  EncodingConfig C = lowEndConfig(12);
  C.Order = AccessOrder::DstFirst;
  return C;
}
EncodingConfig lowendSp() {
  EncodingConfig C = lowEndConfig(12);
  C.DiffN = 7; // Reserve one direct code for the special register.
  C.SpecialRegs = {11};
  return C;
}
EncodingConfig vliwSrc() { return vliwConfig(32); }
EncodingConfig vliwDst() {
  EncodingConfig C = vliwConfig(32);
  C.Order = AccessOrder::DstFirst;
  return C;
}
EncodingConfig vliwSp() {
  EncodingConfig C = vliwConfig(32);
  C.DiffN = 30; // Two direct codes reserved.
  C.SpecialRegs = {31, 30};
  return C;
}

const ConfigVariant ConfigVariants[] = {
    {"lowend12-src", lowendSrc}, {"lowend12-dst", lowendDst},
    {"lowend12-sp", lowendSp},   {"vliw32-src", vliwSrc},
    {"vliw32-dst", vliwDst},     {"vliw32-sp", vliwSp},
};

/// The scheme axis: the three differential pipelines, a cache-replay arm
/// that recompiles the heaviest pipeline (coalesce) through a warm
/// ResultCache, a csrc arm whose program comes from the mini-C frontend
/// (its scheme rotates through the three differential pipelines by seed,
/// see caseForIndex), and a portfolio arm. "cached == fresh" is the
/// cache's construction invariant and the replay arm is its guard.
struct SchemeVariant {
  Scheme S;
  const char *Name;
  bool CacheReplay;
  bool CSrc;
  bool Portfolio;
};

const SchemeVariant SchemeVariants[] = {
    {Scheme::Remap, "remap", false, false, false},
    {Scheme::Select, "select", false, false, false},
    {Scheme::Coalesce, "coalesce", false, false, false},
    {Scheme::Coalesce, "cache-replay", true, false, false},
    {Scheme::Remap, "csrc", false, true, false},
    // A two-worker race over the default arms; checkProgram additionally
    // recompiles every arm alone and requires the raced winner to match
    // the sequential best exactly (cost, tie-break, bytes).
    {Scheme::Coalesce, "portfolio", false, false, true},
};

constexpr size_t NumSchemeVariants =
    sizeof(SchemeVariants) / sizeof(SchemeVariants[0]);

/// Program shape for this case: every knob drawn from the case's own
/// deterministic stream. Shapes stay small — the sweep's value is breadth
/// (many seeds × the config matrix), not depth of any one program.
ProgramProfile profileFor(uint64_t Seed) {
  Rng R(Seed);
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = static_cast<unsigned>(R.nextInRange(3, 10));
  P.TopStatements = static_cast<unsigned>(R.nextInRange(4, 10));
  P.MaxLoopDepth = static_cast<unsigned>(R.nextInRange(1, 2));
  P.BodyStatements = static_cast<unsigned>(R.nextInRange(3, 7));
  P.ExprWidth = static_cast<unsigned>(R.nextInRange(2, 4));
  P.HotPct = static_cast<unsigned>(R.nextInRange(0, 20));
  P.HotWidth = static_cast<unsigned>(R.nextInRange(6, 12));
  P.TripMin = 2;
  P.TripMax = static_cast<unsigned>(R.nextInRange(3, 5));
  P.OuterTrip = static_cast<unsigned>(R.nextInRange(2, 4));
  P.MemWords = 64;
  P.LoopPct = static_cast<unsigned>(R.nextInRange(12, 30));
  P.IfPct = static_cast<unsigned>(R.nextInRange(10, 25));
  P.MemPct = static_cast<unsigned>(R.nextInRange(10, 30));
  P.MovePct = static_cast<unsigned>(R.nextInRange(5, 25));
  return P;
}

/// Applies the case's deliberate encoder corruption to \p E. Returns true
/// when a corruption site existed (a fault that finds no site leaves the
/// encoding intact and the case passes vacuously).
bool applyFault(EncodedFunction &E, const EncodingConfig &C,
                InjectFault Fault) {
  switch (Fault) {
  case InjectFault::None:
    return true;
  case InjectFault::DropJoinRepair:
  case InjectFault::DropDelayedSlr: {
    bool WantDelayed = Fault == InjectFault::DropDelayedSlr;
    for (size_t B = 0; B != E.Annotated.Blocks.size(); ++B) {
      auto &Insts = E.Annotated.Blocks[B].Insts;
      for (size_t I = 0; I != Insts.size(); ++I)
        if (Insts[I].Op == Opcode::SetLastReg &&
            (Insts[I].Aux != 0) == WantDelayed) {
          Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(I));
          E.Codes[B].erase(E.Codes[B].begin() +
                           static_cast<ptrdiff_t>(I));
          E.Annotated.recomputeCFG();
          return true;
        }
    }
    return false;
  }
  case InjectFault::CorruptFieldCode: {
    for (auto &BlockCodes : E.Codes)
      for (auto &InstCodes : BlockCodes)
        for (uint8_t &Code : InstCodes)
          // Only difference codes (not reserved special codes), and only
          // flips that stay in difference-code range, so the corruption
          // decodes to a *wrong register* rather than tripping asserts.
          if (Code >= 1 && Code < C.DiffN && (Code ^ 1u) < C.DiffN) {
            Code ^= 1u;
            return true;
          }
    return false;
  }
  }
  return false;
}

/// FNV-1a over the encoded difference-code stream of \p F (re-encoded
/// from its stripped form, as the round-trip checks do). Instruction and
/// block boundaries are folded in so reshuffled streams cannot collide
/// by concatenation.
uint64_t encodedStreamHash(const Function &F, const EncodingConfig &C) {
  EncodedFunction E = encodeFunction(stripSetLastReg(F), C);
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  };
  for (const auto &BlockCodes : E.Codes) {
    Mix(0xfe);
    for (const auto &InstCodes : BlockCodes) {
      Mix(0xff);
      for (uint8_t Code : InstCodes)
        Mix(Code);
    }
  }
  return H;
}

} // namespace

std::string FuzzCase::name() const {
  std::string N = "s" + std::to_string(Index) + "-" +
                  SchemeVariants[Index % NumSchemeVariants].Name;
  N += "-";
  N += ConfigVariants[(Index / NumSchemeVariants) %
                      (sizeof(ConfigVariants) / sizeof(ConfigVariants[0]))]
           .Name;
  if (Fault != InjectFault::None) {
    N += "-fault-";
    N += injectFaultName(Fault);
  }
  return N;
}

unsigned dra::caseMatrixSize() {
  return static_cast<unsigned>(sizeof(ConfigVariants) /
                               sizeof(ConfigVariants[0])) *
         static_cast<unsigned>(NumSchemeVariants);
}

unsigned dra::caseVariantCount() {
  return static_cast<unsigned>(NumSchemeVariants);
}

const char *dra::caseVariantName(uint64_t Index) {
  return SchemeVariants[Index % NumSchemeVariants].Name;
}

FuzzCase dra::caseForIndex(uint64_t BaseSeed, uint64_t Index) {
  FuzzCase FC;
  FC.Index = Index;
  FC.Seed = Rng::taskSeed(BaseSeed, Index);
  const SchemeVariant &SV = SchemeVariants[Index % NumSchemeVariants];
  FC.S = SV.S;
  FC.CacheReplay = SV.CacheReplay;
  if (SV.Portfolio) {
    FC.Portfolio = true;
    FC.PortfolioJobs = 2; // Concurrent arms: the race path under test.
  }
  FC.Enc = ConfigVariants[(Index / NumSchemeVariants) %
                          (sizeof(ConfigVariants) /
                           sizeof(ConfigVariants[0]))]
               .Make();
  FC.Profile = profileFor(FC.Seed);
  if (SV.CSrc) {
    // Frontend-sourced case: generate the mini-C text here so the case
    // stays a pure function of (BaseSeed, Index), and rotate the scheme
    // by seed so all three differential pipelines see frontend-shaped
    // programs (inlined calls, short-circuit CFGs, mem-resident arrays).
    FC.CSrc = true;
    static const Scheme Rotation[3] = {Scheme::Remap, Scheme::Select,
                                       Scheme::Coalesce};
    FC.S = Rotation[FC.Seed % 3];
    FC.CSource = generateCSource(csrcProfileFor(FC.Seed));
  }
  return FC;
}

std::optional<std::string> dra::checkProgram(const Function &P,
                                             const FuzzCase &FC,
                                             uint64_t *DynInsts) {
  std::string Err;
  if (!verifyFunction(P, &Err))
    return "input program invalid: " + Err;

  ExecResult Ref = interpret(P, FC.StepLimit);
  if (DynInsts)
    *DynInsts = Ref.DynInsts;

  PipelineConfig Cfg;
  Cfg.S = FC.S;
  Cfg.Enc = FC.Enc;
  // Breadth over depth: a light remap search keeps per-case cost low
  // without weakening any checked invariant.
  Cfg.Remap.NumStarts = 25;
  if (FC.Portfolio) {
    Cfg.Portfolio.Mode = PortfolioMode::Race;
    Cfg.Portfolio.Jobs = FC.PortfolioJobs;
  }
  std::optional<ResultCache> Cache;
  if (FC.CacheReplay) {
    Cache.emplace();
    Cfg.Cache = &*Cache;
  }
  PipelineResult R = runPipeline(P, Cfg);

  if (!verifyFunction(R.F, &Err))
    return "pipeline output invalid: " + Err;

  if (FC.Portfolio) {
    // The race's construction invariant: the committed result is what a
    // sequential sweep of the arms would pick — minimal encodedCost,
    // lowest arm index on ties, identical bytes. Recompile every arm
    // alone and compare; cancellation must never change the outcome.
    std::vector<PortfolioArm> Arms = resolvedPortfolioArms(Cfg.Portfolio);
    uint64_t BestCost = UINT64_MAX;
    size_t BestArm = 0;
    std::optional<PipelineResult> Best;
    for (size_t A = 0; A != Arms.size(); ++A) {
      PipelineConfig AC = Cfg;
      AC.Portfolio = PortfolioConfig();
      AC.S = Arms[A].S;
      if (Arms[A].RemapStarts != 0)
        AC.Remap.NumStarts = Arms[A].RemapStarts;
      PipelineResult AR = runPipeline(P, AC);
      uint64_t Cost = encodedCost(AR);
      if (Cost < BestCost) {
        BestCost = Cost;
        BestArm = A;
        Best = std::move(AR);
      }
    }
    if (encodedCost(R) != BestCost)
      return "portfolio: raced cost " + std::to_string(encodedCost(R)) +
             " != best sequential arm cost " + std::to_string(BestCost) +
             " (arm " + std::to_string(BestArm) + ")";
    std::string Why;
    if (!functionsIdentical(R.F, Best->F, &Why))
      return "portfolio: raced winner differs from sequential arm " +
             std::to_string(BestArm) + ": " + Why;
    if (R.DiffEncoded && encodedStreamHash(R.F, FC.Enc) !=
                             encodedStreamHash(Best->F, FC.Enc))
      return "portfolio: encoded stream differs from sequential arm " +
             std::to_string(BestArm);
  }

  if (FC.CacheReplay) {
    // Recompile through the now-warm cache: the replay must hit, and the
    // replayed function must match the fresh compile bit for bit —
    // structurally and as an encoded difference-code stream.
    PipelineResult Warm = runPipeline(P, Cfg);
    ResultCacheStats CS = Cache->stats();
    if (CS.Hits != 1 || CS.Misses != 1)
      return "cache replay: expected 1 miss + 1 hit, got " +
             std::to_string(CS.Misses) + " miss(es) + " +
             std::to_string(CS.Hits) + " hit(s)";
    std::string Why;
    if (!functionsIdentical(Warm.F, R.F, &Why))
      return "cache replay: warm function differs from cold: " + Why;
    if (R.DiffEncoded &&
        encodedStreamHash(Warm.F, FC.Enc) != encodedStreamHash(R.F, FC.Enc))
      return "cache replay: encoded stream hash differs from cold compile";
  }

  // Allocation legally restructures code (spills, deleted moves), so the
  // end-to-end check is final-state only. The spill code multiplies the
  // dynamic count, hence the wider candidate limit; a reference run that
  // hits its own limit makes the comparison meaningless and is skipped.
  if (!Ref.HitStepLimit) {
    ExecResult Out = interpret(R.F, FC.StepLimit * 4);
    if (Out.HitStepLimit)
      return "pipeline output did not terminate within 4x the reference "
             "step budget";
    if (fingerprint(Out) != fingerprint(Ref))
      return "pipeline changed semantics: fingerprint mismatch (ret " +
             std::to_string(Ref.ReturnValue) + " vs " +
             std::to_string(Out.ReturnValue) + ")";
  }

  if (!R.DiffEncoded)
    return std::nullopt;

  // The differential core: encode -> decode must be the identity on the
  // allocated function, structurally and under the lockstep oracle.
  Function Allocated = stripSetLastReg(R.F);
  EncodedFunction E = encodeFunction(Allocated, FC.Enc);
  applyFault(E, FC.Enc, FC.Fault);

  if (!verifyDecodable(E.Annotated, FC.Enc, &Err))
    return "verifyDecodable rejected the annotated function: " + Err;

  Function Decoded = decodeFunction(E, FC.Enc);
  std::string Why;
  if (!functionsIdentical(stripSetLastReg(Decoded), Allocated, &Why))
    return "decode(encode(F)) != F: " + Why;

  OracleOptions OO;
  OO.StepLimit = FC.StepLimit * 4;
  OracleResult OR = compareLockstep(Allocated, Decoded, OO);
  if (!OR.Match)
    return "lockstep oracle (allocated vs decoded): " + OR.Divergence;

  // Structural invariants.
  if (!R.Remap.Perm.empty() &&
      !checkPermutation(R.Remap.Perm, FC.Enc, &Why))
    return "pipeline remap permutation: " + Why;

  // Interference-preservation probe: remap the allocated function once
  // more and require the interference graph to map exactly through the
  // permutation, with unchanged lockstep behaviour.
  {
    Function Probe = Allocated;
    RemapOptions RO;
    RO.NumStarts = 8;
    RO.Seed = FC.Seed ^ 0x5eedf00dULL;
    RemapResult RR = remapFunction(Probe, FC.Enc, RO);
    if (!checkPermutation(RR.Perm, FC.Enc, &Why))
      return "probe remap permutation: " + Why;
    if (!checkInterferencePreserved(Allocated, Probe, RR.Perm, &Why))
      return "interference not preserved by remap: " + Why;
    OracleResult PR = compareLockstep(Allocated, Probe, OO);
    if (!PR.Match)
      return "lockstep oracle (remap probe): " + PR.Divergence;
  }

  // Move legality is a coalescer postcondition; a portfolio case's
  // winner may come from a non-coalescing arm, so the check only applies
  // to a fixed coalesce scheme.
  if (!FC.Portfolio && FC.S == Scheme::Coalesce &&
      !checkMoveLegality(Allocated, &Why))
    return "move legality after coalesce: " + Why;

  return std::nullopt;
}

FuzzCaseResult dra::runFuzzCase(const FuzzCase &FC, size_t MinimizeBudget) {
  FuzzCaseResult Out;
  if (FC.CSrc) {
    // Frontend-sourced case: the compile itself is under test too — a
    // generated program the frontend rejects is a finding, not a skip.
    CcDiag D;
    std::optional<Function> F =
        compileCSource("cs" + std::to_string(FC.Index), FC.CSource, &D);
    if (!F) {
      Out.Ok = false;
      Out.Detail = "frontend rejected generated source: " + D.render();
      return Out;
    }
    std::optional<std::string> Failure =
        checkProgram(*F, FC, &Out.OracleDynInsts);
    Out.Program = std::move(*F);
    if (Failure) {
      // No delta debugging: ddmin mutates IR, but the repro's ground
      // truth for this variant is the embedded source text.
      Out.Ok = false;
      Out.Detail = *Failure;
    }
    return Out;
  }
  Function P = generateProgram("fz" + std::to_string(FC.Index), FC.Profile);
  std::optional<std::string> Failure =
      checkProgram(P, FC, &Out.OracleDynInsts);
  if (!Failure) {
    Out.Program = std::move(P);
    return Out;
  }

  Out.Ok = false;
  Out.Detail = *Failure;
  if (MinimizeBudget == 0) {
    Out.Program = std::move(P);
    return Out;
  }

  // Shrink under "any check still fails" — the classic ddmin predicate.
  FailPredicate Pred = [&FC](const Function &Cand) {
    return checkProgram(Cand, FC).has_value();
  };
  MinimizeResult M = minimizeProgram(P, Pred, MinimizeBudget);
  Out.Program = std::move(M.Reduced);
  Out.MinimizeSteps = M.Steps;
  if (std::optional<std::string> Reduced = checkProgram(Out.Program, FC))
    Out.Detail = *Reduced; // Report the reduced program's failure mode.
  return Out;
}
