//===- tests/fuzz_test.cpp - Differential-testing harness unit tests ------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Invariants.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/Repro.h"

#include "core/Encoder.h"
#include "frontend/CSourceGen.h"
#include "frontend/Frontend.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace dra;

namespace {

/// Straight-line program: r0 = 10; r1 = r0 * 3; mem[0] = r1; ret r1.
Function simpleProgram() {
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  B.createMovImmTo(0, 10);
  Instruction Mul;
  Mul.Op = Opcode::MulI;
  Mul.Dst = 1;
  Mul.Src1 = 0;
  Mul.Imm = 3;
  F.Blocks[0].Insts.push_back(Mul);
  B.createStore(0, 0, 1);
  B.createRet(1);
  F.recomputeCFG();
  return F;
}

} // namespace

TEST(Oracle, IdenticalProgramsMatch) {
  Function F = simpleProgram();
  OracleResult R = compareLockstep(F, F);
  EXPECT_TRUE(R.Match) << R.Divergence;
}

TEST(Oracle, SetLastRegIsInvisible) {
  // The annotated function (with slr pseudo-instructions) must compare
  // equal to its stripped form: slr neither executes nor shifts the trace.
  Function F = simpleProgram();
  EncodingConfig C = lowEndConfig(12);
  EncodedFunction E = encodeFunction(F, C);
  OracleResult R = compareLockstep(F, E.Annotated);
  EXPECT_TRUE(R.Match) << R.Divergence;
}

TEST(Oracle, DetectsWrongRegisterOperand) {
  Function A = simpleProgram();
  Function B = simpleProgram();
  // Return r0 (10) instead of r1 (30): the traces agree until the final
  // state, and the return value differs.
  B.Blocks[0].Insts.back().Src1 = 0;
  OracleResult R = compareLockstep(A, B);
  EXPECT_FALSE(R.Match);
  EXPECT_FALSE(R.Divergence.empty());
}

TEST(Oracle, DetectsDivergingMemoryAccess) {
  Function A = simpleProgram();
  Function B = simpleProgram();
  B.Blocks[0].Insts[2].Imm = 1; // Store to mem[1] instead of mem[0].
  OracleResult R = compareLockstep(A, B);
  EXPECT_FALSE(R.Match);
  EXPECT_NE(R.Divergence.find("event"), std::string::npos) << R.Divergence;
}

TEST(Invariants, FunctionsIdenticalReportsFirstDifference) {
  Function A = simpleProgram();
  Function B = simpleProgram();
  EXPECT_TRUE(functionsIdentical(A, B));
  B.Blocks[0].Insts[1].Src1 = 2;
  std::string Why;
  EXPECT_FALSE(functionsIdentical(A, B, &Why));
  EXPECT_NE(Why.find("bb0[1]"), std::string::npos) << Why;
}

TEST(Invariants, PermutationChecks) {
  EncodingConfig C = lowEndConfig(12);
  std::vector<RegId> Perm(12);
  for (RegId R = 0; R != 12; ++R)
    Perm[R] = R;
  std::string Why;
  EXPECT_TRUE(checkPermutation(Perm, C, &Why)) << Why;
  Perm[3] = 4; // r4 hit twice: not a bijection.
  EXPECT_FALSE(checkPermutation(Perm, C, &Why));
  Perm[3] = 3;
  C.SpecialRegs = {11};
  C.DiffN = 7;
  std::swap(Perm[10], Perm[11]); // Special register must stay pinned.
  EXPECT_FALSE(checkPermutation(Perm, C, &Why));
  EXPECT_NE(Why.find("special"), std::string::npos) << Why;
}

TEST(Invariants, MoveLegality) {
  Function F = simpleProgram();
  std::string Why;
  EXPECT_TRUE(checkMoveLegality(F, &Why)) << Why;
  Instruction Mov;
  Mov.Op = Opcode::Mov;
  Mov.Dst = 2;
  Mov.Src1 = 2;
  F.Blocks[0].Insts.insert(F.Blocks[0].Insts.begin(), Mov);
  EXPECT_FALSE(checkMoveLegality(F, &Why));
  EXPECT_NE(Why.find("identity move"), std::string::npos) << Why;
}

TEST(Minimizer, ShrinksUnderSyntheticPredicate) {
  // Predicate: "the program still contains a Mul instruction". The
  // minimizer must slice away everything else while keeping the program
  // well-formed.
  FuzzCase FC = caseForIndex(1, 0);
  Function P = generateProgram("min", FC.Profile);
  size_t OriginalInsts = 0;
  for (const BasicBlock &BB : P.Blocks)
    OriginalInsts += BB.Insts.size();

  auto HasMul = [](const Function &F) {
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Insts)
        if (I.Op == Opcode::Mul || I.Op == Opcode::MulI)
          return true;
    return false;
  };
  ASSERT_TRUE(HasMul(P));

  MinimizeResult M = minimizeProgram(P, HasMul, 400);
  size_t ReducedInsts = 0;
  for (const BasicBlock &BB : M.Reduced.Blocks)
    ReducedInsts += BB.Insts.size();
  EXPECT_TRUE(HasMul(M.Reduced));
  EXPECT_TRUE(verifyFunction(M.Reduced));
  EXPECT_LT(ReducedInsts, OriginalInsts);
  EXPECT_GT(M.Steps, 0u);
}

TEST(FuzzCase, MatrixCoversSchemesAndConfigs) {
  std::set<std::string> Names;
  std::set<Scheme> Schemes;
  unsigned CacheReplayCases = 0;
  unsigned CSrcCases = 0;
  unsigned PortfolioCases = 0;
  for (uint64_t I = 0; I != caseMatrixSize(); ++I) {
    FuzzCase FC = caseForIndex(7, I);
    Names.insert(FC.name());
    Schemes.insert(FC.S);
    if (FC.CacheReplay) {
      ++CacheReplayCases;
      // The cache-replay variant recompiles the heaviest pipeline through
      // a warm ResultCache and is named distinctly so repros identify the
      // replay path.
      EXPECT_EQ(FC.S, Scheme::Coalesce);
      EXPECT_NE(FC.name().find("cache-replay"), std::string::npos);
    }
    if (FC.CSrc) {
      ++CSrcCases;
      // The csrc variant's program comes from the mini-C frontend: the
      // case carries the source itself and rotates the differential
      // scheme by seed.
      EXPECT_FALSE(FC.CSource.empty());
      EXPECT_NE(FC.name().find("csrc"), std::string::npos);
    }
    if (FC.Portfolio) {
      ++PortfolioCases;
      // The portfolio variant races the default arms on two workers and
      // cross-checks the winner against a sequential arm sweep.
      EXPECT_EQ(FC.PortfolioJobs, 2u);
      EXPECT_NE(FC.name().find("portfolio"), std::string::npos);
    }
  }
  // 6 config variants x 6 scheme variants (remap, select, coalesce,
  // cache-replay, csrc, portfolio); one cache-replay, one csrc and one
  // portfolio case per config variant.
  EXPECT_EQ(caseVariantCount(), 6u);
  EXPECT_EQ(caseMatrixSize(), 36u);
  EXPECT_EQ(Names.size(), caseMatrixSize());
  EXPECT_EQ(Schemes.size(), 3u);
  EXPECT_EQ(CacheReplayCases, 6u);
  EXPECT_EQ(CSrcCases, 6u);
  EXPECT_EQ(PortfolioCases, 6u);
}

TEST(FuzzCase, VariantNameIsPureInIndex) {
  // caseVariantName drives --only filtering: it must agree with the
  // variant slot caseForIndex assigns, for any index.
  static const char *Expected[6] = {"remap",        "select",
                                    "coalesce",     "cache-replay",
                                    "csrc",         "portfolio"};
  for (uint64_t I = 0; I != 15; ++I) {
    EXPECT_STREQ(caseVariantName(I), Expected[I % 6]) << "index " << I;
    FuzzCase FC = caseForIndex(5, I);
    EXPECT_NE(FC.name().find(caseVariantName(I)), std::string::npos)
        << FC.name();
  }
}

TEST(FuzzCase, DeterministicDerivation) {
  FuzzCase A = caseForIndex(42, 5);
  FuzzCase B = caseForIndex(42, 5);
  EXPECT_EQ(A.Seed, B.Seed);
  EXPECT_EQ(A.name(), B.name());
  EXPECT_EQ(A.Profile.TopStatements, B.Profile.TopStatements);
  // Different indices give decorrelated seeds.
  EXPECT_NE(A.Seed, caseForIndex(42, 6).Seed);
}

TEST(Repro, RoundTripsCaseAndProgram) {
  // Index 24 is a remap case under config variant 4 (24 / 6 == 4:
  // vliw32-dst), so the enc directive round-trips a non-default order.
  FuzzCase FC = caseForIndex(9, 24);
  ASSERT_EQ(FC.S, Scheme::Remap);
  ASSERT_EQ(FC.Enc.Order, AccessOrder::DstFirst);
  FC.Fault = InjectFault::CorruptFieldCode;
  Function P = generateProgram("rt", FC.Profile);

  std::string Text = writeRepro(FC, P);
  FuzzCase Loaded;
  Function Q;
  std::string Err;
  ASSERT_TRUE(loadRepro(Text, Loaded, Q, &Err)) << Err;
  EXPECT_EQ(Loaded.Seed, FC.Seed);
  EXPECT_EQ(Loaded.Index, FC.Index);
  EXPECT_EQ(Loaded.S, FC.S);
  EXPECT_EQ(Loaded.StepLimit, FC.StepLimit);
  EXPECT_EQ(Loaded.Fault, FC.Fault);
  EXPECT_EQ(Loaded.Enc.RegN, FC.Enc.RegN);
  EXPECT_EQ(Loaded.Enc.DiffN, FC.Enc.DiffN);
  EXPECT_EQ(Loaded.Enc.Order, FC.Enc.Order);
  EXPECT_EQ(Loaded.Enc.SpecialRegs, FC.Enc.SpecialRegs);
  EXPECT_EQ(printFunction(Q), printFunction(P));
}

TEST(Repro, RoundTripsCacheReplayFlag) {
  // Index 27 is a cache-replay case (27 % 6 == 3): the flag must survive
  // the directive round trip, or a replayed repro would silently skip the
  // warm-cache comparison.
  FuzzCase FC = caseForIndex(9, 27);
  ASSERT_TRUE(FC.CacheReplay);
  Function P = generateProgram("cr", FC.Profile);
  std::string Text = writeRepro(FC, P);
  EXPECT_NE(Text.find("# cachereplay: 1"), std::string::npos);
  FuzzCase Loaded;
  Function Q;
  std::string Err;
  ASSERT_TRUE(loadRepro(Text, Loaded, Q, &Err)) << Err;
  EXPECT_TRUE(Loaded.CacheReplay);
  EXPECT_EQ(Loaded.S, FC.S);

  // And the default stays off when the directive is absent (old repros).
  FuzzCase Plain = caseForIndex(9, 0);
  ASSERT_FALSE(Plain.CacheReplay);
  ASSERT_TRUE(loadRepro(writeRepro(Plain, P), Loaded, Q, &Err)) << Err;
  EXPECT_FALSE(Loaded.CacheReplay);
}

TEST(Repro, RoundTripsCSource) {
  // Index 28 is a csrc case (28 % 6 == 4): the mini-C source is the
  // ground truth of the case, so every line must survive the `# csrc:`
  // directive round trip byte for byte — including indentation, which a
  // token-based reader would eat.
  FuzzCase FC = caseForIndex(9, 28);
  ASSERT_TRUE(FC.CSrc);
  ASSERT_FALSE(FC.CSource.empty());
  CcDiag D;
  std::optional<Function> F = compileCSource("rtcs", FC.CSource, &D);
  ASSERT_TRUE(F.has_value()) << D.render();

  std::string Text = writeRepro(FC, *F);
  EXPECT_NE(Text.find("# csrc: "), std::string::npos);
  FuzzCase Loaded;
  Function Q;
  std::string Err;
  ASSERT_TRUE(loadRepro(Text, Loaded, Q, &Err)) << Err;
  EXPECT_TRUE(Loaded.CSrc);
  EXPECT_EQ(Loaded.CSource, FC.CSource);
  // The IR body is informational but still round-trips.
  EXPECT_EQ(printFunction(Q), printFunction(*F));

  // Non-csrc repros must not grow the directive or set the flag.
  FuzzCase Plain = caseForIndex(9, 0);
  ASSERT_FALSE(Plain.CSrc);
  Function P = generateProgram("rt", Plain.Profile);
  std::string PlainText = writeRepro(Plain, P);
  EXPECT_EQ(PlainText.find("# csrc:"), std::string::npos);
  ASSERT_TRUE(loadRepro(PlainText, Loaded, Q, &Err)) << Err;
  EXPECT_FALSE(Loaded.CSrc);
  EXPECT_TRUE(Loaded.CSource.empty());
}

TEST(Repro, RoundTripsPortfolioDirective) {
  // Index 29 is a portfolio case (29 % 6 == 5): the race config must
  // survive the `# portfolio:` directive round trip, or a replayed repro
  // would silently degrade to a plain coalesce compile.
  FuzzCase FC = caseForIndex(9, 29);
  ASSERT_TRUE(FC.Portfolio);
  ASSERT_EQ(FC.PortfolioJobs, 2u);
  Function P = generateProgram("pf", FC.Profile);
  std::string Text = writeRepro(FC, P);
  EXPECT_NE(Text.find("# portfolio: race jobs=2"), std::string::npos);
  FuzzCase Loaded;
  Function Q;
  std::string Err;
  ASSERT_TRUE(loadRepro(Text, Loaded, Q, &Err)) << Err;
  EXPECT_TRUE(Loaded.Portfolio);
  EXPECT_EQ(Loaded.PortfolioJobs, 2u);
  EXPECT_EQ(printFunction(Q), printFunction(P));

  // And the default stays off when the directive is absent (old repros).
  FuzzCase Plain = caseForIndex(9, 0);
  ASSERT_FALSE(Plain.Portfolio);
  std::string PlainText = writeRepro(Plain, P);
  EXPECT_EQ(PlainText.find("# portfolio:"), std::string::npos);
  ASSERT_TRUE(loadRepro(PlainText, Loaded, Q, &Err)) << Err;
  EXPECT_FALSE(Loaded.Portfolio);
}

TEST(Repro, RejectsMalformedPortfolioDirective) {
  const char *Magic = "# dra-fuzz repro v1\n";
  FuzzCase FC;
  Function P;
  std::string Err;
  // Unknown mode token.
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# portfolio: turbo jobs=2\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("portfolio mode"), std::string::npos) << Err;
  // Zero jobs.
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# portfolio: race jobs=0\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("jobs"), std::string::npos) << Err;
  // Non-numeric / trailing-garbage jobs.
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# portfolio: race jobs=2x\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("jobs"), std::string::npos) << Err;
  // A bare token without '='.
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# portfolio: race fast\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("portfolio token"), std::string::npos) << Err;
  // Unknown key=value tokens are ignored (forward compatibility).
  FuzzCase Base = caseForIndex(3, 2);
  Function Prog = generateProgram("pt", Base.Profile);
  std::string Text = writeRepro(Base, Prog);
  Text.insert(Text.find('\n') + 1, "# portfolio: race jobs=3 flux=88\n");
  ASSERT_TRUE(loadRepro(Text, FC, P, &Err)) << Err;
  EXPECT_TRUE(FC.Portfolio);
  EXPECT_EQ(FC.PortfolioJobs, 3u);
}

TEST(Repro, RejectsGarbage) {
  FuzzCase FC;
  Function P;
  std::string Err;
  EXPECT_FALSE(loadRepro("not a repro", FC, P, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Repro, RejectsTruncatedHeader) {
  // A file cut off before the magic line must not load, even when the
  // remaining directives look plausible.
  FuzzCase FC;
  Function P;
  std::string Err;
  EXPECT_FALSE(loadRepro("", FC, P, &Err));
  EXPECT_NE(Err.find("header"), std::string::npos) << Err;
  EXPECT_FALSE(
      loadRepro("# seed: 12\n# index: 3\n# scheme: remap\n", FC, P, &Err));
  EXPECT_NE(Err.find("header"), std::string::npos) << Err;
}

TEST(Repro, IgnoresUnknownDirectives) {
  // Unknown directives are informational by contract (forward
  // compatibility): a repro from a newer harness still loads, and so does
  // one from an older harness that wrote the retired remapjobs directive.
  FuzzCase FC = caseForIndex(3, 2);
  Function P = generateProgram("ud", FC.Profile);
  std::string Text = writeRepro(FC, P);
  size_t AfterMagic = Text.find('\n') + 1;
  Text.insert(AfterMagic,
              "# flux-capacitor: 88\n# case: renamed\n# remapjobs: 3\n");
  FuzzCase Loaded;
  Function Q;
  std::string Err;
  ASSERT_TRUE(loadRepro(Text, Loaded, Q, &Err)) << Err;
  EXPECT_EQ(Loaded.Seed, FC.Seed);
  EXPECT_EQ(printFunction(Q), printFunction(P));
}

TEST(Repro, RejectsGarbageBody) {
  // Valid directives, rubbish IR: the function parser's diagnostic must
  // surface through loadRepro instead of a crash or a silent default.
  std::string Text = "# dra-fuzz repro v1\n"
                     "# seed: 7\n"
                     "# scheme: coalesce\n"
                     "func @x {\n  this is not ir\n}\n";
  FuzzCase FC;
  Function P;
  std::string Err;
  EXPECT_FALSE(loadRepro(Text, FC, P, &Err));
  EXPECT_NE(Err.find("repro:"), std::string::npos) << Err;
}

TEST(Repro, RejectsMalformedDirectiveValues) {
  const char *Magic = "# dra-fuzz repro v1\n";
  FuzzCase FC;
  Function P;
  std::string Err;
  // Unknown scheme name.
  EXPECT_FALSE(loadRepro(std::string(Magic) + "# scheme: turbo\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("scheme"), std::string::npos) << Err;
  // Out-of-range cache-replay flag.
  EXPECT_FALSE(loadRepro(std::string(Magic) + "# cachereplay: 2\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("cachereplay"), std::string::npos) << Err;
  // Malformed enc token.
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# enc: regn=twelve diffn=8\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("enc"), std::string::npos) << Err;
  // Enc config that parses but cannot encode (DiffN > 2^DiffW).
  EXPECT_FALSE(loadRepro(std::string(Magic) +
                             "# enc: regn=12 diffn=9 diffw=3\nret r0\n",
                         FC, P, &Err));
  EXPECT_NE(Err.find("invalid"), std::string::npos) << Err;
}

TEST(Harness, CleanCasesPass) {
  // The first six sweep cases (one per scheme variant, including
  // cache-replay, csrc and portfolio) must pass end to end — the same
  // guarantee the CI smoke job checks at larger scale.
  for (uint64_t I = 0; I != caseVariantCount(); ++I) {
    FuzzCase FC = caseForIndex(1, I);
    FuzzCaseResult R = runFuzzCase(FC, /*MinimizeBudget=*/0);
    EXPECT_TRUE(R.Ok) << FC.name() << ": " << R.Detail;
  }
}

TEST(Harness, InjectedFaultIsCaughtAndMinimized) {
  // Mutation test: a deliberately corrupted encoder output must be
  // caught, and the minimizer must shrink the witness program.
  FuzzCase FC = caseForIndex(1, 0);
  FC.Fault = InjectFault::CorruptFieldCode;
  FuzzCaseResult R = runFuzzCase(FC, /*MinimizeBudget=*/120);
  ASSERT_FALSE(R.Ok);
  EXPECT_FALSE(R.Detail.empty());
  EXPECT_GT(R.MinimizeSteps, 0u);
  // The minimized program still fails the same case deterministically —
  // the property --repro replay relies on.
  std::optional<std::string> Again = checkProgram(R.Program, FC);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(*Again, R.Detail);
}

TEST(Harness, DroppedJoinRepairIsCaught) {
  // Find a sweep case whose encoding actually inserts a join repair, then
  // drop it: verifyDecodable (or the decode comparison) must object.
  for (uint64_t I = 0; I != 12; ++I) {
    FuzzCase FC = caseForIndex(1, I);
    Function P = generateProgram("dj", FC.Profile);
    PipelineConfig Cfg;
    Cfg.S = FC.S;
    Cfg.Enc = FC.Enc;
    Cfg.Remap.NumStarts = 10;
    PipelineResult PR = runPipeline(P, Cfg);
    if (!PR.DiffEncoded)
      continue;
    EncodedFunction E = encodeFunction(stripSetLastReg(PR.F), FC.Enc);
    if (E.Stats.SetLastJoin == 0)
      continue;
    FC.Fault = InjectFault::DropJoinRepair;
    std::optional<std::string> Failure = checkProgram(P, FC);
    ASSERT_TRUE(Failure.has_value())
        << FC.name() << ": dropped join repair went unnoticed";
    return;
  }
  GTEST_SKIP() << "no sweep case with a join repair in the first 12";
}

TEST(Harness, CSrcGenerationIsDeterministic) {
  // csrc ground truth is (seed -> source): parallel and serial sweeps,
  // and repro replay, all assume regeneration is bit-identical.
  CSourceProfile P1 = csrcProfileFor(17);
  CSourceProfile P2 = csrcProfileFor(17);
  EXPECT_EQ(P1.NumHelpers, P2.NumHelpers);
  EXPECT_EQ(P1.MaxLoopTrip, P2.MaxLoopTrip);
  EXPECT_EQ(generateCSource(P1), generateCSource(P2));
  // Different seeds decorrelate the source.
  EXPECT_NE(generateCSource(P1), generateCSource(csrcProfileFor(18)));
}

TEST(Harness, CSrcGeneratedSourcesCompile) {
  // Every generated source must make it through the frontend: a csrc
  // case that fails to compile is a generator bug, and the sweep treats
  // it as a failure rather than skipping it silently.
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    std::string Src = generateCSource(csrcProfileFor(Seed));
    CcDiag D;
    std::optional<Function> F = compileCSource("gen", Src, &D);
    ASSERT_TRUE(F.has_value()) << "seed " << Seed << ": " << D.render()
                               << "\n" << Src;
    EXPECT_TRUE(verifyFunction(*F));
  }
}

TEST(Harness, PortfolioInjectedFaultIsCaught) {
  // Mutation test for the portfolio axis: the raced winner goes through
  // the same encode/decode oracle, so a corrupted encoder must still be
  // caught when the compile came out of a race.
  FuzzCase FC = caseForIndex(1, 5); // 5 % 6 == 5: portfolio.
  ASSERT_TRUE(FC.Portfolio);
  FC.Fault = InjectFault::CorruptFieldCode;
  FuzzCaseResult R = runFuzzCase(FC, /*MinimizeBudget=*/0);
  ASSERT_FALSE(R.Ok);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(Harness, CSrcInjectedFaultIsCaught) {
  // Mutation test for the csrc axis: the frontend-shaped program must
  // still catch a corrupted encoder, or the new variant isn't guarding
  // anything ProgramGen doesn't already cover.
  FuzzCase FC = caseForIndex(1, 4); // 4 % 6 == 4: csrc.
  ASSERT_TRUE(FC.CSrc);
  FC.Fault = InjectFault::CorruptFieldCode;
  FuzzCaseResult R = runFuzzCase(FC);
  ASSERT_FALSE(R.Ok);
  EXPECT_FALSE(R.Detail.empty());
  // csrc failures skip delta debugging: the source is the repro.
  EXPECT_EQ(R.MinimizeSteps, 0u);
}
