//===- tests/coalesce_test.cpp - Optimal spill + diff coalesce tests ------===//

#include "analysis/Liveness.h"
#include "core/DiffCoalesce.h"
#include "core/OptimalSpill.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

Function pressureProgram(uint64_t Seed, unsigned Pool) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = Pool;
  P.TopStatements = 6;
  P.OuterTrip = 3;
  return generateProgram("c", P);
}

unsigned maxPressureOf(const Function &F) {
  Function Copy = F;
  Copy.recomputeCFG();
  return Liveness::compute(Copy).maxPressure(Copy);
}

} // namespace

TEST(OptimalSpill, NoopWhenPressureFits) {
  Function F = pressureProgram(1, 3);
  size_t InstsBefore = F.numInsts();
  OptimalSpillResult R = optimalSpill(F, 16);
  EXPECT_EQ(R.SpilledRanges, 0u);
  EXPECT_EQ(F.numInsts(), InstsBefore);
}

TEST(OptimalSpill, ReducesPressureBelowK) {
  Function F = pressureProgram(2, 12);
  ASSERT_GT(maxPressureOf(F), 8u);
  ExecResult Before = interpret(F);
  OptimalSpillResult R = optimalSpill(F, 8);
  EXPECT_GT(R.SpilledRanges, 0u);
  EXPECT_LE(maxPressureOf(F), 8u);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(F)), fingerprint(Before));
}

TEST(OptimalSpill, SpillsFewerRangesThanPressureExcess) {
  // The ILP should spill a targeted set, not everything live.
  Function F = pressureProgram(3, 11);
  uint32_t TotalRanges = F.NumRegs;
  OptimalSpillResult R = optimalSpill(F, 8);
  EXPECT_LT(R.SpilledRanges, TotalRanges / 4);
}

TEST(OptimalSpill, HigherKSpillsLess) {
  Function A = pressureProgram(4, 12);
  Function B = A;
  OptimalSpillResult R8 = optimalSpill(A, 8);
  OptimalSpillResult R12 = optimalSpill(B, 12);
  EXPECT_LE(R12.SpilledRanges, R8.SpilledRanges);
  EXPECT_LE(B.numSpillInsts(), A.numSpillInsts());
}

TEST(DiffCoalesce, ColorsWithinRegN) {
  EncodingConfig C = lowEndConfig(12);
  Function F = pressureProgram(5, 8);
  optimalSpill(F, C.RegN);
  ExecResult Before = interpret(F);
  CoalesceResult R = coalesceAndColor(F, C);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(F.NumRegs, C.RegN);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(F)), fingerprint(Before));
}

TEST(DiffCoalesce, CoalescesMovesWhenPossible) {
  EncodingConfig C = lowEndConfig(12);
  ProgramProfile P;
  P.Seed = 6;
  P.PressureVars = 5;
  P.TopStatements = 8;
  P.OuterTrip = 3;
  P.MovePct = 20;
  Function F = generateProgram("cm", P);
  size_t MovesBefore = 0;
  for (const BasicBlock &BB : F.Blocks)
    for (const Instruction &I : BB.Insts)
      MovesBefore += I.Op == Opcode::Mov;
  ASSERT_GT(MovesBefore, 0u);
  optimalSpill(F, C.RegN);
  CoalesceResult R = coalesceAndColor(F, C);
  ASSERT_TRUE(R.Success);
  // Most assignment moves have dead targets and coalesce away.
  EXPECT_GT(R.MovesCoalesced + (MovesBefore - R.MovesRemaining), 0u);
  EXPECT_LT(R.MovesRemaining, MovesBefore);
}

TEST(DiffCoalesce, NonDiffModeIgnoresAdjacency) {
  // O-spill arm: DiffAware = false must still produce a valid coloring.
  EncodingConfig C;
  C.RegN = 8;
  C.DiffN = 8;
  C.DiffW = 3;
  Function F = pressureProgram(7, 10);
  optimalSpill(F, 8);
  ExecResult Before = interpret(F);
  CoalesceResult R = coalesceAndColor(F, C, /*DiffAware=*/false);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(F.NumRegs, 8u);
  EXPECT_EQ(fingerprint(interpret(F)), fingerprint(Before));
}

TEST(DiffCoalesce, ExtraSpillFallbackKeepsSemantics) {
  // Tight K with high pressure exercises the uncolorable -> spill path.
  EncodingConfig C;
  C.RegN = 6;
  C.DiffN = 4;
  C.DiffW = 2;
  Function F = pressureProgram(8, 10);
  optimalSpill(F, 6);
  ExecResult Before = interpret(F);
  CoalesceResult R = coalesceAndColor(F, C);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(fingerprint(interpret(F)), fingerprint(Before));
}

/// Property sweep: the full optimal-spill + coalesce pipeline preserves
/// semantics and respects RegN across seeds.
class CoalescePipelineRandom : public ::testing::TestWithParam<int> {};

TEST_P(CoalescePipelineRandom, EndToEnd) {
  EncodingConfig C = lowEndConfig(12);
  Function F =
      pressureProgram(static_cast<uint64_t>(GetParam()) * 101 + 9, 9);
  ExecResult Before = interpret(F);
  optimalSpill(F, C.RegN);
  CoalesceResult R = coalesceAndColor(F, C);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(F.NumRegs, C.RegN);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(F)), fingerprint(Before));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePipelineRandom,
                         ::testing::Range(0, 8));
