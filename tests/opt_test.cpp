//===- tests/opt_test.cpp - SimplifyCfg + ConstantFold tests --------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "opt/ConstantFold.h"
#include "opt/DeadCode.h"
#include "opt/SimplifyCfg.h"
#include "workloads/MiBench.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(SimplifyCfg, MergesJumpChains) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t B1 = F.makeBlock();
  uint32_t B2 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(1);
  B.createJmp(B1);
  B.setBlock(B1);
  RegId W = B.createBinImm(Opcode::AddI, V, 2);
  B.createJmp(B2);
  B.setBlock(B2);
  B.createRet(W);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.BlocksMerged, 2u);
  EXPECT_EQ(F.Blocks.size(), 1u);
  EXPECT_EQ(interpret(F).ReturnValue, 3);
}

TEST(SimplifyCfg, FoldsSameTargetBranch) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t B1 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(1);
  B.createBr(V, B1, B1);
  B.setBlock(B1);
  B.createRet(V);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.BranchesFolded, 1u);
  // Folding the branch makes B1 single-pred-merged too.
  EXPECT_EQ(F.Blocks.size(), 1u);
}

TEST(SimplifyCfg, RemovesUnreachable) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t Dead = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId V = B.createMovImm(4);
  B.createRet(V);
  B.setBlock(Dead);
  B.createRet(V);
  F.recomputeCFG();
  SimplifyCfgStats S = simplifyCfg(F);
  EXPECT_EQ(S.UnreachableRemoved, 1u);
  EXPECT_EQ(F.Blocks.size(), 1u);
  (void)Dead;
}

TEST(SimplifyCfg, KeepsLoops) {
  Function F;
  F.MemWords = 4;
  uint32_t Entry = F.makeBlock();
  uint32_t Body = F.makeBlock();
  uint32_t Exit = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(Entry);
  RegId I = B.createMovImm(5);
  B.createJmp(Body);
  B.setBlock(Body);
  B.createBinImmTo(Opcode::AddI, I, I, -1);
  B.createBr(I, Body, Exit);
  B.setBlock(Exit);
  B.createRet(I);
  F.recomputeCFG();
  int64_t Before = interpret(F).ReturnValue;
  simplifyCfg(F);
  EXPECT_EQ(interpret(F).ReturnValue, Before);
  // The loop body cannot merge into the entry (two predecessors).
  EXPECT_GE(F.Blocks.size(), 2u);
}

TEST(ConstantFold, FoldsArithmeticChains) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId A = B.createMovImm(6);
  RegId C = B.createMovImm(7);
  RegId D = B.createBin(Opcode::Mul, A, C);  // 42, foldable.
  RegId E2 = B.createBinImm(Opcode::AddI, D, -2); // 40, foldable.
  B.createRet(E2);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 2u);
  EXPECT_EQ(F.Blocks[0].Insts[2].Op, Opcode::MovI);
  EXPECT_EQ(F.Blocks[0].Insts[2].Imm, 42);
  EXPECT_EQ(interpret(F).ReturnValue, 40);
}

TEST(ConstantFold, WrapsAtInt64ExtremesLikeTheInterpreter) {
  // Each operation at an INT64 extreme folds to the value the interpreter
  // computes for it: both wrap in two's complement.
  struct Case {
    Opcode Op;
    int64_t A, C;
    int64_t Wrapped;
  };
  for (const Case &K : {Case{Opcode::Add, INT64_MAX, 1, INT64_MIN},
                        Case{Opcode::Sub, INT64_MIN, 1, INT64_MAX},
                        Case{Opcode::Mul, INT64_MAX, 2, -2},
                        Case{Opcode::Mul, INT64_MIN, -1, INT64_MIN},
                        Case{Opcode::AddI, INT64_MIN, -1, INT64_MAX},
                        Case{Opcode::MulI, INT64_MIN, -1, INT64_MIN}}) {
    Function F;
    F.MemWords = 4;
    F.makeBlock();
    IRBuilder B(F);
    B.setBlock(0);
    RegId A = B.createMovImm(K.A);
    RegId R = K.Op == Opcode::AddI || K.Op == Opcode::MulI
                  ? B.createBinImm(K.Op, A, K.C)
                  : B.createBin(K.Op, A, B.createMovImm(K.C));
    B.createRet(R);
    F.recomputeCFG();
    int64_t Interpreted = interpret(F).ReturnValue;
    EXPECT_EQ(Interpreted, K.Wrapped) << opcodeName(K.Op);
    ConstantFoldStats S = foldConstants(F);
    EXPECT_EQ(S.InstsFolded, 1u) << opcodeName(K.Op);
    const Instruction &Folded = F.Blocks[0].Insts[F.Blocks[0].Insts.size() - 2];
    EXPECT_EQ(Folded.Op, Opcode::MovI) << opcodeName(K.Op);
    EXPECT_EQ(Folded.Imm, Interpreted) << opcodeName(K.Op);
  }
}

TEST(ConstantFold, FoldsKnownBranch) {
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t TrueB = F.makeBlock();
  uint32_t FalseB = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId Z = B.createMovImm(0);
  B.createBr(Z, TrueB, FalseB);
  B.setBlock(TrueB);
  B.createRet(B.createMovImm(1));
  B.setBlock(FalseB);
  B.createRet(B.createMovImm(2));
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.BranchesFolded, 1u);
  EXPECT_EQ(F.Blocks[B0].Insts.back().Op, Opcode::Jmp);
  EXPECT_EQ(interpret(F).ReturnValue, 2);
}

TEST(ConstantFold, UnknownOperandsUntouched) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId X = B.createLoad(B.createMovImm(0), 0); // Unknown value.
  RegId Y = B.createBinImm(Opcode::AddI, X, 1);
  B.createRet(Y);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 0u);
  EXPECT_EQ(F.Blocks[0].Insts[2].Op, Opcode::AddI);
}

TEST(ConstantFold, RedefinitionInvalidates) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId A = B.createMovImm(1);
  RegId Addr = B.createMovImm(0);
  Instruction Ld; // A = load(...) — A is no longer the constant 1.
  Ld.Op = Opcode::Load;
  Ld.Dst = A;
  Ld.Src1 = Addr;
  F.Blocks[0].Insts.push_back(Ld);
  RegId C = B.createBinImm(Opcode::AddI, A, 1);
  B.createRet(C);
  F.recomputeCFG();
  ConstantFoldStats S = foldConstants(F);
  EXPECT_EQ(S.InstsFolded, 0u);
}

/// The full cleanup pipeline (fold -> simplify -> DCE) preserves semantics
/// on whole benchmark programs.
class CleanupPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(CleanupPipeline, PreservesSemantics) {
  Function F = miBenchProgram(GetParam());
  ExecResult Before = interpret(F);
  foldConstants(F);
  simplifyCfg(F);
  eliminateDeadCode(F);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, &Err)) << Err;
  ExecResult After = interpret(F);
  EXPECT_EQ(fingerprint(Before), fingerprint(After));
}

INSTANTIATE_TEST_SUITE_P(Suite, CleanupPipeline,
                         ::testing::Values("crc32", "qsort", "dijkstra",
                                           "stringsearch", "patricia"));
