//===- tests/classed_test.cpp - Multi-class encoding tests (S9.1) ---------===//

#include "core/AccessSequence.h"
#include "core/ClassedEncoder.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "regalloc/GraphColoring.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

/// Two classes over a 16-register machine: "int" r0..r9 and "addr"
/// r10..r15 (an artificial partition standing in for int/float files).
ClassedConfig twoClassConfig() {
  ClassedConfig C;
  RegClass Ints;
  Ints.Name = "int";
  for (RegId R = 0; R != 10; ++R)
    Ints.Members.push_back(R);
  Ints.DiffN = 8;
  Ints.DiffW = 3;
  RegClass Addrs;
  Addrs.Name = "addr";
  for (RegId R = 10; R != 16; ++R)
    Addrs.Members.push_back(R);
  Addrs.DiffN = 4;
  Addrs.DiffW = 2;
  C.Classes = {Ints, Addrs};
  return C;
}

bool sameRegisterFields(const Function &A, const Function &B) {
  if (A.Blocks.size() != B.Blocks.size())
    return false;
  for (size_t Blk = 0; Blk != A.Blocks.size(); ++Blk) {
    if (A.Blocks[Blk].Insts.size() != B.Blocks[Blk].Insts.size())
      return false;
    for (size_t I = 0; I != A.Blocks[Blk].Insts.size(); ++I) {
      const Instruction &IA = A.Blocks[Blk].Insts[I];
      const Instruction &IB = B.Blocks[Blk].Insts[I];
      if (IA.Op != IB.Op)
        return false;
      for (unsigned Fld = 0; Fld != IA.numRegFields(); ++Fld)
        if (IA.regField(Fld) != IB.regField(Fld))
          return false;
    }
  }
  return true;
}

/// A random program allocated onto 16 registers.
Function allocated16(uint64_t Seed) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = 5;
  P.TopStatements = 6;
  P.OuterTrip = 3;
  Function F = generateProgram("cl", P);
  allocateGraphColoring(F, 16);
  return F;
}

} // namespace

TEST(ClassedConfig, ValidityChecks) {
  ClassedConfig C = twoClassConfig();
  EXPECT_TRUE(C.valid(16));
  EXPECT_EQ(C.totalRegs(), 16u);
  EXPECT_EQ(C.classOf(3), 0u);
  EXPECT_EQ(C.classOf(12), 1u);
  EXPECT_EQ(C.localIndex(12), 2u);
  // Overlapping membership is rejected.
  C.Classes[1].Members.push_back(0);
  EXPECT_FALSE(C.valid(16));
  // Unassigned registers are rejected.
  ClassedConfig D = twoClassConfig();
  D.Classes[1].Members.pop_back();
  EXPECT_FALSE(D.valid(16));
}

TEST(ClassedEncoder, ClassesKeepIndependentState) {
  // Interleaved accesses to the two classes: each class's chain must be
  // differenced against its own last access, not the other class's.
  ClassedConfig C = twoClassConfig();
  Function F;
  F.NumRegs = 16;
  F.MemWords = 4;
  F.makeBlock();
  auto Mov = [&](RegId Dst, RegId Src) {
    Instruction I;
    I.Op = Opcode::Mov;
    I.Dst = Dst;
    I.Src1 = Src;
    F.Blocks[0].Insts.push_back(I);
  };
  Mov(1, 0);   // int: 0 -> 1 (diffs 0, 1 from the entry convention).
  Mov(11, 10); // addr: local 0 -> local 1.
  Mov(2, 1);   // int continues from 1, unaffected by the addr accesses.
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 2;
  F.Blocks[0].Insts.push_back(Ret);
  F.recomputeCFG();

  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  EXPECT_EQ(E.Stats.setLastTotal(), 0u);
  // mov r1, r0: codes 0 (src, diff 0 from entry), 1 (dst).
  EXPECT_EQ(E.Codes[0][0][0], 0u);
  EXPECT_EQ(E.Codes[0][0][1], 1u);
  // mov r11, r10: addr class also starts at local 0.
  EXPECT_EQ(E.Codes[0][1][0], 0u);
  EXPECT_EQ(E.Codes[0][1][1], 1u);
  // mov r2, r1: int last was r1 (local 1): codes 0, 1.
  EXPECT_EQ(E.Codes[0][2][0], 0u);
  EXPECT_EQ(E.Codes[0][2][1], 1u);
}

TEST(ClassedEncoder, OutOfRangeRepairedWithinClass) {
  ClassedConfig C = twoClassConfig(); // addr class: 6 members, DiffN 4.
  Function F;
  F.NumRegs = 16;
  F.MemWords = 4;
  F.makeBlock();
  Instruction I;
  I.Op = Opcode::Mov;
  I.Dst = 10; // local 0; from local 5 the diff is (0-5) mod 6 = 1 — fine;
  I.Src1 = 15; // first access local 5: diff from entry local 0 is 5 >= 4.
  F.Blocks[0].Insts.push_back(I);
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 10;
  F.Blocks[0].Insts.push_back(Ret);
  F.recomputeCFG();
  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  EXPECT_EQ(E.Stats.PerClass[1].SetLastRange, 1u);
  EXPECT_EQ(E.Stats.PerClass[0].SetLastRange, 0u);
  std::string Err;
  EXPECT_TRUE(verifyClassedDecodable(E.Annotated, C, &Err)) << Err;
}

TEST(ClassedEncoder, ZeroBlockFunctionIsVacuouslyDecodable) {
  // Regression: verifyClassedDecodable seeded its reachability worklist
  // with block 0 unconditionally, writing past the end of an empty vector
  // for a function with no blocks (verifyDecodable had the same defect).
  // Such a function has no register fields, so it is vacuously decodable.
  ClassedConfig C = twoClassConfig();
  Function F;
  F.NumRegs = 16;
  std::string Err;
  EXPECT_TRUE(verifyClassedDecodable(F, C, &Err)) << Err;
  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  EXPECT_TRUE(E.Annotated.Blocks.empty());
  EXPECT_TRUE(E.Codes.empty());
  EXPECT_TRUE(verifyClassedDecodable(E.Annotated, C, &Err)) << Err;
}

/// Round-trip property across random allocated programs.
class ClassedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ClassedRoundTrip, DecodeRecoversEveryField) {
  ClassedConfig C = twoClassConfig();
  Function F = allocated16(static_cast<uint64_t>(GetParam()) * 41 + 3);
  ExecResult Before = interpret(F);
  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  std::string Err;
  ASSERT_TRUE(verifyClassedDecodable(E.Annotated, C, &Err)) << Err;
  Function Decoded = decodeClassedFunction(E, C);
  EXPECT_TRUE(sameRegisterFields(Decoded, E.Annotated));
  // Codes fit each class's field width.
  for (uint32_t B = 0; B != E.Annotated.Blocks.size(); ++B)
    for (uint32_t I = 0; I != E.Annotated.Blocks[B].Insts.size(); ++I) {
      const Instruction &Inst = E.Annotated.Blocks[B].Insts[I];
      if (Inst.Op == Opcode::SetLastReg)
        continue;
      std::vector<unsigned> Fields = fieldOrder(Inst, C.Order);
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        unsigned Cls = C.classOf(Inst.regField(Fields[Pos]));
        EXPECT_LT(E.Codes[B][I][Pos], 1u << C.Classes[Cls].DiffW);
      }
    }
  // The annotation is architecturally inert.
  EXPECT_EQ(fingerprint(interpret(E.Annotated)), fingerprint(Before));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassedRoundTrip, ::testing::Range(0, 8));
