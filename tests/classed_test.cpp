//===- tests/classed_test.cpp - Multi-class encoding tests (S9.1) ---------===//

#include "core/AccessSequence.h"
#include "core/ClassedEncoder.h"
#include "core/Encoder.h"
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

/// A random program allocated onto \p K registers.
Function allocated(uint64_t Seed, unsigned K) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = 5;
  P.TopStatements = 6;
  P.OuterTrip = 3;
  Function F = generateProgram("cl", P);
  allocateGraphColoring(F, K);
  return F;
}

Instruction mov(RegId Dst, RegId Src) {
  Instruction I;
  I.Op = Opcode::Mov;
  I.Dst = Dst;
  I.Src1 = Src;
  return I;
}

Instruction jmp(uint32_t Target) {
  Instruction I;
  I.Op = Opcode::Jmp;
  I.Target0 = Target;
  return I;
}

Instruction ret(RegId Src) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.Src1 = Src;
  return I;
}

Instruction slr(RegId Value, uint32_t Delay) {
  Instruction I;
  I.Op = Opcode::SetLastReg;
  I.Imm = Value;
  I.Aux = Delay;
  return I;
}

/// A 16-register function with \p NumBlocks empty blocks.
Function blocks16(unsigned NumBlocks) {
  Function F;
  F.NumRegs = 16;
  F.MemWords = 4;
  for (unsigned B = 0; B != NumBlocks; ++B)
    F.makeBlock();
  return F;
}

size_t setLastRegsIn(const BasicBlock &BB) {
  size_t N = 0;
  for (const Instruction &I : BB.Insts)
    N += I.Op == Opcode::SetLastReg;
  return N;
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

TEST(ClassedEncoder, VerifyRejectsDelayedSlrThatNeverApplies) {
  // The decoder drops a pending delayed set_last_reg after the next
  // instruction, so a delay at or past that instruction's field count
  // never applies, and one at block end has no instruction to apply at.
  // Both must be rejected, as verifyDecodable rejects them.
  ClassedConfig C = twoClassConfig();
  std::string Err;

  Function OverDelayed = blocks16(1);
  OverDelayed.Blocks[0].Insts = {slr(12, 2), ret(0)}; // ret has 1 field.
  OverDelayed.recomputeCFG();
  EXPECT_FALSE(verifyClassedDecodable(OverDelayed, C, &Err));
  EXPECT_NE(Err.find("never applies"), std::string::npos) << Err;

  Function Dangling = blocks16(1);
  Dangling.Blocks[0].Insts = {mov(1, 0), slr(12, 1)};
  Dangling.recomputeCFG();
  EXPECT_FALSE(verifyClassedDecodable(Dangling, C, &Err));
  EXPECT_NE(Err.find("dangles"), std::string::npos) << Err;
}

TEST(ClassedEncoder, UnreachablePredecessorDoesNotForceJoinRepair) {
  // bb2 is a join of bb0 and the unreachable bb1, which leaves the addr
  // class at a different register. Execution never arrives through bb1,
  // so bb2 needs no repair. bb1 itself enters every class unknown and
  // gets one repair per class.
  ClassedConfig C = twoClassConfig();
  Function F = blocks16(3);
  F.Blocks[0].Insts = {mov(1, 0), mov(11, 10), jmp(2)};
  F.Blocks[1].Insts = {mov(13, 12), jmp(2)};
  F.Blocks[2].Insts = {mov(12, 11), ret(1)};
  F.recomputeCFG();
  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  EXPECT_EQ(setLastRegsIn(E.Annotated.Blocks[2]), 0u);
  EXPECT_EQ(setLastRegsIn(E.Annotated.Blocks[1]), 2u);
  EXPECT_EQ(E.Stats.PerClass[0].SetLastJoin, 1u);
  EXPECT_EQ(E.Stats.PerClass[1].SetLastJoin, 1u);
  std::string Err;
  ASSERT_TRUE(verifyClassedDecodable(E.Annotated, C, &Err)) << Err;
  EXPECT_TRUE(sameRegisterFields(decodeClassedFunction(E, C), E.Annotated));
}

TEST(ClassedEncoder, AmbiguousClassRepairedAtHeadEvenIfUnaccessed) {
  // The arms of a diamond leave the addr class at r11 and r12; the join
  // only reads the int class. The addr class is still repaired at the
  // join head, aimed at its member 0 (the one-class encoder repairs every
  // ambiguous block head the same way).
  ClassedConfig C = twoClassConfig();
  Function F = blocks16(4);
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Src1 = 0;
  Br.Target0 = 1;
  Br.Target1 = 2;
  F.Blocks[0].Insts = {Br};
  F.Blocks[1].Insts = {mov(11, 10), jmp(3)};
  F.Blocks[2].Insts = {mov(12, 10), jmp(3)};
  F.Blocks[3].Insts = {ret(0)};
  F.recomputeCFG();
  ClassedEncodedFunction E = encodeClassedFunction(F, C);
  EXPECT_EQ(E.Stats.PerClass[0].SetLastJoin, 0u);
  EXPECT_EQ(E.Stats.PerClass[1].SetLastJoin, 1u);
  const Instruction &Head = E.Annotated.Blocks[3].Insts.front();
  EXPECT_EQ(Head.Op, Opcode::SetLastReg);
  EXPECT_EQ(Head.Imm, 10);
  std::string Err;
  EXPECT_TRUE(verifyClassedDecodable(E.Annotated, C, &Err)) << Err;
}

/// Round-trip property across random allocated programs.
class ClassedRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ClassedRoundTrip, DecodeRecoversEveryField) {
  ClassedConfig C = twoClassConfig();
  Function F = allocated(static_cast<uint64_t>(GetParam()) * 41 + 3, 16);
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

TEST_P(ClassedRoundTrip, OneClassPartitionMatchesEncodeFunction) {
  // The one-class partition of r0..r11 is the low-end configuration, so
  // both entry points must produce the same annotations, codes, stats and
  // decode.
  ClassedConfig C;
  RegClass All;
  All.Name = "all";
  for (RegId R = 0; R != 12; ++R)
    All.Members.push_back(R);
  C.Classes = {All};
  EncodingConfig Low = lowEndConfig(12);
  Function F = allocated(static_cast<uint64_t>(GetParam()) * 41 + 3, 12);
  ClassedEncodedFunction CE = encodeClassedFunction(F, C);
  EncodedFunction E = encodeFunction(F, Low);
  EXPECT_EQ(printFunction(CE.Annotated), printFunction(E.Annotated));
  EXPECT_EQ(CE.Codes, E.Codes);
  ASSERT_EQ(CE.Stats.PerClass.size(), 1u);
  const EncodeStats &S = CE.Stats.PerClass[0];
  EXPECT_EQ(S.SetLastJoin, E.Stats.SetLastJoin);
  EXPECT_EQ(S.SetLastRange, E.Stats.SetLastRange);
  EXPECT_EQ(S.NumInsts, E.Stats.NumInsts);
  EXPECT_EQ(S.FieldBits, E.Stats.FieldBits);
  EXPECT_EQ(S.NumFields, E.Stats.NumFields);
  EXPECT_EQ(printFunction(decodeClassedFunction(CE, C)),
            printFunction(decodeFunction(E, Low)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassedRoundTrip, ::testing::Range(0, 8));
