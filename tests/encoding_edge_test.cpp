//===- tests/encoding_edge_test.cpp - Encoder edge cases ------------------===//

#include "core/Encoder.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "regalloc/GraphColoring.h"
#include "sim/LowEndSim.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

/// Diamond whose arms leave different last_reg values.
Function divergingDiamond() {
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t BThen = F.makeBlock();
  uint32_t BElse = F.makeBlock();
  uint32_t BJoin = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Src1 = 0;
  Br.Target0 = BThen;
  Br.Target1 = BElse;
  F.Blocks[B0].Insts.push_back(Br);
  B.setBlock(BThen);
  B.createMovImmTo(3, 1);
  B.createJmp(BJoin);
  B.setBlock(BElse);
  B.createMovImmTo(5, 2);
  B.createJmp(BJoin);
  B.setBlock(BJoin);
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 4;
  F.Blocks[BJoin].Insts.push_back(Ret);
  F.recomputeCFG();
  return F;
}

} // namespace

TEST(EncoderEdge, JoinRepairNeededEvenWhenEveryDiffFits) {
  // With DiffN == RegN every difference is representable, yet a join whose
  // predecessors disagree still needs a set_last_reg: the *encoded code*
  // fixes one difference value, and decoding from the other predecessor
  // would produce a different register.
  EncodingConfig C;
  C.RegN = 8;
  C.DiffN = 8;
  C.DiffW = 3;
  ASSERT_TRUE(C.valid());
  Function F = divergingDiamond();
  F.NumRegs = 8;
  for (BasicBlock &BB : F.Blocks)
    for (Instruction &I : BB.Insts)
      for (unsigned Fld = 0; Fld != I.numRegFields(); ++Fld)
        I.setRegField(Fld, I.regField(Fld) % 8);
  EncodedFunction E = encodeFunction(F, C);
  EXPECT_EQ(E.Stats.SetLastRange, 0u);
  EXPECT_EQ(E.Stats.SetLastJoin, 1u);
  std::string Err;
  EXPECT_TRUE(verifyDecodable(E.Annotated, C, &Err)) << Err;
}

TEST(EncoderEdge, UnreachableBlockStillDecodable) {
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t Dead = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  // createMovImm would allocate a fresh register, r12, past RegN 12.
  B.createMovImmTo(2, 7);
  B.createRet(2);
  B.setBlock(Dead);
  B.createMovImmTo(9, 1); // Never executed; still must encode sanely.
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 9;
  F.Blocks[Dead].Insts.push_back(Ret);
  F.recomputeCFG();
  EncodingConfig C = lowEndConfig(12);
  EncodedFunction E = encodeFunction(F, C);
  std::string Err;
  EXPECT_TRUE(verifyDecodable(E.Annotated, C, &Err)) << Err;
  // Unreachable blocks get a defensive head repair.
  EXPECT_GE(E.Stats.SetLastJoin, 1u);
}

TEST(EncoderEdge, EmptyAccessBlockForwardsState) {
  // bb1 contains only a jmp (no register accesses): bb2's entry state must
  // flow through it from bb0's exit.
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t Mid = F.makeBlock();
  uint32_t End = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  B.createMovImmTo(4, 1); // Exit state: r4.
  B.createJmp(Mid);
  B.setBlock(Mid);
  B.createJmp(End);
  B.setBlock(End);
  B.createMovImmTo(5, 2); // diff(4, 5) = 1: encodable without repair.
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 5;
  F.Blocks[End].Insts.push_back(Ret);
  F.recomputeCFG();
  EncodedFunction E = encodeFunction(F, lowEndConfig(12));
  EXPECT_EQ(E.Stats.setLastTotal(), 0u);
}

TEST(EncoderEdge, SelfLoopEntryConsistent) {
  // Block 0 loops on itself: its entry state is the meet of the n0 = 0
  // convention and its own exit. The encoder must repair if they differ.
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t Exit = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  B.createMovImmTo(6, 1); // Exit state r6 != convention 0 -> conflict.
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Src1 = 6;
  Br.Target0 = B0;
  Br.Target1 = Exit;
  F.Blocks[B0].Insts.push_back(Br);
  B.setBlock(Exit);
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 6;
  F.Blocks[Exit].Insts.push_back(Ret);
  F.recomputeCFG();
  EncodedFunction E = encodeFunction(F, lowEndConfig(12));
  EXPECT_GE(E.Stats.SetLastJoin, 1u);
  std::string Err;
  EXPECT_TRUE(verifyDecodable(E.Annotated, lowEndConfig(12), &Err)) << Err;
  // And running it must be unaffected.
  EXPECT_EQ(interpret(E.Annotated).ReturnValue, interpret(F).ReturnValue);
}

TEST(EncoderEdge, VerifyRejectsHandBrokenAnnotation) {
  Function F = divergingDiamond();
  EncodedFunction E = encodeFunction(F, lowEndConfig(12));
  // Strip the join repair the encoder inserted: verification must fail.
  Function Broken = E.Annotated;
  auto &JoinInsts = Broken.Blocks[3].Insts;
  ASSERT_EQ(JoinInsts.front().Op, Opcode::SetLastReg);
  JoinInsts.erase(JoinInsts.begin());
  Broken.recomputeCFG();
  std::string Err;
  EXPECT_FALSE(verifyDecodable(Broken, lowEndConfig(12), &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(EncoderEdge, SlrCostPoliciesOrdered) {
  // Full is an upper bound for both relaxed front-end models. (HalfAligned
  // and Absorbed are not mutually ordered: parity hides every other slr of
  // a run, while Absorbed hides only the first.)
  Function F;
  F.NumRegs = 12;
  F.MemWords = 16;
  uint32_t Entry = F.makeBlock();
  uint32_t Body = F.makeBlock();
  uint32_t Exit = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(Entry);
  RegId I = B.createMovImm(200);
  B.createJmp(Body);
  B.setBlock(Body);
  for (int SlrIdx = 0; SlrIdx != 3; ++SlrIdx) {
    Instruction Slr;
    Slr.Op = Opcode::SetLastReg;
    Slr.Imm = SlrIdx;
    F.Blocks[Body].Insts.push_back(Slr);
  }
  B.createBinImmTo(Opcode::AddI, I, I, -1);
  B.createBr(I, Body, Exit);
  B.setBlock(Exit);
  B.createRet(I);
  F.recomputeCFG();

  LowEndMachine M;
  M.SlrCostPolicy = LowEndMachine::SlrCost::Full;
  uint64_t Full = simulate(F, M).Cycles;
  M.SlrCostPolicy = LowEndMachine::SlrCost::HalfAligned;
  uint64_t Half = simulate(F, M).Cycles;
  M.SlrCostPolicy = LowEndMachine::SlrCost::Absorbed;
  uint64_t Absorbed = simulate(F, M).Cycles;
  EXPECT_GE(Full, Half);
  EXPECT_GE(Full, Absorbed);
  EXPECT_GT(Full, std::min(Half, Absorbed));
}

TEST(EncoderEdge, SpecialRegisterPipelineRecipe) {
  // Section 9.2 end to end: reserve r11 (a "stack pointer"), allocate the
  // program onto the remaining 11 registers, renumber colors around the
  // reserved register, then encode with a reserved direct code for it.
  EncodingConfig C = lowEndConfig(12);
  C.DiffN = 7;
  C.SpecialRegs = {11};
  ASSERT_TRUE(C.valid());

  Function F;
  F.MemWords = 16;
  F.makeBlock();
  {
    IRBuilder B(F);
    B.setBlock(0);
    RegId A = B.createMovImm(3);
    RegId D = B.createBinImm(Opcode::MulI, A, 5);
    RegId E2 = B.createBin(Opcode::Add, A, D);
    B.createStore(A, 0, E2);
    B.createRet(E2);
    F.recomputeCFG();
  }
  ExecResult Before = interpret(F);

  // Allocate with 11 colors; colors 0..10 map to machine regs 0..10 (r11
  // stays free for the special register). With a special register in the
  // middle of the range the map would skip it; identity suffices here.
  allocateGraphColoring(F, 11);
  F.NumRegs = 12;
  F.recomputeCFG();

  // Simulate a stack-pointer-relative store by rewriting one operand to
  // the special register (semantically a different address; re-baseline).
  F.Blocks[0].Insts[3].Src1 = 11;
  ExecResult Reference = interpret(F);
  (void)Before;

  EncodedFunction E = encodeFunction(F, C);
  std::string Err;
  ASSERT_TRUE(verifyDecodable(E.Annotated, C, &Err)) << Err;
  Function Decoded = decodeFunction(E, C);
  // The special register decodes through its reserved code.
  EXPECT_EQ(Decoded.Blocks[0].Insts.back().Op, Opcode::Ret);
  bool SawSpecial = false;
  for (uint32_t B = 0; B != E.Annotated.Blocks.size(); ++B)
    for (uint32_t I = 0; I != E.Annotated.Blocks[B].Insts.size(); ++I)
      for (uint8_t Code : E.Codes[B][I])
        SawSpecial |= Code == C.specialCode(11);
  EXPECT_TRUE(SawSpecial);
  EXPECT_EQ(fingerprint(interpret(E.Annotated)), fingerprint(Reference));
}

TEST(EncoderEdge, ZeroBlockFunctionIsVacuouslyDecodable) {
  // Regression: verifyDecodable seeded its reachability worklist with
  // block 0 unconditionally, indexing out of bounds for a function with
  // no blocks at all. Such a function has no register fields, so it is
  // vacuously decodable; the whole encode path must tolerate it.
  Function F;
  F.NumRegs = 12;
  EncodingConfig C = lowEndConfig(12);
  std::string Err;
  EXPECT_TRUE(verifyDecodable(F, C, &Err)) << Err;
  EncodedFunction E = encodeFunction(F, C);
  EXPECT_TRUE(E.Annotated.Blocks.empty());
  EXPECT_TRUE(E.Codes.empty());
  EXPECT_EQ(E.Stats.setLastTotal(), 0u);
}

TEST(EncoderEdge, VerifyRejectsOverDelayedSlr) {
  // Regression: the decoder clears pending delayed assignments after
  // every real instruction, so a set_last_reg whose delay is >= the next
  // instruction's register-field count silently never applies.
  // verifyDecodable must reject the annotation instead of letting decode
  // diverge from the stated last_reg.
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  Instruction Slr;
  Slr.Op = Opcode::SetLastReg;
  Slr.Imm = 5;
  Slr.Aux = 2; // Would apply before field 2 — but ret has only one field.
  F.Blocks[B0].Insts.push_back(Slr);
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  Ret.Src1 = 0;
  F.Blocks[B0].Insts.push_back(Ret);
  F.recomputeCFG();
  std::string Err;
  EXPECT_FALSE(verifyDecodable(F, lowEndConfig(12), &Err));
  EXPECT_NE(Err.find("never applies"), std::string::npos) << Err;
}

TEST(EncoderEdge, VerifyRejectsDanglingDelayedSlr) {
  // A delayed set_last_reg as the final instruction of a block has no
  // following instruction to apply at.
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  B.createMovImmTo(0, 7);
  Instruction Slr;
  Slr.Op = Opcode::SetLastReg;
  Slr.Imm = 5;
  Slr.Aux = 1;
  F.Blocks[B0].Insts.push_back(Slr);
  F.recomputeCFG();
  std::string Err;
  EXPECT_FALSE(verifyDecodable(F, lowEndConfig(12), &Err));
  EXPECT_NE(Err.find("dangles"), std::string::npos) << Err;
}

TEST(EncoderEdge, RoundTripPropertyAcrossOrdersAndSpecials) {
  // Seeded property check: for random allocated programs and every
  // encoding variant, stripSetLastReg(decode(encode(F))) must equal F
  // textually and semantically. This is the same identity dra-fuzz
  // sweeps at scale; a handful of seeds keeps it in the unit suite.
  EncodingConfig Src = lowEndConfig(12);
  EncodingConfig Dst = lowEndConfig(12);
  Dst.Order = AccessOrder::DstFirst;
  EncodingConfig Sp = lowEndConfig(12);
  Sp.DiffN = 7;
  Sp.SpecialRegs = {11};
  ASSERT_TRUE(Sp.valid());

  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    ProgramProfile P;
    P.Seed = Seed;
    P.TopStatements = 6;
    P.OuterTrip = 2;
    P.MemWords = 32;
    Function F = generateProgram("prop" + std::to_string(Seed), P);
    // Allocate onto 11 colors so r11 stays free to act as the special
    // register in the Sp config (it simply never occurs).
    allocateGraphColoring(F, 11);
    F.NumRegs = 12;
    F.recomputeCFG();
    uint64_t RefFp = fingerprint(interpret(F));

    for (const EncodingConfig &C : {Src, Dst, Sp}) {
      EncodedFunction E = encodeFunction(F, C);
      std::string Err;
      ASSERT_TRUE(verifyDecodable(E.Annotated, C, &Err))
          << "seed " << Seed << ": " << Err;
      Function Decoded = decodeFunction(E, C);
      Function Stripped = stripSetLastReg(Decoded);
      EXPECT_EQ(printFunction(Stripped), printFunction(F))
          << "seed " << Seed;
      EXPECT_EQ(fingerprint(interpret(Decoded)), RefFp) << "seed " << Seed;
    }
  }
}
