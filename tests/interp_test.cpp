//===- tests/interp_test.cpp - Interpreter semantics tests ----------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

/// Builds a single-block function computing `Body` and returning a reg.
template <typename BodyT> Function straightLine(BodyT Body) {
  Function F;
  F.Name = "t";
  F.MemWords = 16;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId Result = Body(B);
  B.createRet(Result);
  F.recomputeCFG();
  return F;
}

} // namespace

TEST(Interp, Arithmetic) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(20);
    RegId C = B.createMovImm(22);
    return B.createBin(Opcode::Add, A, C);
  });
  EXPECT_EQ(interpret(F).ReturnValue, 42);
}

TEST(Interp, SubMulShift) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(7);
    RegId C = B.createMovImm(3);
    RegId D = B.createBin(Opcode::Sub, A, C);  // 4
    RegId E = B.createBin(Opcode::Mul, D, A);  // 28
    return B.createBinImm(Opcode::ShlI, E, 1); // 56
  });
  EXPECT_EQ(interpret(F).ReturnValue, 56);
}

TEST(Interp, DivisionByZeroIsZero) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(5);
    RegId Z = B.createMovImm(0);
    return B.createBin(Opcode::DivS, A, Z);
  });
  EXPECT_EQ(interpret(F).ReturnValue, 0);
}

TEST(Interp, RemainderOverflowGuard) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(INT64_MIN);
    RegId M = B.createMovImm(-1);
    return B.createBin(Opcode::Rem, A, M);
  });
  EXPECT_EQ(interpret(F).ReturnValue, 0);
}

TEST(Interp, ArithmeticWrapsAtInt64Extremes) {
  // 64-bit two's complement: overflow wraps instead of being undefined.
  auto Run = [](Opcode Op, int64_t A, int64_t C) {
    return interpret(straightLine([&](IRBuilder &B) {
             return B.createBin(Op, B.createMovImm(A), B.createMovImm(C));
           }))
        .ReturnValue;
  };
  auto RunImm = [](Opcode Op, int64_t A, int64_t Imm) {
    return interpret(straightLine([&](IRBuilder &B) {
             return B.createBinImm(Op, B.createMovImm(A), Imm);
           }))
        .ReturnValue;
  };
  EXPECT_EQ(Run(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(Run(Opcode::Sub, INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(Run(Opcode::Mul, INT64_MAX, 2), -2);
  EXPECT_EQ(Run(Opcode::Mul, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(RunImm(Opcode::AddI, INT64_MIN, -1), INT64_MAX);
  EXPECT_EQ(RunImm(Opcode::MulI, INT64_MIN, -1), INT64_MIN);
}

TEST(Interp, Comparisons) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(3);
    RegId C = B.createMovImm(4);
    RegId Lt = B.createBin(Opcode::CmpLT, A, C); // 1
    RegId Eq = B.createBin(Opcode::CmpEQ, A, C); // 0
    RegId Le = B.createBin(Opcode::CmpLE, C, C); // 1
    RegId S = B.createBin(Opcode::Add, Lt, Eq);
    return B.createBin(Opcode::Add, S, Le); // 2
  });
  EXPECT_EQ(interpret(F).ReturnValue, 2);
}

TEST(Interp, LoadStoreRoundTrip) {
  Function F = straightLine([](IRBuilder &B) {
    RegId Base = B.createMovImm(3);
    RegId V = B.createMovImm(99);
    B.createStore(Base, 2, V); // mem[5] = 99.
    return B.createLoad(Base, 2);
  });
  EXPECT_EQ(interpret(F).ReturnValue, 99);
}

TEST(Interp, LoadWrapsAddress) {
  Function F = straightLine([](IRBuilder &B) {
    RegId Base = B.createMovImm(-1); // Wraps to MemWords - 1.
    RegId V = B.createMovImm(7);
    B.createStore(Base, 0, V);
    return B.createLoad(B.createMovImm(15), 0); // MemWords = 16.
  });
  EXPECT_EQ(interpret(F).ReturnValue, 7);
}

TEST(Interp, SpillSlotRoundTrip) {
  Function F;
  F.MemWords = 4;
  F.NumSpillSlots = 2;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  RegId V = B.createMovImm(1234);
  Instruction St;
  St.Op = Opcode::SpillSt;
  St.Src1 = V;
  St.Imm = 1;
  F.Blocks[0].Insts.push_back(St);
  Instruction Ld;
  Ld.Op = Opcode::SpillLd;
  Ld.Dst = F.makeReg();
  Ld.Imm = 1;
  F.Blocks[0].Insts.push_back(Ld);
  B.createRet(Ld.Dst);
  F.recomputeCFG();
  EXPECT_EQ(interpret(F).ReturnValue, 1234);
}

TEST(Interp, LoopSumsCorrectly) {
  // sum = 0; for (i = 10; i != 0; --i) sum += i;  -> 55.
  Function F;
  F.MemWords = 4;
  uint32_t Entry = F.makeBlock();
  uint32_t Body = F.makeBlock();
  uint32_t Exit = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(Entry);
  RegId Sum = B.createMovImm(0);
  RegId I = B.createMovImm(10);
  B.createJmp(Body);
  B.setBlock(Body);
  B.createBinTo(Opcode::Add, Sum, Sum, I);
  B.createBinImmTo(Opcode::AddI, I, I, -1);
  B.createBr(I, Body, Exit);
  B.setBlock(Exit);
  B.createRet(Sum);
  F.recomputeCFG();
  ExecResult R = interpret(F);
  EXPECT_EQ(R.ReturnValue, 55);
  EXPECT_FALSE(R.HitStepLimit);
}

TEST(Interp, StepLimitStopsRunaway) {
  Function F;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  B.createMovImm(1);
  B.createJmp(0); // Infinite loop.
  F.recomputeCFG();
  ExecResult R = interpret(F, 1000);
  EXPECT_TRUE(R.HitStepLimit);
  EXPECT_GE(R.DynInsts, 1000u);
}

TEST(Interp, SetLastRegIsArchitecturallyInert) {
  Function Plain = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(5);
    return B.createBinImm(Opcode::MulI, A, 3);
  });
  Function WithSlr = Plain;
  Instruction Slr;
  Slr.Op = Opcode::SetLastReg;
  Slr.Imm = 0;
  WithSlr.Blocks[0].Insts.insert(WithSlr.Blocks[0].Insts.begin(), Slr);
  ExecResult A = interpret(Plain), B = interpret(WithSlr);
  EXPECT_EQ(fingerprint(A), fingerprint(B));
  EXPECT_EQ(A.DynInsts, B.DynInsts); // slr not counted as executed.
}

TEST(Interp, TraceEventsMatchExecution) {
  Function F = straightLine([](IRBuilder &B) {
    RegId A = B.createMovImm(1);
    RegId C = B.createLoad(A, 0);
    return B.createBin(Opcode::Add, A, C);
  });
  std::vector<Opcode> Seen;
  uint64_t LoadAddr = ~0ull;
  interpret(F, 1000, [&](const TraceEvent &Ev) {
    Seen.push_back(Ev.Inst->Op);
    if (Ev.Inst->Op == Opcode::Load)
      LoadAddr = Ev.MemAddr;
  });
  ASSERT_EQ(Seen.size(), 4u);
  EXPECT_EQ(Seen[1], Opcode::Load);
  EXPECT_EQ(LoadAddr, 1u);
  EXPECT_EQ(Seen[3], Opcode::Ret);
}

TEST(Interp, BranchTakenFlagsFallthrough) {
  // bb0 -> br to bb1 (fallthrough) or bb2 (taken).
  Function F;
  F.MemWords = 4;
  uint32_t B0 = F.makeBlock();
  uint32_t B1 = F.makeBlock();
  uint32_t B2 = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(B0);
  RegId Z = B.createMovImm(0);
  B.createBr(Z, B2, B1); // Condition false -> Target1 = bb1 = fallthrough.
  B.setBlock(B1);
  B.createRet(Z);
  B.setBlock(B2);
  B.createRet(Z);
  F.recomputeCFG();
  bool SawBranch = false, Taken = true;
  interpret(F, 100, [&](const TraceEvent &Ev) {
    if (Ev.Inst->Op == Opcode::Br) {
      SawBranch = true;
      Taken = Ev.BranchTaken;
    }
  });
  EXPECT_TRUE(SawBranch);
  EXPECT_FALSE(Taken); // Fell through to the next block in layout.
}

TEST(Interp, FingerprintSensitiveToMemory) {
  Function A = straightLine([](IRBuilder &B) {
    RegId V = B.createMovImm(1);
    B.createStore(V, 0, V);
    return V;
  });
  Function C = straightLine([](IRBuilder &B) {
    RegId V = B.createMovImm(1);
    B.createStore(V, 1, V); // Different address.
    return V;
  });
  EXPECT_NE(fingerprint(interpret(A)), fingerprint(interpret(C)));
}
