//===- tests/binary_test.cpp - Bitstream + binary emitter tests -----------===//

#include "adt/BitStream.h"
#include "core/BinaryEmitter.h"
#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "regalloc/GraphColoring.h"
#include "workloads/MiBench.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(BitStream, RoundTripFields) {
  BitWriter W;
  W.write(0b101, 3);
  W.write(0, 0);
  W.write(0x1234, 16);
  W.write(1, 1);
  W.write(0xffffffffffffffffull, 64);
  BitReader R(W.bytes());
  EXPECT_EQ(R.read(3), 0b101u);
  EXPECT_EQ(R.read(0), 0u);
  EXPECT_EQ(R.read(16), 0x1234u);
  EXPECT_EQ(R.read(1), 1u);
  EXPECT_EQ(R.read(64), 0xffffffffffffffffull);
}

TEST(BitStream, BitCountAndAlignment) {
  BitWriter W;
  W.write(1, 5);
  EXPECT_EQ(W.bitCount(), 5u);
  W.alignToByte();
  EXPECT_EQ(W.bitCount(), 8u);
  EXPECT_EQ(W.bytes().size(), 1u);
}

TEST(BitStream, ReaderExhaustion) {
  BitWriter W;
  W.write(0x7, 3);
  BitReader R(W.bytes());
  EXPECT_FALSE(R.exhausted(8));
  R.read(8);
  EXPECT_TRUE(R.exhausted(1));
}

namespace {

Function allocatedProgram(uint64_t Seed, unsigned K) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = 5;
  P.TopStatements = 6;
  P.OuterTrip = 3;
  Function F = generateProgram("bin", P);
  allocateGraphColoring(F, K);
  return F;
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
      if (IA.Op != IB.Op || IA.Imm != IB.Imm ||
          IA.Target0 != IB.Target0 || IA.Target1 != IB.Target1)
        return false;
      for (unsigned Fld = 0; Fld != IA.numRegFields(); ++Fld)
        if (IA.regField(Fld) != IB.regField(Fld))
          return false;
    }
  }
  return true;
}

} // namespace

TEST(BinaryEmitter, DirectRoundTrip) {
  Function F = allocatedProgram(3, 12);
  BinaryModule M = emitDirect(F);
  EXPECT_EQ(M.FieldWidth, 4u); // 12 registers need 4 bits.
  std::string Err;
  auto Decoded = decodeDirect(M, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  EXPECT_TRUE(sameRegisterFields(F, *Decoded));
  EXPECT_EQ(fingerprint(interpret(*Decoded)), fingerprint(interpret(F)));
}

TEST(BinaryEmitter, DifferentialRoundTrip) {
  EncodingConfig C = lowEndConfig(12);
  Function F = allocatedProgram(5, 12);
  EncodedFunction E = encodeFunction(F, C);
  BinaryModule M = emitDifferential(E, C);
  EXPECT_EQ(M.FieldWidth, 3u);
  std::string Err;
  auto Decoded = decodeDifferential(M, C, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  // The hardware-style decode must reconstruct every register number.
  EXPECT_TRUE(sameRegisterFields(E.Annotated, Decoded->Annotated));
}

TEST(BinaryEmitter, DifferentialRoundTripDstFirstWithSpecials) {
  // The decoder needs each instruction's field order before it has any
  // register: under DstFirst the def field comes first, and r11 decodes
  // from its reserved code.
  EncodingConfig C = lowEndConfig(12);
  C.Order = AccessOrder::DstFirst;
  C.DiffN = 7;
  C.SpecialRegs = {11};
  Function F = allocatedProgram(6, 11);
  F.NumRegs = 12;
  for (Instruction &I : F.Blocks[0].Insts)
    if (I.def() != NoReg) {
      I.Dst = 11; // Only the encoding matters here, not the semantics.
      break;
    }
  F.recomputeCFG();
  EncodedFunction E = encodeFunction(F, C);
  BinaryModule M = emitDifferential(E, C);
  std::string Err;
  auto Decoded = decodeDifferential(M, C, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  EXPECT_TRUE(sameRegisterFields(E.Annotated, Decoded->Annotated));
  EXPECT_EQ(Decoded->Codes, E.Codes);
}

TEST(BinaryEmitter, ZeroBlockFunctionRoundTrips) {
  // A module with no blocks has nothing to decode; the decoder must say
  // so rather than seed its walk with a block that is not there.
  EncodingConfig C = lowEndConfig(12);
  Function F;
  F.NumRegs = 12;
  EncodedFunction E = encodeFunction(F, C);
  BinaryModule M = emitDifferential(E, C);
  std::string Err;
  auto Decoded = decodeDifferential(M, C, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  EXPECT_TRUE(Decoded->Annotated.Blocks.empty());
  EXPECT_TRUE(Decoded->Codes.empty());
  EXPECT_EQ(Decoded->Annotated.NumRegs, 12u);
}

TEST(BinaryEmitter, UnexplainedSpecialCodeRejected) {
  // DiffN 6 with one special register leaves code 7 meaning nothing: a
  // module carrying it is malformed, and decoding it is an error.
  EncodingConfig C = lowEndConfig(12);
  C.DiffN = 6;
  C.SpecialRegs = {11};
  ASSERT_TRUE(C.valid());
  Function F = allocatedProgram(8, 11);
  F.NumRegs = 12;
  EncodedFunction E = encodeFunction(F, C);
  bool Corrupted = false;
  for (auto &Block : E.Codes)
    for (auto &Inst : Block)
      if (!Inst.empty() && !Corrupted) {
        Inst.front() = 7;
        Corrupted = true;
      }
  ASSERT_TRUE(Corrupted);
  BinaryModule M = emitDifferential(E, C);
  std::string Err;
  EXPECT_FALSE(decodeDifferential(M, C, &Err).has_value());
  EXPECT_NE(Err.find("invalid special code"), std::string::npos) << Err;
}

TEST(BinaryEmitter, DifferentialFieldsAreNarrower) {
  // The paper's core claim, measured on real emitted bits: the same
  // program addressing 12 registers spends 3 bits per field
  // differentially vs 4 bits directly.
  EncodingConfig C = lowEndConfig(12);
  Function F = allocatedProgram(7, 12);
  BinaryModule Direct = emitDirect(F);
  EncodedFunction E = encodeFunction(F, C);
  BinaryModule Diff = emitDifferential(E, C);
  EXPECT_LT(Diff.RegFieldBits,
            Direct.RegFieldBits); // 3/4 of the field bits...
  EXPECT_EQ(Direct.RegFieldBits % 4, 0u);
  // ...although set_last_reg words eat some of it back.
  double FieldSavings = static_cast<double>(Direct.RegFieldBits) -
                        static_cast<double>(Diff.RegFieldBits);
  EXPECT_GT(FieldSavings, 0.0);
}

TEST(BinaryEmitter, TruncatedInputRejected) {
  Function F = allocatedProgram(9, 8);
  BinaryModule M = emitDirect(F);
  M.Bytes.resize(M.Bytes.size() / 2);
  std::string Err;
  EXPECT_FALSE(decodeDirect(M, &Err).has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(BinaryEmitter, BranchTargetOutOfRangeRejected) {
  // A jump to a block the module does not have is malformed input: the
  // decoder must say so instead of building a CFG edge to nowhere.
  Function F;
  F.NumRegs = 2;
  F.makeBlock();
  Instruction Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target0 = 0;
  F.Blocks[0].Insts.push_back(Jmp);
  F.recomputeCFG();
  BinaryModule M = emitDirect(F);
  // The 16-bit block index follows the header (64 bits), the block size
  // (16) and the opcode (5); bits fill each byte from the low end. Set
  // its bit 1: the jump now targets bb2.
  size_t Bit = 64 + 16 + 5 + 1;
  M.Bytes[Bit / 8] |= static_cast<uint8_t>(1u << (Bit % 8));
  std::string Err;
  EXPECT_FALSE(decodeDirect(M, &Err).has_value());
  EXPECT_NE(Err.find("branch target out of range"), std::string::npos)
      << Err;
}

TEST(BinaryEmitter, DeterministicBytes) {
  Function F = allocatedProgram(11, 12);
  BinaryModule A = emitDirect(F);
  BinaryModule B = emitDirect(F);
  EXPECT_EQ(A.Bytes, B.Bytes);
  EXPECT_EQ(A.BitCount, B.BitCount);
}

/// Differential binary round trip across seeds (covers forced blocks,
/// delayed slr, joins).
class BinaryDifferentialRandom : public ::testing::TestWithParam<int> {};

TEST_P(BinaryDifferentialRandom, HardwareDecodeMatches) {
  EncodingConfig C = lowEndConfig(12);
  Function F =
      allocatedProgram(static_cast<uint64_t>(GetParam()) * 67 + 29, 12);
  EncodedFunction E = encodeFunction(F, C);
  BinaryModule M = emitDifferential(E, C);
  std::string Err;
  auto Decoded = decodeDifferential(M, C, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  EXPECT_TRUE(sameRegisterFields(E.Annotated, Decoded->Annotated));
  EXPECT_EQ(fingerprint(interpret(Decoded->Annotated)),
            fingerprint(interpret(F)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryDifferentialRandom,
                         ::testing::Range(0, 10));

/// Integration: a full differential pipeline result survives bit-exact
/// emission and hardware-style decode.
class BinaryPipelineIntegration
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BinaryPipelineIntegration, EmitDecodeMatchesPipelineOutput) {
  EncodingConfig C = lowEndConfig(12);
  PipelineConfig Cfg;
  Cfg.S = Scheme::Select;
  Cfg.Enc = C;
  Cfg.Remap.NumStarts = 20;
  Function Source = miBenchProgram(GetParam());
  PipelineResult R = runPipeline(Source, Cfg);

  // Re-encode the stripped function to get the code stream, emit to bits,
  // decode like the hardware, and compare against the pipeline's output.
  Function Stripped = stripSetLastReg(R.F);
  EncodedFunction E = encodeFunction(Stripped, C);
  BinaryModule M = emitDifferential(E, C);
  std::string Err;
  auto Decoded = decodeDifferential(M, C, &Err);
  ASSERT_TRUE(Decoded.has_value()) << Err;
  EXPECT_TRUE(sameRegisterFields(E.Annotated, Decoded->Annotated));
  EXPECT_EQ(fingerprint(interpret(Decoded->Annotated)),
            fingerprint(interpret(Source)));
}

INSTANTIATE_TEST_SUITE_P(Suite, BinaryPipelineIntegration,
                         ::testing::Values("crc32", "stringsearch",
                                           "dijkstra"));
