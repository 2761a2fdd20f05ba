//===- core/BinaryEmitter.cpp - Bit-exact instruction emission ------------===//

#include "core/BinaryEmitter.h"

#include "adt/BitStream.h"

#include <algorithm>

using namespace dra;

namespace {

constexpr unsigned OpcodeBits = 5;
constexpr unsigned BlockRefBits = 16;
constexpr unsigned SlrValueBits = 8;
constexpr unsigned SlrDelayBits = 4;

bool hasImmediate(Opcode Op) {
  switch (Op) {
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::AndI:
  case Opcode::XorI:
  case Opcode::ShlI:
  case Opcode::ShrI:
  case Opcode::MovI:
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::SpillLd:
  case Opcode::SpillSt:
    return true;
  default:
    return false;
  }
}

/// A fresh instruction of opcode \p Op with r0 in each of its register
/// fields and NoReg in the slots it does not use, so numRegFields()
/// counts its fields and setRegField can fill any of them.
Instruction blankOf(Opcode Op) {
  Instruction I;
  I.Op = Op;
  I.Dst = 0; // def() reads Dst only for opcodes that define a register.
  if (I.def() == NoReg)
    I.Dst = NoReg;
  for (unsigned Field = 0; Field != I.numRegFields(); ++Field)
    I.setRegField(Field, 0);
  return I;
}

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

void writeVarint(BitWriter &W, int64_t Value) {
  uint64_t Z = zigzag(Value);
  do {
    uint64_t Group = Z & 0x7f;
    Z >>= 7;
    W.write(Group | (Z != 0 ? 0x80 : 0), 8);
  } while (Z != 0);
}

int64_t readVarint(BitReader &R) {
  uint64_t Z = 0;
  unsigned Shift = 0;
  for (;;) {
    uint64_t Byte = R.read(8);
    Z |= (Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      break;
    Shift += 7;
  }
  return unzigzag(Z);
}

unsigned directFieldWidth(unsigned NumRegs) {
  unsigned W = 1;
  while ((1u << W) < NumRegs)
    ++W;
  return W;
}

/// Emits everything but the register-field payload, which the caller
/// supplies through \p WriteFields(W, Inst, Block, InstIdx) (a
/// set_last_reg has no register fields).
template <typename FieldsFn>
BinaryModule emitCommon(const Function &F, unsigned FieldWidth,
                        FieldsFn WriteFields) {
  BinaryModule M;
  M.FieldWidth = FieldWidth;
  BitWriter W;
  W.write(F.Blocks.size(), 16);
  W.write(F.NumRegs, 16);
  W.write(F.MemWords, 16);
  W.write(F.NumSpillSlots, 16);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    W.write(BB.Insts.size(), 16);
    for (uint32_t Idx = 0; Idx != BB.Insts.size(); ++Idx) {
      const Instruction &I = BB.Insts[Idx];
      W.write(static_cast<uint64_t>(I.Op), OpcodeBits);
      if (I.Op == Opcode::SetLastReg) {
        W.write(static_cast<uint64_t>(I.Imm), SlrValueBits);
        W.write(I.Aux, SlrDelayBits);
      }
      size_t Before = W.bitCount();
      WriteFields(W, I, B, Idx);
      M.RegFieldBits += W.bitCount() - Before;
      if (hasImmediate(I.Op))
        writeVarint(W, I.Imm);
      if (I.Op == Opcode::Br) {
        W.write(I.Target0, BlockRefBits);
        W.write(I.Target1, BlockRefBits);
      } else if (I.Op == Opcode::Jmp) {
        W.write(I.Target0, BlockRefBits);
      }
    }
  }
  M.BitCount = W.bitCount();
  W.alignToByte();
  M.Bytes = W.bytes();
  return M;
}

/// Parses the common layout; \p ReadFields(R, Inst, Block) consumes the
/// register fields of each instruction and fills them in (or records
/// their codes).
template <typename FieldsFn>
std::optional<Function> decodeCommon(const BinaryModule &M,
                                     FieldsFn ReadFields,
                                     std::string *Err) {
  auto Fail = [&](const std::string &Msg) -> std::optional<Function> {
    if (Err)
      *Err = Msg;
    return std::nullopt;
  };
  BitReader R(M.Bytes);
  if (R.exhausted(64))
    return Fail("truncated header");
  Function F;
  size_t NumBlocks = R.read(16);
  F.NumRegs = static_cast<uint32_t>(R.read(16));
  F.MemWords = static_cast<uint32_t>(R.read(16));
  F.NumSpillSlots = static_cast<uint32_t>(R.read(16));
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    F.makeBlock();
    if (R.exhausted(16))
      return Fail("truncated block header");
    size_t NumInsts = R.read(16);
    for (size_t IIdx = 0; IIdx != NumInsts; ++IIdx) {
      if (R.exhausted(OpcodeBits))
        return Fail("truncated instruction");
      uint64_t Op = R.read(OpcodeBits);
      if (Op > static_cast<uint64_t>(Opcode::SetLastReg))
        return Fail("invalid opcode");
      Instruction I = blankOf(static_cast<Opcode>(Op));
      if (I.Op == Opcode::SetLastReg) {
        I.Imm = static_cast<int64_t>(R.read(SlrValueBits));
        I.Aux = static_cast<uint32_t>(R.read(SlrDelayBits));
      }
      ReadFields(R, I, B);
      if (hasImmediate(I.Op))
        I.Imm = readVarint(R);
      // recomputeCFG indexes blocks by these, so check them first.
      auto ReadTarget = [&](uint32_t &Target) {
        Target = static_cast<uint32_t>(R.read(BlockRefBits));
        return Target < NumBlocks;
      };
      if ((I.Op == Opcode::Br &&
           !(ReadTarget(I.Target0) && ReadTarget(I.Target1))) ||
          (I.Op == Opcode::Jmp && !ReadTarget(I.Target0)))
        return Fail("branch target out of range");
      F.Blocks[B].Insts.push_back(I);
    }
  }
  F.recomputeCFG();
  return F;
}

} // namespace

BinaryModule dra::emitDirect(const Function &F) {
  unsigned Width = directFieldWidth(std::max(1u, F.NumRegs));
  return emitCommon(F, Width,
                    [&](BitWriter &W, const Instruction &I, uint32_t,
                        uint32_t) {
                      for (unsigned Field = 0; Field != I.numRegFields();
                           ++Field)
                        W.write(I.regField(Field), Width);
                    });
}

std::optional<Function> dra::decodeDirect(const BinaryModule &M,
                                          std::string *Err) {
  return decodeCommon(
      M,
      [&](BitReader &R, Instruction &I, uint32_t) {
        for (unsigned Field = 0; Field != I.numRegFields(); ++Field)
          I.setRegField(Field, static_cast<RegId>(R.read(M.FieldWidth)));
      },
      Err);
}

BinaryModule dra::emitDifferential(const EncodedFunction &E,
                                   const EncodingConfig &C) {
  // Codes are stored in access order (the hardware decode order).
  return emitCommon(E.Annotated, C.DiffW,
                    [&](BitWriter &W, const Instruction &, uint32_t B,
                        uint32_t Idx) {
                      for (uint8_t Code : E.Codes[B][Idx])
                        W.write(Code, C.DiffW);
                    });
}

std::optional<EncodedFunction>
dra::decodeDifferential(const BinaryModule &M, const EncodingConfig &C,
                        std::string *Err) {
  // Parse the skeleton, collecting each instruction's codes (a
  // set_last_reg has none) and leaving r0 in its register fields.
  EncodedFunction Out;
  std::optional<Function> Skeleton = decodeCommon(
      M,
      [&](BitReader &R, Instruction &I, uint32_t B) {
        if (Out.Codes.size() <= B)
          Out.Codes.resize(B + 1);
        std::vector<uint8_t> &FieldCodes = Out.Codes[B].emplace_back();
        for (unsigned Field = 0; Field != I.numRegFields(); ++Field)
          FieldCodes.push_back(static_cast<uint8_t>(R.read(C.DiffW)));
      },
      Err);
  if (!Skeleton)
    return std::nullopt;
  Out.Annotated = std::move(*Skeleton);
  Out.Codes.resize(Out.Annotated.Blocks.size());

  // Then decode the registers the way the hardware would.
  if (!decodeRegisters(Out.Annotated, Out.Codes, RegPartition(C), Err))
    return std::nullopt;
  return Out;
}
