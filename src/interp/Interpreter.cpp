//===- interp/Interpreter.cpp - Executable IR semantics -------------------===//

#include "interp/Interpreter.h"

#include <vector>

using namespace dra;

ExecResult dra::interpret(const Function &F, uint64_t StepLimit,
                          const TraceCallback &OnEvent) {
  ExecResult Result;
  std::vector<int64_t> Regs(F.NumRegs, 0);
  std::vector<int64_t> Mem(std::max<uint32_t>(F.MemWords, 1), 0);
  std::vector<int64_t> Spill(std::max<uint32_t>(F.NumSpillSlots, 1), 0);

  auto WrapAddr = [&](int64_t Raw) {
    uint64_t Size = Mem.size();
    int64_t Wrapped = Raw % static_cast<int64_t>(Size);
    if (Wrapped < 0)
      Wrapped += static_cast<int64_t>(Size);
    return static_cast<uint64_t>(Wrapped);
  };

  uint32_t Block = 0;
  uint32_t InstIdx = 0;
  bool Done = false;
  while (!Done) {
    if (Result.DynInsts >= StepLimit) {
      Result.HitStepLimit = true;
      break;
    }
    assert(Block < F.Blocks.size() && "fell off the CFG");
    const BasicBlock &BB = F.Blocks[Block];
    assert(InstIdx < BB.Insts.size() && "fell off a block");
    const Instruction &I = BB.Insts[InstIdx];

    TraceEvent Ev;
    Ev.Block = Block;
    Ev.InstIdx = InstIdx;
    Ev.Inst = &I;
    Ev.MemAddr = 0;
    Ev.BranchTaken = false;

    uint32_t NextBlock = Block;
    uint32_t NextInst = InstIdx + 1;

    auto Shift = [](int64_t Amount) { return Amount & 63; };
    // Add/Sub/Mul wrap in two's complement: compute them in uint64_t,
    // where overflow is defined.
    auto U = [](int64_t V) { return static_cast<uint64_t>(V); };

    switch (I.Op) {
    case Opcode::Add:
      Regs[I.Dst] = static_cast<int64_t>(U(Regs[I.Src1]) + U(Regs[I.Src2]));
      break;
    case Opcode::Sub:
      Regs[I.Dst] = static_cast<int64_t>(U(Regs[I.Src1]) - U(Regs[I.Src2]));
      break;
    case Opcode::Mul:
      Regs[I.Dst] = static_cast<int64_t>(U(Regs[I.Src1]) * U(Regs[I.Src2]));
      break;
    case Opcode::DivS:
      Regs[I.Dst] = Regs[I.Src2] == 0 || (Regs[I.Src1] == INT64_MIN &&
                                          Regs[I.Src2] == -1)
                        ? 0
                        : Regs[I.Src1] / Regs[I.Src2];
      break;
    case Opcode::Rem:
      Regs[I.Dst] = Regs[I.Src2] == 0 || (Regs[I.Src1] == INT64_MIN &&
                                          Regs[I.Src2] == -1)
                        ? 0
                        : Regs[I.Src1] % Regs[I.Src2];
      break;
    case Opcode::And:
      Regs[I.Dst] = Regs[I.Src1] & Regs[I.Src2];
      break;
    case Opcode::Or:
      Regs[I.Dst] = Regs[I.Src1] | Regs[I.Src2];
      break;
    case Opcode::Xor:
      Regs[I.Dst] = Regs[I.Src1] ^ Regs[I.Src2];
      break;
    case Opcode::Shl:
      Regs[I.Dst] = static_cast<int64_t>(
          static_cast<uint64_t>(Regs[I.Src1]) << Shift(Regs[I.Src2]));
      break;
    case Opcode::Shr:
      Regs[I.Dst] = static_cast<int64_t>(static_cast<uint64_t>(Regs[I.Src1]) >>
                                         Shift(Regs[I.Src2]));
      break;
    case Opcode::AddI:
      Regs[I.Dst] = static_cast<int64_t>(U(Regs[I.Src1]) + U(I.Imm));
      break;
    case Opcode::MulI:
      Regs[I.Dst] = static_cast<int64_t>(U(Regs[I.Src1]) * U(I.Imm));
      break;
    case Opcode::AndI:
      Regs[I.Dst] = Regs[I.Src1] & I.Imm;
      break;
    case Opcode::XorI:
      Regs[I.Dst] = Regs[I.Src1] ^ I.Imm;
      break;
    case Opcode::ShlI:
      Regs[I.Dst] = static_cast<int64_t>(static_cast<uint64_t>(Regs[I.Src1])
                                         << Shift(I.Imm));
      break;
    case Opcode::ShrI:
      Regs[I.Dst] = static_cast<int64_t>(static_cast<uint64_t>(Regs[I.Src1]) >>
                                         Shift(I.Imm));
      break;
    case Opcode::CmpEQ:
      Regs[I.Dst] = Regs[I.Src1] == Regs[I.Src2];
      break;
    case Opcode::CmpNE:
      Regs[I.Dst] = Regs[I.Src1] != Regs[I.Src2];
      break;
    case Opcode::CmpLT:
      Regs[I.Dst] = Regs[I.Src1] < Regs[I.Src2];
      break;
    case Opcode::CmpLE:
      Regs[I.Dst] = Regs[I.Src1] <= Regs[I.Src2];
      break;
    case Opcode::Mov:
      Regs[I.Dst] = Regs[I.Src1];
      break;
    case Opcode::MovI:
      Regs[I.Dst] = I.Imm;
      break;
    case Opcode::Load: {
      uint64_t Addr = WrapAddr(Regs[I.Src1] + I.Imm);
      Ev.MemAddr = Addr;
      Regs[I.Dst] = Mem[Addr];
      break;
    }
    case Opcode::Store: {
      uint64_t Addr = WrapAddr(Regs[I.Src1] + I.Imm);
      Ev.MemAddr = Addr;
      Mem[Addr] = Regs[I.Src2];
      break;
    }
    case Opcode::SpillLd:
      assert(static_cast<uint64_t>(I.Imm) < Spill.size() &&
             "spill slot out of range");
      Ev.MemAddr = static_cast<uint64_t>(I.Imm);
      Regs[I.Dst] = Spill[I.Imm];
      break;
    case Opcode::SpillSt:
      assert(static_cast<uint64_t>(I.Imm) < Spill.size() &&
             "spill slot out of range");
      Ev.MemAddr = static_cast<uint64_t>(I.Imm);
      Spill[I.Imm] = Regs[I.Src1];
      break;
    case Opcode::Br: {
      uint32_t Taken = Regs[I.Src1] != 0 ? I.Target0 : I.Target1;
      NextBlock = Taken;
      NextInst = 0;
      // Falling through to the next block in layout order costs nothing; a
      // redirected fetch is a taken branch.
      Ev.BranchTaken = Taken != Block + 1;
      break;
    }
    case Opcode::Jmp:
      NextBlock = I.Target0;
      NextInst = 0;
      Ev.BranchTaken = I.Target0 != Block + 1;
      break;
    case Opcode::Ret:
      Result.ReturnValue = Regs[I.Src1];
      Done = true;
      break;
    case Opcode::SetLastReg:
      // Decode-stage only: no architectural effect, not counted as an
      // executed instruction, but reported so simulators can price its
      // fetch/decode slot.
      if (OnEvent)
        OnEvent(Ev);
      Block = NextBlock;
      InstIdx = NextInst;
      continue;
    }

    ++Result.DynInsts;
    if (OnEvent)
      OnEvent(Ev);
    Block = NextBlock;
    InstIdx = NextInst;
  }

  // FNV-1a over the data array.
  uint64_t Hash = 1469598103934665603ull;
  for (int64_t Word : Mem) {
    uint64_t Bits = static_cast<uint64_t>(Word);
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Bits >> (Byte * 8)) & 0xff;
      Hash *= 1099511628211ull;
    }
  }
  Result.MemChecksum = Hash;
  return Result;
}

uint64_t dra::fingerprint(const ExecResult &R) {
  uint64_t H = R.MemChecksum;
  H ^= static_cast<uint64_t>(R.ReturnValue) + 0x9e3779b97f4a7c15ull +
       (H << 6) + (H >> 2);
  return H;
}
