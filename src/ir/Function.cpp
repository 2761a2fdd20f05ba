//===- ir/Function.cpp - Basic blocks, functions, modules -----------------===//

#include "ir/Function.h"

#include <sstream>

using namespace dra;

void Function::recomputeCFG() {
  for (BasicBlock &BB : Blocks) {
    BB.Succs.clear();
    BB.Preds.clear();
  }
  for (uint32_t Idx = 0, E = static_cast<uint32_t>(Blocks.size()); Idx != E;
       ++Idx) {
    const Instruction *Term = Blocks[Idx].terminator();
    if (!Term)
      continue;
    auto AddEdge = [&](uint32_t To) {
      assert(To < Blocks.size() && "branch target out of range");
      Blocks[Idx].Succs.push_back(To);
      Blocks[To].Preds.push_back(Idx);
    };
    switch (Term->Op) {
    case Opcode::Br:
      AddEdge(Term->Target0);
      if (Term->Target1 != Term->Target0)
        AddEdge(Term->Target1);
      break;
    case Opcode::Jmp:
      AddEdge(Term->Target0);
      break;
    case Opcode::Ret:
      break;
    default:
      assert(false && "non-terminator as block terminator");
    }
  }
}

std::vector<uint8_t> Function::reachableBlocks() const {
  std::vector<uint8_t> Reachable(Blocks.size(), 0);
  if (Blocks.empty())
    return Reachable;
  std::vector<uint32_t> Work{0};
  Reachable[0] = 1;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : Blocks[B].Succs)
      if (!Reachable[S]) {
        Reachable[S] = 1;
        Work.push_back(S);
      }
  }
  return Reachable;
}

size_t Function::numInsts() const {
  size_t Total = 0;
  for (const BasicBlock &BB : Blocks)
    Total += BB.Insts.size();
  return Total;
}

size_t Function::numSpillInsts() const {
  size_t Total = 0;
  for (const BasicBlock &BB : Blocks)
    for (const Instruction &I : BB.Insts)
      Total += I.isSpill();
  return Total;
}

size_t Function::numSetLastRegs() const {
  size_t Total = 0;
  for (const BasicBlock &BB : Blocks)
    for (const Instruction &I : BB.Insts)
      Total += I.Op == Opcode::SetLastReg;
  return Total;
}

std::string dra::printFunction(const Function &F) {
  std::ostringstream OS;
  OS << "func " << F.Name << " regs=" << F.NumRegs << " mem=" << F.MemWords
     << " spills=" << F.NumSpillSlots << "\n";
  for (size_t BIdx = 0; BIdx != F.Blocks.size(); ++BIdx) {
    OS << "bb" << BIdx << ":\n";
    for (const Instruction &I : F.Blocks[BIdx].Insts)
      OS << "  " << toString(I) << "\n";
  }
  return OS.str();
}

bool dra::verifyFunction(const Function &F, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "function '" + F.Name + "': " + Msg;
    return false;
  };
  if (F.Blocks.empty())
    return Fail("no blocks");
  for (size_t BIdx = 0; BIdx != F.Blocks.size(); ++BIdx) {
    const BasicBlock &BB = F.Blocks[BIdx];
    std::string Where = "bb" + std::to_string(BIdx);
    if (BB.Insts.empty())
      return Fail(Where + " is empty (no terminator)");
    for (size_t IIdx = 0; IIdx != BB.Insts.size(); ++IIdx) {
      const Instruction &I = BB.Insts[IIdx];
      bool IsLast = IIdx + 1 == BB.Insts.size();
      if (I.isTerminator() != IsLast)
        return Fail(Where + " instruction " + std::to_string(IIdx) +
                    (IsLast ? " does not end in a terminator"
                            : " has a terminator in the middle"));
      // Register operands in range.
      for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
        RegId R = I.regField(Field);
        if (R == NoReg || R >= F.NumRegs)
          return Fail(Where + ": '" + toString(I) +
                      "' references register out of range");
      }
      if (I.isSpill() &&
          (I.Imm < 0 || static_cast<uint64_t>(I.Imm) >= F.NumSpillSlots))
        return Fail(Where + ": '" + toString(I) + "' spill slot out of range");
      if (I.Op == Opcode::SetLastReg &&
          (I.Imm < 0 || static_cast<uint64_t>(I.Imm) >= F.NumRegs))
        return Fail(Where + ": set_last_reg value out of range");
      if (I.Op == Opcode::Br &&
          (I.Target0 >= F.Blocks.size() || I.Target1 >= F.Blocks.size()))
        return Fail(Where + ": branch target out of range");
      if (I.Op == Opcode::Jmp && I.Target0 >= F.Blocks.size())
        return Fail(Where + ": jump target out of range");
    }
  }
  return true;
}
