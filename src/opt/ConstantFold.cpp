//===- opt/ConstantFold.cpp - Constant folding/propagation -----------------===//

#include "opt/ConstantFold.h"

#include <optional>
#include <unordered_map>

using namespace dra;

namespace {

/// Exact evaluation of a two-operand opcode, mirroring the interpreter's
/// total semantics (wrapping shifts, zero-result division).
std::optional<int64_t> evalBinary(Opcode Op, int64_t A, int64_t B) {
  auto Shift = [](int64_t Amount) { return Amount & 63; };
  // Wrapping two's complement, as the interpreter computes it.
  auto U = [](int64_t V) { return static_cast<uint64_t>(V); };
  switch (Op) {
  case Opcode::Add:
  case Opcode::AddI:
    return static_cast<int64_t>(U(A) + U(B));
  case Opcode::Sub:
    return static_cast<int64_t>(U(A) - U(B));
  case Opcode::Mul:
  case Opcode::MulI:
    return static_cast<int64_t>(U(A) * U(B));
  case Opcode::DivS:
    return B == 0 || (A == INT64_MIN && B == -1) ? 0 : A / B;
  case Opcode::Rem:
    return B == 0 || (A == INT64_MIN && B == -1) ? 0 : A % B;
  case Opcode::And:
  case Opcode::AndI:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
  case Opcode::XorI:
    return A ^ B;
  case Opcode::Shl:
  case Opcode::ShlI:
    return static_cast<int64_t>(static_cast<uint64_t>(A) << Shift(B));
  case Opcode::Shr:
  case Opcode::ShrI:
    return static_cast<int64_t>(static_cast<uint64_t>(A) >> Shift(B));
  case Opcode::CmpEQ:
    return A == B;
  case Opcode::CmpNE:
    return A != B;
  case Opcode::CmpLT:
    return A < B;
  case Opcode::CmpLE:
    return A <= B;
  default:
    return std::nullopt;
  }
}

bool isImmediateForm(Opcode Op) {
  switch (Op) {
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::AndI:
  case Opcode::XorI:
  case Opcode::ShlI:
  case Opcode::ShrI:
    return true;
  default:
    return false;
  }
}

} // namespace

ConstantFoldStats dra::foldConstants(Function &F) {
  ConstantFoldStats Stats;
  for (BasicBlock &BB : F.Blocks) {
    std::unordered_map<RegId, int64_t> Known;
    for (Instruction &I : BB.Insts) {
      auto Lookup = [&](RegId R) -> std::optional<int64_t> {
        auto It = Known.find(R);
        return It == Known.end() ? std::nullopt
                                 : std::optional<int64_t>(It->second);
      };

      // Fold a conditional branch on a known condition.
      if (I.Op == Opcode::Br) {
        if (auto Cond = Lookup(I.Src1)) {
          uint32_t Target = *Cond != 0 ? I.Target0 : I.Target1;
          Instruction Jmp;
          Jmp.Op = Opcode::Jmp;
          Jmp.Target0 = Target;
          I = Jmp;
          ++Stats.BranchesFolded;
        }
        continue;
      }

      RegId Def = I.def();
      std::optional<int64_t> Result;
      if (I.Op == Opcode::MovI) {
        Result = I.Imm;
      } else if (I.Op == Opcode::Mov) {
        Result = Lookup(I.Src1);
      } else if (isImmediateForm(I.Op)) {
        if (auto A = Lookup(I.Src1))
          Result = evalBinary(I.Op, *A, I.Imm);
      } else if (Def != NoReg && I.numRegFields() == 3) {
        auto A = Lookup(I.Src1);
        auto B = Lookup(I.Src2);
        if (A && B)
          Result = evalBinary(I.Op, *A, *B);
      }

      if (Def != NoReg) {
        if (Result) {
          if (I.Op != Opcode::MovI) {
            Instruction Mov;
            Mov.Op = Opcode::MovI;
            Mov.Dst = Def;
            Mov.Imm = *Result;
            I = Mov;
            ++Stats.InstsFolded;
          }
          Known[Def] = *Result;
        } else {
          Known.erase(Def);
        }
      }
    }
  }
  F.recomputeCFG();
  return Stats;
}
