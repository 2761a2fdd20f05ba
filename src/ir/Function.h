//===- ir/Function.h - Basic blocks, functions, modules ---------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow-graph containers for the reproduction IR. Blocks are stored
/// by index inside their Function (the index doubles as the layout order the
/// encoder uses), and edges are recomputed from terminators on demand so
/// that passes can freely rewrite instruction lists.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_FUNCTION_H
#define DRA_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <string>
#include <vector>

namespace dra {

/// A basic block: a straight-line instruction list ending in a terminator
/// (except possibly during construction).
struct BasicBlock {
  std::vector<Instruction> Insts;
  /// Successor/predecessor block indices; maintained by
  /// Function::recomputeCFG().
  std::vector<uint32_t> Succs;
  std::vector<uint32_t> Preds;

  const Instruction *terminator() const {
    if (Insts.empty() || !Insts.back().isTerminator())
      return nullptr;
    return &Insts.back();
  }
};

/// A function: an entry block (index 0), a register universe, a data-memory
/// size and a spill area.
struct Function {
  std::string Name;
  std::vector<BasicBlock> Blocks;
  /// Number of registers referenced: virtual registers before allocation,
  /// or the machine RegN afterwards.
  uint32_t NumRegs = 0;
  /// Words in the per-function data array addressed by Load/Store.
  uint32_t MemWords = 0;
  /// Spill slots used by SpillLd/SpillSt.
  uint32_t NumSpillSlots = 0;

  /// Allocates a fresh (virtual) register id.
  RegId makeReg() { return NumRegs++; }

  /// Appends an empty block; returns its index.
  uint32_t makeBlock() {
    Blocks.emplace_back();
    return static_cast<uint32_t>(Blocks.size() - 1);
  }

  /// Recomputes Succs/Preds of every block from the terminators.
  void recomputeCFG();

  /// Per block, 1 if it is reachable from the entry block along Succs
  /// edges (as last computed by recomputeCFG), else 0. Empty for a
  /// function with no blocks.
  std::vector<uint8_t> reachableBlocks() const;

  /// Total number of instructions across all blocks.
  size_t numInsts() const;

  /// Number of spill-area accesses (SpillLd/SpillSt) across all blocks.
  size_t numSpillInsts() const;

  /// Number of SetLastReg pseudo instructions across all blocks.
  size_t numSetLastRegs() const;
};

/// A named collection of functions. The interpreter treats the function
/// "main" (or the first function when absent) as the program entry.
struct Module {
  std::string Name;
  std::vector<Function> Funcs;
};

/// Renders \p F as human-readable text (one instruction per line).
std::string printFunction(const Function &F);

/// Structural validity check: every block ends in exactly one terminator
/// (which is its last instruction), branch targets are in range, register
/// ids are < NumRegs, spill slots are < NumSpillSlots, and SetLastReg values
/// are < NumRegs. On failure returns false and, if \p Err is non-null,
/// stores a diagnostic.
bool verifyFunction(const Function &F, std::string *Err = nullptr);

} // namespace dra

#endif // DRA_IR_FUNCTION_H
