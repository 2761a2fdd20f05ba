//===- opt/SimplifyCfg.cpp - CFG simplification -----------------------------===//

#include "opt/SimplifyCfg.h"

#include <cassert>

using namespace dra;

namespace {

/// Removes blocks unreachable from the entry; compacts indices. Returns
/// the number of blocks removed.
size_t removeUnreachable(Function &F) {
  F.recomputeCFG();
  std::vector<uint8_t> Reachable = F.reachableBlocks();
  std::vector<uint32_t> NewIndex(F.Blocks.size(), NoBlock);
  std::vector<BasicBlock> Kept;
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    NewIndex[B] = static_cast<uint32_t>(Kept.size());
    Kept.push_back(std::move(F.Blocks[B]));
  }
  size_t Removed = F.Blocks.size() - Kept.size();
  F.Blocks = std::move(Kept);
  for (BasicBlock &BB : F.Blocks)
    for (Instruction &I : BB.Insts) {
      if (I.Target0 != NoBlock)
        I.Target0 = NewIndex[I.Target0];
      if (I.Target1 != NoBlock)
        I.Target1 = NewIndex[I.Target1];
    }
  F.recomputeCFG();
  return Removed;
}

} // namespace

SimplifyCfgStats dra::simplifyCfg(Function &F) {
  SimplifyCfgStats Stats;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Stats.UnreachableRemoved += removeUnreachable(F);

    // Fold br with identical targets into jmp.
    for (BasicBlock &BB : F.Blocks) {
      Instruction *Term =
          BB.Insts.empty() ? nullptr : &BB.Insts.back();
      if (Term && Term->Op == Opcode::Br && Term->Target0 == Term->Target1) {
        Instruction Jmp;
        Jmp.Op = Opcode::Jmp;
        Jmp.Target0 = Term->Target0;
        *Term = Jmp;
        ++Stats.BranchesFolded;
        Changed = true;
      }
    }
    F.recomputeCFG();

    // Merge B into its unique predecessor P when P ends in `jmp B` and B
    // has no other predecessors (and is not the entry).
    for (uint32_t B = 1; B != F.Blocks.size(); ++B) {
      if (F.Blocks[B].Preds.size() != 1 || F.Blocks[B].Insts.empty())
        continue;
      uint32_t P = F.Blocks[B].Preds[0];
      if (P == B)
        continue;
      const Instruction *Term = F.Blocks[P].terminator();
      if (!Term || Term->Op != Opcode::Jmp || Term->Target0 != B)
        continue;
      // Splice: drop P's jmp, append B's instructions, leave B empty (it
      // becomes unreachable and is collected next round).
      F.Blocks[P].Insts.pop_back();
      F.Blocks[P].Insts.insert(F.Blocks[P].Insts.end(),
                               F.Blocks[B].Insts.begin(),
                               F.Blocks[B].Insts.end());
      // Make B a self-contained unreachable stub so the function stays
      // structurally valid until cleanup.
      F.Blocks[B].Insts.clear();
      Instruction Stub;
      Stub.Op = Opcode::Ret;
      Stub.Src1 = 0;
      F.Blocks[B].Insts.push_back(Stub);
      ++Stats.BlocksMerged;
      Changed = true;
      F.recomputeCFG();
    }
  }
  return Stats;
}
