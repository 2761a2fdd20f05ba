//===- core/Encoder.cpp - Differential encoding and decoding --------------===//

#include "core/Encoder.h"

#include "core/AccessSequence.h"

#include <optional>

using namespace dra;

namespace {

/// Three-valued decode-state lattice: Unknown (no information yet, only
/// from unprocessed/unreachable paths), a concrete register value, or
/// Conflict (paths disagree).
struct DecodeState {
  enum Kind : uint8_t { Unknown, Value, Conflict } K = Unknown;
  RegId Reg = NoReg;

  static DecodeState unknown() { return {}; }
  static DecodeState value(RegId R) { return {Value, R}; }
  static DecodeState conflict() { return {Conflict, NoReg}; }

  bool operator==(const DecodeState &O) const {
    return K == O.K && (K != Value || Reg == O.Reg);
  }

  /// Lattice meet.
  DecodeState meet(const DecodeState &O) const {
    if (K == Unknown)
      return O;
    if (O.K == Unknown)
      return *this;
    if (K == Conflict || O.K == Conflict)
      return conflict();
    return Reg == O.Reg ? *this : conflict();
  }
};

/// First non-special register accessed in a block, if any.
std::optional<RegId> firstAccessOf(const Function &F, uint32_t Block,
                                   const EncodingConfig &C) {
  std::vector<Access> Seq = blockAccessSequence(F, Block, C);
  if (Seq.empty())
    return std::nullopt;
  return Seq.front().Reg;
}

/// Fixpoint of the decode-state dataflow over \p F (which may or may not
/// already contain SetLastReg instructions — they set the state like the
/// hardware does). Returns per-block entry states.
std::vector<DecodeState> entryStates(const Function &F,
                                     const EncodingConfig &C) {
  size_t NumBlocks = F.Blocks.size();

  // Per-block transfer: exit = f(entry). A SetLastReg or a register access
  // overwrites the state; otherwise the entry state flows through.
  // Precompute the last "state writer" of each block.
  SpecialRegLookup Special(C);
  std::vector<std::optional<RegId>> LastWriter(NumBlocks);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    std::optional<RegId> Last;
    const BasicBlock &BB = F.Blocks[B];
    for (const Instruction &I : BB.Insts) {
      if (I.Op == Opcode::SetLastReg) {
        Last = static_cast<RegId>(I.Imm);
        continue;
      }
      for (unsigned FieldPos : fieldOrder(I, C.Order)) {
        RegId R = I.regField(FieldPos);
        if (!Special.isSpecial(R))
          Last = R;
      }
    }
    LastWriter[B] = Last;
  }

  std::vector<DecodeState> Entry(NumBlocks, DecodeState::unknown());
  auto ExitOf = [&](uint32_t B) {
    return LastWriter[B] ? DecodeState::value(*LastWriter[B]) : Entry[B];
  };

  // last_reg is dynamic machine state: execution can never arrive at a
  // join through an unreachable predecessor, so its static exit state
  // must not constrain the meet. This matters for consistency, not just
  // precision — encodeFunction inserts a head set_last_reg into
  // unreachable blocks (their entry is Unknown), which gives them a
  // concrete exit in the *annotated* function. If that exit participated
  // in the dataflow, a reachable join that was clean before annotation
  // could become Conflict after it, and verifyDecodable would reject a
  // block the encoder (correctly) left unrepaired.
  std::vector<uint8_t> Reachable = F.reachableBlocks();

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      // The hardware initializes last_reg to 0 at function entry (the
      // paper's n0 = 0 convention), modeled as a virtual predecessor of
      // block 0.
      DecodeState New =
          B == 0 ? DecodeState::value(0) : DecodeState::unknown();
      for (uint32_t Pred : F.Blocks[B].Preds)
        if (Reachable[Pred])
          New = New.meet(ExitOf(Pred));
      if (!(New == Entry[B])) {
        Entry[B] = New;
        Changed = true;
      }
    }
  }
  return Entry;
}

} // namespace

EncodedFunction dra::encodeFunction(const Function &F,
                                    const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  assert(F.NumRegs <= C.RegN && "function uses more registers than RegN");

  EncodedFunction Out;
  Out.Annotated = F;
  // Annotated keeps the machine register universe.
  Out.Annotated.NumRegs = std::max(F.NumRegs, C.RegN);

  std::vector<DecodeState> Entry = entryStates(F, C);
  SpecialRegLookup Special(C);

  size_t NumBlocks = F.Blocks.size();
  Out.Codes.resize(NumBlocks);

  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &OldBB = F.Blocks[B];
    std::vector<Instruction> NewInsts;
    std::vector<std::vector<uint8_t>> NewCodes;

    // Establish the block-entry decode state.
    RegId Last;
    if (Entry[B].K == DecodeState::Value) {
      Last = Entry[B].Reg;
    } else {
      // Forced: predecessors disagree (Conflict) or the block is
      // unreachable (Unknown). Insert a head set_last_reg; aim it at the
      // block's first access so that field encodes difference 0.
      std::optional<RegId> First = firstAccessOf(F, B, C);
      Last = First.value_or(0);
      Instruction Slr;
      Slr.Op = Opcode::SetLastReg;
      Slr.Imm = Last;
      Slr.Aux = 0;
      NewInsts.push_back(Slr);
      NewCodes.emplace_back();
      ++Out.Stats.SetLastJoin;
    }

    for (const Instruction &I : OldBB.Insts) {
      assert(I.Op != Opcode::SetLastReg &&
             "input to encodeFunction already annotated");
      // Simulate field decoding, gathering out-of-range repairs.
      std::vector<Instruction> Pending;
      std::vector<uint8_t> FieldCodes;
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        RegId R = I.regField(Fields[Pos]);
        if (Special.isSpecial(R)) {
          FieldCodes.push_back(static_cast<uint8_t>(Special.specialCode(R)));
          continue;
        }
        assert(R < C.RegN && "register out of encodable range");
        unsigned Diff = C.diffOf(Last, R);
        if (Diff >= C.DiffN) {
          Instruction Slr;
          Slr.Op = Opcode::SetLastReg;
          Slr.Imm = R;
          Slr.Aux = Pos; // Takes effect after Pos fields are decoded.
          Pending.push_back(Slr);
          ++Out.Stats.SetLastRange;
          Diff = 0;
        }
        FieldCodes.push_back(static_cast<uint8_t>(Diff));
        Last = R;
      }
      for (const Instruction &Slr : Pending) {
        NewInsts.push_back(Slr);
        NewCodes.emplace_back();
      }
      NewInsts.push_back(I);
      NewCodes.push_back(std::move(FieldCodes));
      Out.Stats.NumFields += Fields.size();
    }

    Out.Annotated.Blocks[B].Insts = std::move(NewInsts);
    Out.Codes[B] = std::move(NewCodes);
  }

  Out.Annotated.recomputeCFG();
  Out.Stats.NumInsts = Out.Annotated.numInsts();
  Out.Stats.FieldBits = Out.Stats.NumFields * C.DiffW;
  return Out;
}

Function dra::decodeFunction(const EncodedFunction &E,
                             const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  const Function &A = E.Annotated;
  Function Out = A;

  std::vector<DecodeState> Entry = entryStates(A, C);

  for (uint32_t B = 0, NumBlocks = static_cast<uint32_t>(A.Blocks.size());
       B != NumBlocks; ++B) {
    // Every reachable block with register fields must have a concrete
    // entry state; verifyDecodable() guards this. For robustness we fall
    // back to 0 (only possible for unreachable blocks without a head slr).
    RegId Last = Entry[B].K == DecodeState::Value ? Entry[B].Reg : 0;
    const BasicBlock &BB = A.Blocks[B];

    // Pending delayed set_last_reg assignments: (delay, value) applied
    // before the field with that position in the *next* non-slr
    // instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;

    for (uint32_t IIdx = 0; IIdx != BB.Insts.size(); ++IIdx) {
      const Instruction &I = BB.Insts[IIdx];
      if (I.Op == Opcode::SetLastReg) {
        if (I.Aux == 0)
          Last = static_cast<RegId>(I.Imm);
        else
          PendingSlr.push_back({I.Aux, static_cast<RegId>(I.Imm)});
        continue;
      }
      const std::vector<uint8_t> &FieldCodes = E.Codes[B][IIdx];
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      assert(FieldCodes.size() == Fields.size() && "code/field mismatch");
      Instruction &OutInst = Out.Blocks[B].Insts[IIdx];
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            Last = Value;
        unsigned Code = FieldCodes[Pos];
        RegId Decoded;
        if (Code >= C.DiffN) {
          // Reserved direct code for a special register.
          assert(Code - C.DiffN < C.SpecialRegs.size() &&
                 "invalid special code");
          Decoded = C.SpecialRegs[Code - C.DiffN];
        } else {
          Decoded = (Last + Code) % C.RegN;
          Last = Decoded;
        }
        OutInst.setRegField(Fields[Pos], Decoded);
      }
      PendingSlr.clear();
    }
  }
  return Out;
}

bool dra::verifyDecodable(const Function &Annotated, const EncodingConfig &C,
                          std::string *Err) {
  auto Fail = [&](uint32_t Block, const std::string &Msg) {
    if (Err)
      *Err = "bb" + std::to_string(Block) + ": " + Msg;
    return false;
  };
  // A function with no blocks has no register fields to decode; it is
  // vacuously decodable (the reachability seed below would index Blocks[0]
  // otherwise).
  if (Annotated.Blocks.empty())
    return true;
  std::vector<DecodeState> Entry = entryStates(Annotated, C);
  SpecialRegLookup Special(C);

  // Reachability, so unreachable blocks are exempt.
  std::vector<uint8_t> Reachable = Annotated.reachableBlocks();

  for (uint32_t B = 0; B != Annotated.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    DecodeState State = Entry[B];
    // Delayed set_last_reg forms pending application, exactly as in the
    // hardware decoder: (delay, value) applies right before the field with
    // that position in the next real instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    for (const Instruction &I : Annotated.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        if (I.Aux == 0)
          State = DecodeState::value(static_cast<RegId>(I.Imm));
        else
          PendingSlr.push_back({I.Aux, static_cast<RegId>(I.Imm)});
        continue;
      }
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      // The decoder clears pending assignments after every real
      // instruction, so a delay_num beyond this instruction's field count
      // would silently never apply — the hardware model would keep it
      // pending instead. Reject such annotations rather than letting the
      // decoder diverge from the hardware.
      for (const auto &[Delay, Value] : PendingSlr)
        if (Delay >= Fields.size())
          return Fail(B, "delayed set_last_reg (delay " +
                             std::to_string(Delay) +
                             ") never applies: next instruction has only " +
                             std::to_string(Fields.size()) +
                             " register field(s)");
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            State = DecodeState::value(Value);
        RegId R = I.regField(Fields[Pos]);
        if (Special.isSpecial(R))
          continue;
        if (State.K != DecodeState::Value)
          return Fail(B, "register field decoded with ambiguous last_reg");
        if (!C.encodable(State.Reg, R))
          return Fail(B, "difference out of range without set_last_reg");
        State = DecodeState::value(R);
      }
      PendingSlr.clear();
    }
    if (!PendingSlr.empty())
      return Fail(B, "delayed set_last_reg dangles at block end (no "
                     "following instruction)");
  }
  return true;
}

std::vector<std::optional<RegId>>
dra::decodeEntryStates(const Function &F, const EncodingConfig &C) {
  std::vector<DecodeState> States = entryStates(F, C);
  std::vector<std::optional<RegId>> Out(States.size());
  for (size_t B = 0; B != States.size(); ++B)
    if (States[B].K == DecodeState::Value)
      Out[B] = States[B].Reg;
  return Out;
}

Function dra::stripSetLastReg(const Function &F) {
  Function Out = F;
  for (BasicBlock &BB : Out.Blocks) {
    std::vector<Instruction> Kept;
    Kept.reserve(BB.Insts.size());
    for (const Instruction &I : BB.Insts)
      if (I.Op != Opcode::SetLastReg)
        Kept.push_back(I);
    BB.Insts = std::move(Kept);
  }
  Out.recomputeCFG();
  return Out;
}

size_t dra::codeSizeBytes(const Function &F, unsigned BytesPerInst) {
  return F.numInsts() * BytesPerInst;
}
