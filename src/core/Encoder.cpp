//===- core/Encoder.cpp - Differential encoding and decoding --------------===//

#include "core/Encoder.h"

#include "core/AccessSequence.h"

#include <algorithm>
#include <numeric>

using namespace dra;

namespace {

/// Registers 0..N-1.
std::vector<RegId> firstRegs(unsigned N) {
  std::vector<RegId> Regs(N);
  std::iota(Regs.begin(), Regs.end(), 0);
  return Regs;
}

/// Three-valued decode-state lattice of one class's last_reg: Unknown (no
/// information yet, only from unprocessed/unreachable paths), a concrete
/// class-local number, or Conflict (paths disagree).
struct DecodeState {
  enum Kind : uint8_t { Unknown, Value, Conflict } K = Unknown;
  unsigned Local = 0;

  static DecodeState value(unsigned L) { return {Value, L}; }

  bool operator==(const DecodeState &O) const {
    return K == O.K && (K != Value || Local == O.Local);
  }

  /// Lattice meet.
  DecodeState meet(const DecodeState &O) const {
    if (K == Unknown)
      return O;
    if (O.K == Unknown)
      return *this;
    if (K == Conflict || O.K == Conflict)
      return {Conflict, 0};
    return Local == O.Local ? *this : DecodeState{Conflict, 0};
  }
};

/// What one block does to one class's last_reg: with Sets it leaves it at
/// Local whatever it was on entry; otherwise it advances it by Local
/// (modulo the class size), so 0 passes the entry state through.
struct Transfer {
  bool Sets = false;
  unsigned Local = 0;
};

/// Per-block, per-class tables are flat: block B's row starts at
/// [B * NumClasses].
template <typename Vec> auto blockRow(Vec &V, uint32_t B, unsigned NC) {
  return V.data() + static_cast<size_t>(B) * NC;
}

/// The value a set_last_reg assigns (its class is implied by the value).
RegId slrValue(const Instruction &I) { return static_cast<RegId>(I.Imm); }

Instruction setLastReg(RegId Value, uint32_t Delay) {
  Instruction Slr;
  Slr.Op = Opcode::SetLastReg;
  Slr.Imm = Value;
  Slr.Aux = Delay;
  return Slr;
}

/// Block transfers read from register fields (an encoder input, or an
/// annotated function under verification): a class's last set_last_reg
/// or non-special field sets it. Operands outside \p P change nothing
/// here; the walks that read them report them.
std::vector<Transfer> registerTransfers(const Function &F,
                                        const RegPartition &P) {
  unsigned NC = P.numClasses();
  std::vector<Transfer> T(F.Blocks.size() * NC);
  for (uint32_t B = 0; B != F.Blocks.size(); ++B) {
    Transfer *Row = blockRow(T, B, NC);
    for (const Instruction &I : F.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        RegId R = slrValue(I);
        if (P.contains(R))
          Row[P.classOf(R)] = {true, P.localOf(R)};
        continue;
      }
      for (unsigned FieldPos : fieldOrder(I, P.order())) {
        RegId R = I.regField(FieldPos);
        if (P.contains(R) && !P.isSpecial(R))
          Row[P.classOf(R)] = {true, P.localOf(R)};
      }
    }
  }
  return T;
}

/// The entry-state dataflow: the fixpoint, per block and class, of the
/// meet over the exits of the block's reachable predecessors.
std::vector<DecodeState> entryStates(const Function &F, const RegPartition &P,
                                     const std::vector<Transfer> &T) {
  size_t NumBlocks = F.Blocks.size();
  unsigned NC = P.numClasses();
  std::vector<DecodeState> Entry(NumBlocks * NC);
  auto ExitOf = [&](uint32_t B, unsigned C) {
    const Transfer &X = blockRow(T, B, NC)[C];
    if (X.Sets)
      return DecodeState::value(X.Local);
    DecodeState S = blockRow(Entry, B, NC)[C];
    if (S.K == DecodeState::Value && X.Local != 0)
      S.Local = (S.Local + X.Local) %
                static_cast<unsigned>(P.cls(C).Members.size());
    return S;
  };

  // last_reg is dynamic machine state: execution can never arrive at a
  // join through an unreachable predecessor, so its static exit state
  // must not constrain the meet. This matters for consistency, not just
  // precision — the encoder inserts a head set_last_reg into unreachable
  // blocks (their entry is Unknown), which gives them a concrete exit in
  // the *annotated* function. If that exit participated in the dataflow,
  // a reachable join that was clean before annotation could become
  // Conflict after it, and verifyDecodable would reject a block the
  // encoder (correctly) left unrepaired.
  std::vector<uint8_t> Reachable = F.reachableBlocks();

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      DecodeState *Row = blockRow(Entry, B, NC);
      for (unsigned C = 0; C != NC; ++C) {
        // The hardware initializes every class's last_reg to its member 0
        // at function entry (the paper's n0 = 0 convention), modeled as a
        // virtual predecessor of block 0.
        DecodeState New = B == 0 ? DecodeState::value(0) : DecodeState();
        for (uint32_t Pred : F.Blocks[B].Preds)
          if (Reachable[Pred])
            New = New.meet(ExitOf(Pred, C));
        if (!(New == Row[C])) {
          Row[C] = New;
          Changed = true;
        }
      }
    }
  }
  return Entry;
}

std::vector<DecodeState> entryStatesOfRegisters(const Function &F,
                                                const RegPartition &P) {
  return entryStates(F, P, registerTransfers(F, P));
}

/// Each class's first non-special access in \p BB, or NoReg.
std::vector<RegId> firstAccesses(const BasicBlock &BB, const RegPartition &P) {
  std::vector<RegId> First(P.numClasses(), NoReg);
  for (const Instruction &I : BB.Insts)
    for (unsigned FieldPos : fieldOrder(I, P.order())) {
      RegId R = I.regField(FieldPos);
      if (!P.isSpecial(R) && First[P.classOf(R)] == NoReg)
        First[P.classOf(R)] = R;
    }
  return First;
}

} // namespace

RegPartition::RegPartition(const EncodingConfig &C)
    : RegPartition({Class{firstRegs(C.RegN), C.SpecialRegs, C.DiffN, C.DiffW}},
                   C.Order) {}

RegPartition::RegPartition(std::vector<Class> Cs, AccessOrder O)
    : Classes(std::move(Cs)), Order(O) {
  for (unsigned C = 0; C != Classes.size(); ++C) {
    const Class &Cls = Classes[C];
    for (unsigned L = 0; L != Cls.Members.size(); ++L) {
      RegId R = Cls.Members[L];
      if (R >= Regs.size())
        Regs.resize(R + 1);
      Regs[R].Class = C;
      Regs[R].Local = L;
    }
    for (unsigned S = 0; S != Cls.Specials.size(); ++S) {
      assert(contains(Cls.Specials[S]) && "special register in no class");
      if (contains(Cls.Specials[S]))
        Regs[Cls.Specials[S]].Code = Cls.DiffN + S;
    }
  }
}

EncodedFunction dra::encodeFunction(const Function &F, const RegPartition &P,
                                    std::vector<EncodeStats> *PerClass) {
  unsigned NC = P.numClasses();
  std::vector<EncodeStats> Stats(NC);

  EncodedFunction Out;
  Out.Annotated = F;
  // Annotated keeps the machine register universe.
  Out.Annotated.NumRegs = std::max(F.NumRegs, P.numRegs());

  std::vector<DecodeState> Entry = entryStatesOfRegisters(F, P);

  size_t NumBlocks = F.Blocks.size();
  Out.Codes.resize(NumBlocks);
  std::vector<unsigned> Last(NC);

  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &OldBB = F.Blocks[B];
    std::vector<Instruction> NewInsts;
    std::vector<std::vector<uint8_t>> NewCodes;

    // Establish the block-entry decode state. A class whose predecessors
    // disagree (Conflict) or that no reachable path enters (Unknown) is
    // repaired by a head set_last_reg, aimed at the class's first access
    // so that field encodes difference 0, or else at its member 0.
    const DecodeState *Row = blockRow(Entry, B, NC);
    std::vector<RegId> First;
    for (unsigned C = 0; C != NC; ++C) {
      if (Row[C].K == DecodeState::Value) {
        Last[C] = Row[C].Local;
        continue;
      }
      if (First.empty())
        First = firstAccesses(OldBB, P);
      RegId Aim = First[C] != NoReg ? First[C] : P.cls(C).Members[0];
      NewInsts.push_back(setLastReg(Aim, 0));
      NewCodes.emplace_back();
      ++Stats[C].SetLastJoin;
      Last[C] = P.localOf(Aim);
    }

    for (const Instruction &I : OldBB.Insts) {
      assert(I.Op != Opcode::SetLastReg &&
             "input to encodeFunction already annotated");
      // Simulate field decoding; out-of-range repairs go in front of I.
      std::vector<uint8_t> FieldCodes;
      std::vector<unsigned> Fields = fieldOrder(I, P.order());
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        RegId R = I.regField(Fields[Pos]);
        assert(P.contains(R) && "register out of encodable range");
        unsigned C = P.classOf(R);
        const RegPartition::Class &Cls = P.cls(C);
        ++Stats[C].NumFields;
        Stats[C].FieldBits += Cls.DiffW;
        if (P.isSpecial(R)) {
          FieldCodes.push_back(static_cast<uint8_t>(P.specialCode(R)));
          continue;
        }
        unsigned Size = static_cast<unsigned>(Cls.Members.size());
        unsigned Local = P.localOf(R);
        unsigned Diff = (Local + Size - Last[C]) % Size;
        if (Diff >= Cls.DiffN) {
          // Takes effect after Pos fields are decoded.
          NewInsts.push_back(setLastReg(R, Pos));
          NewCodes.emplace_back();
          ++Stats[C].SetLastRange;
          Diff = 0;
        }
        FieldCodes.push_back(static_cast<uint8_t>(Diff));
        Last[C] = Local;
      }
      NewInsts.push_back(I);
      NewCodes.push_back(std::move(FieldCodes));
    }

    Out.Annotated.Blocks[B].Insts = std::move(NewInsts);
    Out.Codes[B] = std::move(NewCodes);
  }

  Out.Annotated.recomputeCFG();
  size_t NumInsts = Out.Annotated.numInsts();
  for (EncodeStats &S : Stats) {
    S.NumInsts = NumInsts;
    Out.Stats.SetLastJoin += S.SetLastJoin;
    Out.Stats.SetLastRange += S.SetLastRange;
    Out.Stats.FieldBits += S.FieldBits;
    Out.Stats.NumFields += S.NumFields;
  }
  Out.Stats.NumInsts = NumInsts;
  if (PerClass)
    *PerClass = std::move(Stats);
  return Out;
}

bool dra::decodeRegisters(Function &A, const CodeTable &Codes,
                          const RegPartition &P, std::string *Err) {
  auto Fail = [&](uint32_t Block, const std::string &Msg) {
    if (Err)
      *Err = "bb" + std::to_string(Block) + ": " + Msg;
    return false;
  };
  size_t NumBlocks = A.Blocks.size();
  unsigned NC = P.numClasses();
  if (Codes.size() != NumBlocks) {
    if (Err)
      *Err = "code table covers " + std::to_string(Codes.size()) +
             " block(s) of " + std::to_string(NumBlocks);
    return false;
  }

  // The decode walk over block B: replays its set_last_regs and decodes
  // each field from its code (Equation (2)), advancing Last, the
  // class-local last_reg of every class. Sets[C] records whether a
  // set_last_reg reached class C. With Write, the decoded registers
  // replace A's.
  std::vector<unsigned> Last(NC);
  std::vector<uint8_t> Sets(NC);
  auto DecodeBlock = [&](uint32_t B, bool Write) {
    BasicBlock &BB = A.Blocks[B];
    if (Codes[B].size() != BB.Insts.size())
      return Fail(B, "code table does not match the instructions");
    // Pending delayed set_last_reg assignments: (delay, value) applied
    // before the field with that position in the *next* non-slr
    // instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    auto SetLast = [&](RegId R) {
      if (!P.contains(R))
        return Fail(B, "set_last_reg value " + std::to_string(R) +
                           " outside the register partition");
      Last[P.classOf(R)] = P.localOf(R);
      Sets[P.classOf(R)] = 1;
      return true;
    };
    for (uint32_t IIdx = 0; IIdx != BB.Insts.size(); ++IIdx) {
      Instruction &I = BB.Insts[IIdx];
      if (I.Op == Opcode::SetLastReg) {
        if (I.Aux != 0)
          PendingSlr.push_back({I.Aux, slrValue(I)});
        else if (!SetLast(slrValue(I)))
          return false;
        continue;
      }
      const std::vector<uint8_t> &FieldCodes = Codes[B][IIdx];
      std::vector<unsigned> Fields = fieldOrder(I, P.order());
      if (FieldCodes.size() != Fields.size())
        return Fail(B, "code table does not match the register fields");
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos && !SetLast(Value))
            return false;
        // With one class every field is in it. With more, the field's
        // class is what a real ISA's opcode would say; here the annotated
        // register says it (the codes alone are class-ambiguous).
        unsigned C = 0;
        if (NC != 1) {
          RegId Annotated = I.regField(Fields[Pos]);
          if (!P.contains(Annotated))
            return Fail(B, "register r" + std::to_string(Annotated) +
                               " outside the register partition");
          C = P.classOf(Annotated);
        }
        const RegPartition::Class &Cls = P.cls(C);
        unsigned Code = FieldCodes[Pos];
        RegId Decoded;
        if (Code >= Cls.DiffN) {
          // Reserved direct code for a special register.
          if (Code - Cls.DiffN >= Cls.Specials.size())
            return Fail(B, "invalid special code " + std::to_string(Code));
          Decoded = Cls.Specials[Code - Cls.DiffN];
        } else {
          Last[C] = (Last[C] + Code) % static_cast<unsigned>(Cls.Members.size());
          Decoded = Cls.Members[Last[C]];
        }
        if (Write)
          I.setRegField(Fields[Pos], Decoded);
      }
      PendingSlr.clear();
    }
    return true;
  };

  // Pass 1: decode every block as if each class entered it at member 0,
  // which yields the block's transfer: a class a set_last_reg reached
  // leaves at a known number, any other advances by the difference codes
  // summed.
  std::vector<Transfer> T(NumBlocks * NC);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    std::fill(Last.begin(), Last.end(), 0u);
    std::fill(Sets.begin(), Sets.end(), uint8_t(0));
    if (!DecodeBlock(B, /*Write=*/false))
      return false;
    Transfer *Row = blockRow(T, B, NC);
    for (unsigned C = 0; C != NC; ++C)
      Row[C] = {Sets[C] != 0, Last[C]};
  }

  // Pass 2: decode every block from its entry state, the meet of its
  // reachable predecessors' exits. Every reachable block with a field
  // has a single value there when verifyDecodable accepts the annotated
  // function; anything else decodes from member 0.
  std::vector<DecodeState> Entry = entryStates(A, P, T);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const DecodeState *Row = blockRow(Entry, B, NC);
    for (unsigned C = 0; C != NC; ++C)
      Last[C] = Row[C].K == DecodeState::Value ? Row[C].Local : 0;
    if (!DecodeBlock(B, /*Write=*/true))
      return false;
  }
  return true;
}

bool dra::verifyDecodable(const Function &Annotated, const RegPartition &P,
                          std::string *Err) {
  auto Fail = [&](uint32_t Block, const std::string &Msg) {
    if (Err)
      *Err = "bb" + std::to_string(Block) + ": " + Msg;
    return false;
  };
  unsigned NC = P.numClasses();
  std::vector<DecodeState> Entry = entryStatesOfRegisters(Annotated, P);

  // Reachability, so unreachable blocks are exempt.
  std::vector<uint8_t> Reachable = Annotated.reachableBlocks();

  for (uint32_t B = 0; B != Annotated.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    std::vector<DecodeState> State(blockRow(Entry, B, NC),
                                   blockRow(Entry, B, NC) + NC);
    // Delayed set_last_reg forms pending application, exactly as in the
    // hardware decoder: (delay, value) applies right before the field with
    // that position in the next real instruction.
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    for (const Instruction &I : Annotated.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        RegId R = slrValue(I);
        if (!P.contains(R))
          return Fail(B, "set_last_reg value " + std::to_string(R) +
                             " outside the register partition");
        if (I.Aux == 0)
          State[P.classOf(R)] = DecodeState::value(P.localOf(R));
        else
          PendingSlr.push_back({I.Aux, R});
        continue;
      }
      std::vector<unsigned> Fields = fieldOrder(I, P.order());
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
            State[P.classOf(Value)] = DecodeState::value(P.localOf(Value));
        RegId R = I.regField(Fields[Pos]);
        if (!P.contains(R))
          return Fail(B, "register r" + std::to_string(R) +
                             " outside the register partition");
        if (P.isSpecial(R))
          continue;
        unsigned C = P.classOf(R);
        if (State[C].K != DecodeState::Value)
          return Fail(B, "register field decoded with ambiguous last_reg");
        unsigned Size = static_cast<unsigned>(P.cls(C).Members.size());
        if ((P.localOf(R) + Size - State[C].Local) % Size >= P.cls(C).DiffN)
          return Fail(B, "difference out of range without set_last_reg");
        State[C] = DecodeState::value(P.localOf(R));
      }
      PendingSlr.clear();
    }
    if (!PendingSlr.empty())
      return Fail(B, "delayed set_last_reg dangles at block end (no "
                     "following instruction)");
  }
  return true;
}

EncodedFunction dra::encodeFunction(const Function &F,
                                    const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  assert(F.NumRegs <= C.RegN && "function uses more registers than RegN");
  return encodeFunction(F, RegPartition(C));
}

Function dra::decodeFunction(const EncodedFunction &E,
                             const EncodingConfig &C) {
  assert(C.valid() && "invalid encoding configuration");
  Function Out = E.Annotated;
  [[maybe_unused]] bool Ok = decodeRegisters(Out, E.Codes, RegPartition(C));
  assert(Ok && "malformed encoded function");
  return Out;
}

bool dra::verifyDecodable(const Function &Annotated, const EncodingConfig &C,
                          std::string *Err) {
  return verifyDecodable(Annotated, RegPartition(C), Err);
}

std::vector<std::optional<RegId>>
dra::decodeEntryStates(const Function &F, const EncodingConfig &C) {
  // One class whose class-local numbers are the register numbers.
  std::vector<DecodeState> States = entryStatesOfRegisters(F, RegPartition(C));
  std::vector<std::optional<RegId>> Out(States.size());
  for (size_t B = 0; B != States.size(); ++B)
    if (States[B].K == DecodeState::Value)
      Out[B] = States[B].Local;
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
