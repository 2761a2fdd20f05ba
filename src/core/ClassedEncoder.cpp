//===- core/ClassedEncoder.cpp - Multi-class differential encoding --------===//

#include "core/ClassedEncoder.h"

#include "core/AccessSequence.h"

#include <cassert>

using namespace dra;

unsigned ClassedConfig::totalRegs() const {
  unsigned Total = 0;
  for (const RegClass &Cls : Classes)
    Total += static_cast<unsigned>(Cls.Members.size());
  return Total;
}

unsigned ClassedConfig::classOf(RegId R) const {
  for (unsigned Idx = 0; Idx != Classes.size(); ++Idx)
    for (RegId M : Classes[Idx].Members)
      if (M == R)
        return Idx;
  assert(false && "register not in any class");
  return 0;
}

unsigned ClassedConfig::localIndex(RegId R) const {
  unsigned Cls = classOf(R);
  for (unsigned I = 0; I != Classes[Cls].Members.size(); ++I)
    if (Classes[Cls].Members[I] == R)
      return I;
  assert(false && "register not in its class");
  return 0;
}

bool ClassedConfig::valid(unsigned NumRegs) const {
  std::vector<int> Owner(NumRegs, -1);
  for (unsigned Idx = 0; Idx != Classes.size(); ++Idx) {
    const RegClass &Cls = Classes[Idx];
    if (Cls.Members.empty() || Cls.DiffN == 0 || Cls.DiffW == 0)
      return false;
    if (Cls.DiffN > (1u << Cls.DiffW))
      return false;
    if (Cls.DiffN > Cls.Members.size())
      return false;
    for (RegId M : Cls.Members) {
      if (M >= NumRegs || Owner[M] != -1)
        return false;
      Owner[M] = static_cast<int>(Idx);
    }
  }
  for (int O : Owner)
    if (O == -1)
      return false;
  return true;
}

namespace {

/// Per-class decode state: NoReg-as-unknown plus a conflict flag.
struct ClassState {
  enum Kind : uint8_t { Unknown, Value, Conflict } K = Unknown;
  unsigned Local = 0; // Class-local index when K == Value.

  bool operator==(const ClassState &O) const {
    return K == O.K && (K != Value || Local == O.Local);
  }
  ClassState meet(const ClassState &O) const {
    if (K == Unknown)
      return O;
    if (O.K == Unknown)
      return *this;
    if (K == Conflict || O.K == Conflict)
      return {Conflict, 0};
    return Local == O.Local ? *this : ClassState{Conflict, 0};
  }
};

/// Per-block, per-class entry states of \p F (which may contain slr).
std::vector<std::vector<ClassState>>
classedEntryStates(const Function &F, const ClassedConfig &C) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumClasses = C.Classes.size();

  // Last writer per (block, class): class-local index, or -1.
  std::vector<std::vector<int>> LastWriter(
      NumBlocks, std::vector<int>(NumClasses, -1));
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    for (const Instruction &I : F.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        RegId R = static_cast<RegId>(I.Imm);
        LastWriter[B][C.classOf(R)] = static_cast<int>(C.localIndex(R));
        continue;
      }
      for (unsigned FieldPos : fieldOrder(I, C.Order)) {
        RegId R = I.regField(FieldPos);
        LastWriter[B][C.classOf(R)] = static_cast<int>(C.localIndex(R));
      }
    }
  }

  std::vector<std::vector<ClassState>> Entry(
      NumBlocks, std::vector<ClassState>(NumClasses));
  auto ExitOf = [&](uint32_t B, unsigned Cls) {
    if (LastWriter[B][Cls] >= 0)
      return ClassState{ClassState::Value,
                        static_cast<unsigned>(LastWriter[B][Cls])};
    return Entry[B][Cls];
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B = 0; B != NumBlocks; ++B) {
      for (unsigned Cls = 0; Cls != NumClasses; ++Cls) {
        // Function entry initializes every class's last_reg to local 0.
        ClassState New = B == 0 ? ClassState{ClassState::Value, 0}
                                : ClassState{};
        for (uint32_t Pred : F.Blocks[B].Preds)
          New = New.meet(ExitOf(Pred, Cls));
        if (!(New == Entry[B][Cls])) {
          Entry[B][Cls] = New;
          Changed = true;
        }
      }
    }
  }
  return Entry;
}

} // namespace

ClassedEncodedFunction
dra::encodeClassedFunction(const Function &F, const ClassedConfig &C) {
  assert(C.valid(F.NumRegs) && "invalid class partition for this function");
  size_t NumClasses = C.Classes.size();

  ClassedEncodedFunction Out;
  Out.Annotated = F;
  Out.Stats.PerClass.resize(NumClasses);

  std::vector<std::vector<ClassState>> Entry = classedEntryStates(F, C);

  size_t NumBlocks = F.Blocks.size();
  Out.Codes.resize(NumBlocks);

  for (uint32_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &OldBB = F.Blocks[B];
    std::vector<Instruction> NewInsts;
    std::vector<std::vector<uint8_t>> NewCodes;

    // Establish the per-class entry state; repair ambiguous classes that
    // are actually accessed in this block.
    std::vector<int> Last(NumClasses, -1);
    for (unsigned Cls = 0; Cls != NumClasses; ++Cls)
      if (Entry[B][Cls].K == ClassState::Value)
        Last[Cls] = static_cast<int>(Entry[B][Cls].Local);

    // First access per class in this block (for head repairs).
    std::vector<int> FirstLocal(NumClasses, -1);
    for (const Instruction &I : OldBB.Insts)
      for (unsigned FieldPos : fieldOrder(I, C.Order)) {
        RegId R = I.regField(FieldPos);
        unsigned Cls = C.classOf(R);
        if (FirstLocal[Cls] < 0)
          FirstLocal[Cls] = static_cast<int>(C.localIndex(R));
      }
    for (unsigned Cls = 0; Cls != NumClasses; ++Cls) {
      if (Last[Cls] >= 0 || FirstLocal[Cls] < 0)
        continue;
      Instruction Slr;
      Slr.Op = Opcode::SetLastReg;
      Slr.Imm = C.Classes[Cls].Members[FirstLocal[Cls]];
      Slr.Aux = 0;
      NewInsts.push_back(Slr);
      NewCodes.emplace_back();
      ++Out.Stats.PerClass[Cls].SetLastJoin;
      Last[Cls] = FirstLocal[Cls];
    }

    for (const Instruction &I : OldBB.Insts) {
      assert(I.Op != Opcode::SetLastReg && "input already annotated");
      std::vector<Instruction> Pending;
      std::vector<uint8_t> FieldCodes;
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        RegId R = I.regField(Fields[Pos]);
        unsigned Cls = C.classOf(R);
        unsigned N = static_cast<unsigned>(C.Classes[Cls].Members.size());
        unsigned LocalIdx = C.localIndex(R);
        assert(Last[Cls] >= 0 && "class state must be known here");
        unsigned Diff =
            (LocalIdx + N - static_cast<unsigned>(Last[Cls])) % N;
        if (Diff >= C.Classes[Cls].DiffN) {
          Instruction Slr;
          Slr.Op = Opcode::SetLastReg;
          Slr.Imm = R;
          Slr.Aux = Pos;
          Pending.push_back(Slr);
          ++Out.Stats.PerClass[Cls].SetLastRange;
          Diff = 0;
        }
        FieldCodes.push_back(static_cast<uint8_t>(Diff));
        Last[Cls] = static_cast<int>(LocalIdx);
        ++Out.Stats.PerClass[Cls].NumFields;
        Out.Stats.PerClass[Cls].FieldBits += C.Classes[Cls].DiffW;
      }
      for (const Instruction &Slr : Pending) {
        NewInsts.push_back(Slr);
        NewCodes.emplace_back();
      }
      NewInsts.push_back(I);
      NewCodes.push_back(std::move(FieldCodes));
    }

    Out.Annotated.Blocks[B].Insts = std::move(NewInsts);
    Out.Codes[B] = std::move(NewCodes);
  }

  Out.Annotated.recomputeCFG();
  for (EncodeStats &S : Out.Stats.PerClass)
    S.NumInsts = Out.Annotated.numInsts();
  return Out;
}

Function dra::decodeClassedFunction(const ClassedEncodedFunction &E,
                                    const ClassedConfig &C) {
  const Function &A = E.Annotated;
  Function Out = A;
  size_t NumClasses = C.Classes.size();

  std::vector<std::vector<ClassState>> Entry = classedEntryStates(A, C);

  for (uint32_t B = 0; B != A.Blocks.size(); ++B) {
    std::vector<int> Last(NumClasses, -1);
    for (unsigned Cls = 0; Cls != NumClasses; ++Cls)
      if (Entry[B][Cls].K == ClassState::Value)
        Last[Cls] = static_cast<int>(Entry[B][Cls].Local);

    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    const BasicBlock &BB = A.Blocks[B];
    for (uint32_t IIdx = 0; IIdx != BB.Insts.size(); ++IIdx) {
      const Instruction &I = BB.Insts[IIdx];
      if (I.Op == Opcode::SetLastReg) {
        RegId R = static_cast<RegId>(I.Imm);
        if (I.Aux == 0)
          Last[C.classOf(R)] = static_cast<int>(C.localIndex(R));
        else
          PendingSlr.push_back({I.Aux, R});
        continue;
      }
      const std::vector<uint8_t> &FieldCodes = E.Codes[B][IIdx];
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      assert(FieldCodes.size() == Fields.size() && "code/field mismatch");
      Instruction &OutInst = Out.Blocks[B].Insts[IIdx];
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            Last[C.classOf(Value)] =
                static_cast<int>(C.localIndex(Value));
        // The field's class is known statically from the opcode/field
        // position in a real ISA; here we recover it from the annotated
        // instruction (the codes alone are class-ambiguous by design).
        RegId Annotated = I.regField(Fields[Pos]);
        unsigned Cls = C.classOf(Annotated);
        unsigned N = static_cast<unsigned>(C.Classes[Cls].Members.size());
        assert(Last[Cls] >= 0 && "decoding with unknown class state");
        unsigned LocalIdx =
            (static_cast<unsigned>(Last[Cls]) + FieldCodes[Pos]) % N;
        OutInst.setRegField(Fields[Pos], C.Classes[Cls].Members[LocalIdx]);
        Last[Cls] = static_cast<int>(LocalIdx);
      }
      PendingSlr.clear();
    }
  }
  return Out;
}

bool dra::verifyClassedDecodable(const Function &Annotated,
                                 const ClassedConfig &C, std::string *Err) {
  auto Fail = [&](uint32_t Block, const std::string &Msg) {
    if (Err)
      *Err = "bb" + std::to_string(Block) + ": " + Msg;
    return false;
  };
  std::vector<std::vector<ClassState>> Entry =
      classedEntryStates(Annotated, C);

  std::vector<uint8_t> Reachable = Annotated.reachableBlocks();
  for (uint32_t B = 0; B != Annotated.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    std::vector<ClassState> State = Entry[B];
    std::vector<std::pair<uint32_t, RegId>> PendingSlr;
    for (const Instruction &I : Annotated.Blocks[B].Insts) {
      if (I.Op == Opcode::SetLastReg) {
        RegId R = static_cast<RegId>(I.Imm);
        if (I.Aux == 0)
          State[C.classOf(R)] = {ClassState::Value, C.localIndex(R)};
        else
          PendingSlr.push_back({I.Aux, R});
        continue;
      }
      std::vector<unsigned> Fields = fieldOrder(I, C.Order);
      for (unsigned Pos = 0; Pos != Fields.size(); ++Pos) {
        for (const auto &[Delay, Value] : PendingSlr)
          if (Delay == Pos)
            State[C.classOf(Value)] = {ClassState::Value,
                                       C.localIndex(Value)};
        RegId R = I.regField(Fields[Pos]);
        unsigned Cls = C.classOf(R);
        if (State[Cls].K != ClassState::Value)
          return Fail(B, "field decoded with ambiguous class state");
        unsigned N = static_cast<unsigned>(C.Classes[Cls].Members.size());
        unsigned Diff =
            (C.localIndex(R) + N - State[Cls].Local) % N;
        if (Diff >= C.Classes[Cls].DiffN)
          return Fail(B, "difference out of range without set_last_reg");
        State[Cls] = {ClassState::Value, C.localIndex(R)};
      }
      PendingSlr.clear();
    }
  }
  return true;
}
