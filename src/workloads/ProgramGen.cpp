//===- workloads/ProgramGen.cpp - Synthetic program generator -------------===//

#include "workloads/ProgramGen.h"

#include "adt/Rng.h"
#include "ir/IRBuilder.h"

#include <algorithm>

using namespace dra;

namespace {

/// Recursive structured-program emitter.
class Emitter {
public:
  Emitter(Function &F, IRBuilder &B, Rng &Random, const ProgramProfile &P)
      : F(F), B(B), Random(Random), P(P) {}

  /// Creates the accumulator pool in the current block.
  void initPool() {
    for (unsigned I = 0; I != P.PressureVars; ++I)
      Pool.push_back(B.createMovImm(Random.nextInRange(1, 1000)));
  }

  /// Emits \p Count statements at loop depth \p Depth. On return the
  /// builder sits in an open (unterminated) block.
  void emitStatements(unsigned Count, unsigned Depth) {
    for (unsigned I = 0; I != Count; ++I)
      emitStatement(Depth);
  }

  /// Folds the pool into a single register (used for the final result).
  RegId foldPool() {
    RegId Acc = Pool[0];
    for (size_t I = 1; I != Pool.size(); ++I)
      Acc = B.createBin(Opcode::Xor, Acc, Pool[I]);
    return Acc;
  }

private:
  Function &F;
  IRBuilder &B;
  Rng &Random;
  const ProgramProfile &P;
  std::vector<RegId> Pool;
  unsigned LoopDepth = 0;
  unsigned FocusIdx = 0;

  /// Real code exhibits strong value locality: a statement works on the
  /// couple of variables the surrounding statements work on. The focus
  /// index models that — most pool accesses hit the focus variable or its
  /// neighbor, and the focus drifts occasionally. Without it every pool
  /// pair becomes a (symmetric) adjacency edge, which makes the
  /// differential-encoding problem artificially dense.
  void maybeShiftFocus() {
    if (Random.withChance(22, 100))
      FocusIdx = static_cast<unsigned>(Random.nextBelow(Pool.size()));
  }

  RegId randomPoolVar() {
    unsigned Roll = static_cast<unsigned>(Random.nextBelow(100));
    if (Roll < 55)
      return Pool[FocusIdx];
    if (Roll < 80)
      return Pool[(FocusIdx + 1) % Pool.size()];
    return Random.pick(Pool);
  }

  /// One subexpression reading \p Operand (plus possibly a second pool
  /// value); returns the temporary holding the result.
  RegId emitPart(RegId Operand) {
    switch (Random.nextBelow(5)) {
    case 0:
      return B.createBin(Opcode::Add, Operand, randomPoolVar());
    case 1:
      return B.createBin(Opcode::Mul, Operand, randomPoolVar());
    case 2:
      return B.createBinImm(Opcode::AddI, Operand,
                            Random.nextInRange(-9, 9));
    case 3:
      return B.createBin(Opcode::Xor, Operand, randomPoolVar());
    default:
      return B.createBinImm(Opcode::ShrI, Operand,
                            Random.nextInRange(1, 5));
    }
  }

  /// An expression over \p Width subexpressions. Normal expressions fold
  /// each part into the accumulator immediately (short chains, at most two
  /// temporaries live — the common shape in compiled code). Hot
  /// expressions (\p KeepPartsLive) materialize every part before folding,
  /// creating the localized register-pressure spike the paper's
  /// high-pressure regions exhibit; their parts read *rotating* pool
  /// variables so the access chains stay directional (real wide
  /// expressions read many different values, not one value repeatedly).
  RegId emitExpression(unsigned Width, bool KeepPartsLive) {
    if (!KeepPartsLive) {
      RegId Acc = emitPart(randomPoolVar());
      for (unsigned W = 1; W < Width; ++W) {
        RegId Part = emitPart(randomPoolVar());
        Opcode Op = Random.withChance(1, 2) ? Opcode::Add : Opcode::Xor;
        Acc = B.createBin(Op, Acc, Part);
      }
      return Acc;
    }
    std::vector<RegId> Parts;
    for (unsigned W = 0; W != Width; ++W)
      Parts.push_back(
          emitPart(Pool[(FocusIdx + W) % Pool.size()]));
    RegId Acc = Parts[0];
    for (size_t I = 1; I != Parts.size(); ++I) {
      Opcode Op = Random.withChance(1, 2) ? Opcode::Add : Opcode::Xor;
      Acc = B.createBin(Op, Acc, Parts[I]);
    }
    return Acc;
  }

  void emitAssign() {
    bool Hot = Random.withChance(P.HotPct, 100);
    unsigned Width = Hot ? P.HotWidth : P.ExprWidth;
    RegId Value = emitExpression(Width, Hot);
    // Keep accumulators bounded so multiplications do not overflow into
    // degenerate values: mask to 20 bits. The masked temporary dies at the
    // final move, which makes the move a genuine coalescing candidate
    // whenever the target's previous value is already dead — the kind of
    // move the optimal-spill pipeline's coalesce stage feeds on.
    RegId Masked = B.createBinImm(Opcode::AndI, Value, (1 << 20) - 1);
    B.createMovTo(randomPoolVar(), Masked);
  }

  void emitMove() {
    RegId Src = randomPoolVar();
    RegId Dst = randomPoolVar();
    if (Src == Dst)
      return;
    B.createMovTo(Dst, Src);
  }

  void emitMemOp(unsigned Mask) {
    RegId Addr = randomPoolVar();
    if (Random.withChance(1, 2)) {
      RegId Base = B.createBinImm(Opcode::AndI, Addr, Mask);
      RegId Loaded = B.createLoad(Base, Random.nextBelow(8));
      B.createBinTo(Opcode::Add, randomPoolVar(), Loaded, randomPoolVar());
    } else {
      RegId Base = B.createBinImm(Opcode::AndI, Addr, Mask);
      B.createStore(Base, Random.nextBelow(8), randomPoolVar());
    }
  }

  void emitIf(unsigned Depth) {
    RegId Cond =
        B.createBin(Opcode::CmpLT, randomPoolVar(), randomPoolVar());
    uint32_t ThenBlock = F.makeBlock();
    uint32_t ElseBlock = F.makeBlock();
    uint32_t JoinBlock = F.makeBlock();
    B.createBr(Cond, ThenBlock, ElseBlock);

    // Nested bodies shrink with depth, keeping the branching process
    // subcritical (a fixed body size with a high IfPct recurses without
    // bound).
    unsigned Body = std::max(1u, P.BodyStatements / (2 + Depth));
    B.setBlock(ThenBlock);
    emitStatements(Body, Depth + 1);
    B.createJmp(JoinBlock);

    B.setBlock(ElseBlock);
    emitStatements(Body, Depth + 1);
    B.createJmp(JoinBlock);

    B.setBlock(JoinBlock);
  }

  void emitLoop(unsigned Depth) {
    int64_t Trip = Random.nextInRange(P.TripMin, P.TripMax);
    RegId Counter = B.createMovImm(Trip);
    uint32_t Body = F.makeBlock();
    uint32_t Exit = F.makeBlock();
    B.createJmp(Body);

    B.setBlock(Body);
    // Saturating subtraction: a profile with BodyStatements < Depth must
    // shrink to the floor of 2, not wrap around to ~4 billion statements.
    unsigned Shrink = std::min(Depth, P.BodyStatements);
    emitStatements(std::max(2u, P.BodyStatements - Shrink), Depth + 1);
    B.createBinImmTo(Opcode::AddI, Counter, Counter, -1);
    B.createBr(Counter, Body, Exit);

    B.setBlock(Exit);
  }

  void emitStatement(unsigned Depth) {
    // Hard bound on structural nesting: loops count against MaxLoopDepth,
    // and the combined loop+if nesting never exceeds MaxStructDepth.
    constexpr unsigned MaxStructDepth = 6;
    maybeShiftFocus();
    unsigned Roll = static_cast<unsigned>(Random.nextBelow(100));
    unsigned Mask = P.MemWords > 8 ? P.MemWords / 2 - 1 : 3;
    if (Roll < P.LoopPct && LoopDepth < P.MaxLoopDepth &&
        Depth < MaxStructDepth) {
      ++LoopDepth;
      emitLoop(Depth);
      --LoopDepth;
      return;
    }
    Roll = static_cast<unsigned>(Random.nextBelow(100));
    if (Roll < P.IfPct && Depth < MaxStructDepth) {
      emitIf(Depth);
      return;
    }
    if (Roll < P.IfPct + P.MemPct) {
      emitMemOp(Mask);
      return;
    }
    if (Roll < P.IfPct + P.MemPct + P.MovePct) {
      emitMove();
      return;
    }
    emitAssign();
  }
};

} // namespace

Function dra::generateProgram(const std::string &Name,
                              const ProgramProfile &P) {
  assert(P.PressureVars >= 2 && P.TripMin >= 1 && P.TripMin <= P.TripMax &&
         "degenerate profile");
  Function F;
  F.Name = Name;
  F.MemWords = P.MemWords;
  Rng Random(P.Seed);

  uint32_t Entry = F.makeBlock();
  IRBuilder B(F);
  B.setBlock(Entry);

  Emitter E(F, B, Random, P);
  E.initPool();

  // Implicit outer loop: scales dynamic instruction counts so pipeline
  // simulation is meaningful.
  RegId OuterCounter = B.createMovImm(P.OuterTrip);
  uint32_t OuterBody = F.makeBlock();
  uint32_t OuterExit = F.makeBlock();
  B.createJmp(OuterBody);

  B.setBlock(OuterBody);
  E.emitStatements(P.TopStatements, 0);
  B.createBinImmTo(Opcode::AddI, OuterCounter, OuterCounter, -1);
  B.createBr(OuterCounter, OuterBody, OuterExit);

  B.setBlock(OuterExit);
  RegId Result = E.foldPool();
  B.createStore(B.createMovImm(0), 0, Result);
  B.createRet(Result);

  F.recomputeCFG();
  return F;
}

Function dra::generateSizedProgram(const std::string &Name, ProgramProfile P,
                                   Rng &R, unsigned MinInsts,
                                   unsigned MaxInsts) {
  assert(MinInsts <= MaxInsts && "empty instruction-count band");
  const unsigned MaxTop = 3 * P.TopStatements;
  for (;;) {
    P.Seed = R.next();
    for (unsigned Top = 1; Top <= MaxTop; ++Top) {
      P.TopStatements = Top;
      Function F = generateProgram(Name, P);
      if (F.numInsts() < MinInsts)
        continue;
      if (F.numInsts() <= MaxInsts)
        return F;
      break;
    }
  }
}
