//===- core/Remap.cpp - Differential remapping (post-pass) ----------------===//

#include "core/Remap.h"

#include "adt/Rng.h"
#include "driver/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

using namespace dra;

namespace {

bool isPinned(const RemapOptions &O, RegId R) {
  for (RegId P : O.PinnedRegs)
    if (P == R)
      return true;
  return false;
}

std::vector<RegId> movableRegs(const EncodingConfig &C,
                               const RemapOptions &O) {
  std::vector<RegId> Movable;
  for (RegId R = 0; R != C.RegN; ++R)
    if (!C.isSpecial(R) && !isPinned(O, R))
      Movable.push_back(R);
  return Movable;
}

/// Exhaustive search over all permutations that fix the special and pinned
/// registers. Reports its effort through the shared counters: StartsRun is
/// the one enumeration, SwapsEvaluated the permutations costed, and
/// SwapsApplied the improvements over the running best.
RemapResult exhaustiveSearch(const AdjacencyGraph &G,
                             const EncodingConfig &C,
                             const RemapOptions &O) {
  unsigned N = C.RegN;
  std::vector<RegId> Movable = movableRegs(C, O);

  std::vector<RegId> Targets = Movable; // Values assigned to movable slots.
  std::vector<RegId> Perm(N);
  for (RegId R = 0; R != N; ++R)
    Perm[R] = R;

  RemapResult Best;
  Best.Exhaustive = true;
  Best.StartsRun = 1;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();
  do {
    for (size_t I = 0; I != Movable.size(); ++I)
      Perm[Movable[I]] = Targets[I];
    ++Best.SwapsEvaluated;
    double Cost = G.cost(Perm, C);
    if (Cost < Best.CostAfter) {
      ++Best.SwapsApplied;
      Best.CostAfter = Cost;
      Best.Perm = Perm;
    }
  } while (std::next_permutation(Targets.begin(), Targets.end()));
  return Best;
}

/// Per-descent effort, merged into RemapResult by the search driver.
struct DescentStats {
  size_t Eval = 0;
  size_t Applied = 0;
  size_t Arcs = 0;
};

/// One greedy descent from \p Perm: evaluate every pairwise swap of the
/// movable registers against the precomputed cost model
/// (O(degree(U) + degree(V)) per candidate), apply the first best strict
/// improvement, repeat until none is left. The permutation's cost is
/// maintained incrementally across applied swaps; debug builds
/// cross-check it against a full recost after every applied swap.
double greedyDescent(const AdjacencyGraph &G, const EncodingConfig &C,
                     const RemapCostModel &M,
                     const std::vector<RegId> &Movable,
                     std::vector<RegId> &Perm, DescentStats &S) {
  double Cost = G.cost(Perm, C);
  for (;;) {
    double BestDelta = 0;
    size_t BestI = 0, BestJ = 0;
    for (size_t I = 0; I + 1 < Movable.size(); ++I) {
      for (size_t J = I + 1; J < Movable.size(); ++J) {
        RegId U = Movable[I], V = Movable[J];
        ++S.Eval;
        S.Arcs += M.deltaArcs(U, V);
        double Delta = M.swapDelta(Perm, U, V);
        if (Delta < BestDelta) {
          BestDelta = Delta;
          BestI = I;
          BestJ = J;
        }
      }
    }
    if (BestDelta >= 0)
      return Cost;
    std::swap(Perm[Movable[BestI]], Perm[Movable[BestJ]]);
    ++S.Applied;
    Cost += BestDelta;
#ifndef NDEBUG
    double Full = G.cost(Perm, C);
    assert(std::fabs(Full - Cost) <=
               1e-6 * std::max(1.0, std::fabs(Full)) &&
           "incremental remap cost drifted from full recost");
#endif
  }
}

/// Maps a non-NaN double to an unsigned key with the same total order, so
/// the shared best-cost bound can be a lock-free CAS-min on uint64_t.
uint64_t orderedCostBits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return (B & (1ull << 63)) ? ~B : B | (1ull << 63);
}

/// The multi-start greedy search, optionally sharded over a thread pool.
/// The result is the one a sequential loop over the starts would return
/// (Jobs = 1 runs exactly that loop), bit-identical at any Jobs value:
///
///  * every restart vector is drawn up front on the calling thread from
///    the one sequential Rng stream, so start k sees the same initial
///    permutation regardless of scheduling;
///  * descents are per-start deterministic;
///  * the only deterministic early cutoff is a provable global minimum —
///    a start finishing at cost zero — tracked as the minimum zero-cost
///    start index: StartsRun = FirstZero + 1 matches the sequential break,
///    counters sum only over starts below it, and speculatively-run
///    higher-indexed starts are discarded from stats and reduction;
///  * a shared atomic best-cost bound (CAS-min) additionally gates which
///    starts keep their permutation alive for the reduction — a start
///    whose final cost exceeds the bound at completion can never win
///    (cost, start-index) and drops its vector immediately;
///  * the winner is the lowest-cost start, earliest index on ties —
///    exactly the sequential update rule `Cost < Best.CostAfter`.
RemapResult greedySearch(const AdjacencyGraph &G, const EncodingConfig &C,
                         const RemapOptions &O) {
  unsigned N = C.RegN;
  std::vector<RegId> Movable = movableRegs(C, O);

  std::vector<RegId> Identity(N);
  for (RegId R = 0; R != N; ++R)
    Identity[R] = R;

  RemapResult Best;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();

  unsigned Starts = std::max(1u, O.NumStarts);
  size_t M = Movable.size();

  // Replay the sequential restart stream up front (start 0 is identity).
  std::vector<RegId> StartTargets;
  StartTargets.reserve(static_cast<size_t>(Starts - 1) * M);
  {
    Rng Random(O.Seed);
    for (unsigned Start = 1; Start < Starts; ++Start) {
      std::vector<RegId> Targets = Movable;
      Random.shuffle(Targets);
      StartTargets.insert(StartTargets.end(), Targets.begin(),
                          Targets.end());
    }
  }

  RemapCostModel Model(G, C);

  struct StartOutcome {
    double Cost = std::numeric_limits<double>::infinity();
    DescentStats Stats;
    std::vector<RegId> Perm;
    bool HasPerm = false;
    bool Ran = false;
  };
  std::vector<StartOutcome> Outcomes(Starts);

  constexpr uint64_t NoZero = std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> FirstZero{NoZero};
  std::atomic<uint64_t> BestBound{
      orderedCostBits(std::numeric_limits<double>::infinity())};

  auto RunStart = [&](size_t Start) {
    // Early cutoff: some start at a lower index already reached the
    // provable minimum, so the sequential search would never get here.
    if (Start > FirstZero.load(std::memory_order_relaxed))
      return;
    StartOutcome &Out = Outcomes[Start];
    Out.Ran = true;
    std::vector<RegId> Perm = Identity;
    if (Start != 0) {
      const RegId *T = StartTargets.data() + (Start - 1) * M;
      for (size_t I = 0; I != M; ++I)
        Perm[Movable[I]] = T[I];
    }
    Out.Cost = greedyDescent(G, C, Model, Movable, Perm, Out.Stats);

    // Shared best-cost bound: CAS-min, then keep the permutation only
    // while this start is still a candidate winner under the bound.
    uint64_t MyBits = orderedCostBits(Out.Cost);
    uint64_t Cur = BestBound.load(std::memory_order_relaxed);
    while (MyBits < Cur &&
           !BestBound.compare_exchange_weak(Cur, MyBits,
                                            std::memory_order_relaxed))
      ;
    if (MyBits <= BestBound.load(std::memory_order_relaxed)) {
      Out.Perm = std::move(Perm);
      Out.HasPerm = true;
    }
    if (Out.Cost == 0) {
      uint64_t Prev = FirstZero.load(std::memory_order_relaxed);
      while (Start < Prev &&
             !FirstZero.compare_exchange_weak(Prev, Start,
                                              std::memory_order_relaxed))
        ;
    }
  };

  unsigned Jobs = std::min<unsigned>(std::max(1u, O.Jobs), Starts);
  if (Jobs == 1) {
    for (size_t Start = 0; Start != Starts; ++Start)
      RunStart(Start);
  } else {
    ThreadPool Pool(Jobs);
    Pool.parallelFor(Starts, RunStart);
  }

  // Deterministic reduction. Starts at or below the first zero-cost index
  // always ran (the cutoff only ever skips higher indices); anything the
  // pool ran beyond it is speculative work the sequential search would
  // not have done, so it contributes neither stats nor candidates.
  uint64_t FZ = FirstZero.load(std::memory_order_relaxed);
  unsigned Ran = FZ == NoZero ? Starts : static_cast<unsigned>(FZ) + 1;
  Best.StartsRun = Ran;
  Best.StartsCutOff = Starts - Ran;
  size_t Winner = SIZE_MAX;
  for (unsigned Start = 0; Start != Ran; ++Start) {
    StartOutcome &Out = Outcomes[Start];
    assert(Out.Ran && "start below the zero-cost cutoff was skipped");
    Best.SwapsEvaluated += Out.Stats.Eval;
    Best.SwapsApplied += Out.Stats.Applied;
    Best.DeltaArcsVisited += Out.Stats.Arcs;
    if (Out.Cost < Best.CostAfter) {
      Best.CostAfter = Out.Cost;
      Winner = Start;
    }
  }
  assert(Winner != SIZE_MAX && Outcomes[Winner].HasPerm &&
         "winning start did not keep its permutation");
  Best.Perm = std::move(Outcomes[Winner].Perm);

  size_t FullTerms = Best.SwapsEvaluated * Model.arcCount();
  Best.DeltaRecostSavings = FullTerms > Best.DeltaArcsVisited
                                ? FullTerms - Best.DeltaArcsVisited
                                : 0;
  return Best;
}

} // namespace

RemapCostModel::RemapCostModel(const AdjacencyGraph &G,
                               const EncodingConfig &C)
    : RegN(C.RegN), Rows(C.RegN), ViolatedDiff(C.RegN, 0) {
  // Condition (3) as a table over the modular difference: diff 0 is a
  // self-transition (always encodable) and DiffN >= 1, so "violated" is
  // exactly diff >= DiffN.
  for (unsigned D = 0; D != C.RegN; ++D)
    ViolatedDiff[D] = D >= C.DiffN ? 1 : 0;

  uint32_t Nodes = std::min<uint32_t>(G.numNodes(), C.RegN);
  for (RegId R = 0; R != Nodes; ++R) {
    G.forEachOut(R, [&](RegId To, double W) {
      Rows[R].push_back({To, W, true});
      ++NumArcs;
    });
    G.forEachIn(R, [&](RegId From, double W) {
      Rows[R].push_back({From, W, false});
    });
  }
}

double RemapCostModel::swapDelta(const std::vector<RegId> &Perm, RegId U,
                                 RegId V) const {
  double Before = 0, After = 0;
  RegId PU = Perm[U], PV = Perm[V];
  // Row U: arcs anchored at U, whose number changes PU -> PV. The far
  // endpoint keeps its number unless it is V (the shared edge). Self
  // edges are never stored, so Other != U here and Other != V below.
  // The accumulation order — row U out, row U in, row V out, row V in —
  // is part of the output: cross-block weights are inexact, so another
  // order can flip a near-tie, and the remap goldens pin this one.
  for (const Arc &A : Rows[U]) {
    RegId O = Perm[A.Other];
    RegId OS = A.Other == V ? PU : O;
    if (A.IsOut) {
      if (violated(PU, O))
        Before += A.W;
      if (violated(PV, OS))
        After += A.W;
    } else {
      if (violated(O, PU))
        Before += A.W;
      if (violated(OS, PV))
        After += A.W;
    }
  }
  // Row V, skipping the shared edge already counted under row U.
  for (const Arc &A : Rows[V]) {
    if (A.Other == U)
      continue;
    RegId O = Perm[A.Other];
    if (A.IsOut) {
      if (violated(PV, O))
        Before += A.W;
      if (violated(PU, O))
        After += A.W;
    } else {
      if (violated(O, PV))
        Before += A.W;
      if (violated(O, PU))
        After += A.W;
    }
  }
  return After - Before;
}

RemapResult dra::findRemap(const AdjacencyGraph &G, const EncodingConfig &C,
                           const RemapOptions &O) {
  assert(G.numNodes() <= C.RegN && "adjacency graph larger than RegN");
  unsigned MovableCount = 0;
  for (RegId R = 0; R != C.RegN; ++R)
    MovableCount += !C.isSpecial(R) && !isPinned(O, R);
  RemapResult Result;
  if (MovableCount <= O.ExhaustiveLimit)
    Result = exhaustiveSearch(G, C, O);
  else
    Result = greedySearch(G, C, O);
  // Never accept a permutation worse than the identity.
  if (Result.CostAfter > Result.CostBefore) {
    Result.CostAfter = Result.CostBefore;
    Result.Perm.resize(C.RegN);
    for (RegId R = 0; R != C.RegN; ++R)
      Result.Perm[R] = R;
  }
  return Result;
}

void dra::applyPermutation(Function &F, const std::vector<RegId> &Perm) {
  for (BasicBlock &BB : F.Blocks)
    for (Instruction &I : BB.Insts)
      for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
        RegId R = I.regField(Field);
        assert(R < Perm.size() && "register outside permutation domain");
        I.setRegField(Field, Perm[R]);
      }
}

RemapResult dra::remapFunction(Function &F, const EncodingConfig &C,
                               const RemapOptions &O) {
  assert(F.NumRegs <= C.RegN && "function register universe exceeds RegN");
  Function Widened = F; // Build the graph over the full RegN universe.
  Widened.NumRegs = C.RegN;
  Widened.recomputeCFG();
  AdjacencyGraph G =
      AdjacencyGraph::build(Widened, C, WeightMode::Frequency);
  RemapResult Result = findRemap(G, C, O);
  applyPermutation(F, Result.Perm);
  F.NumRegs = C.RegN;
  return Result;
}
