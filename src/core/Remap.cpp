//===- core/Remap.cpp - Differential remapping (post-pass) ----------------===//

#include "core/Remap.h"

#include "adt/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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

/// One greedy descent from \p Perm: evaluate every pairwise swap of the
/// movable registers against the precomputed cost model
/// (O(degree(U) + degree(V)) per candidate), apply the first best strict
/// improvement, repeat until none is left. Effort accumulates into \p S's
/// search counters. The permutation's cost is maintained incrementally
/// across applied swaps; debug builds cross-check it against a full
/// recost after every applied swap.
double greedyDescent(const AdjacencyGraph &G, const EncodingConfig &C,
                     const RemapCostModel &M,
                     const std::vector<RegId> &Movable,
                     std::vector<RegId> &Perm, RemapResult &S) {
  double Cost = G.cost(Perm, C);
  for (;;) {
    double BestDelta = 0;
    size_t BestI = 0, BestJ = 0;
    for (size_t I = 0; I + 1 < Movable.size(); ++I) {
      for (size_t J = I + 1; J < Movable.size(); ++J) {
        RegId U = Movable[I], V = Movable[J];
        ++S.SwapsEvaluated;
        S.DeltaArcsVisited += M.deltaArcs(U, V);
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
    ++S.SwapsApplied;
    Cost += BestDelta;
#ifndef NDEBUG
    double Full = G.cost(Perm, C);
    assert(std::fabs(Full - Cost) <=
               1e-6 * std::max(1.0, std::fabs(Full)) &&
           "incremental remap cost drifted from full recost");
#endif
  }
}

/// The multi-start greedy search. Start 0 descends from the identity;
/// start k >= 1 draws its shuffle of the movable registers from the one
/// Rng(O.Seed) stream just before its descent, so restart k's vector is
/// the k-th draw of that stream and memory stays O(RegN) at any
/// NumStarts. The earliest strictly cheaper start keeps its permutation,
/// and a start that reaches cost zero — the provable minimum, since
/// weights are nonnegative — ends the search.
RemapResult greedySearch(const AdjacencyGraph &G, const EncodingConfig &C,
                         const RemapOptions &O) {
  unsigned N = C.RegN;
  std::vector<RegId> Movable = movableRegs(C, O);
  RemapCostModel Model(G, C);
  Rng Random(O.Seed);

  RemapResult Best;
  Best.CostBefore = G.identityCost(C);
  Best.CostAfter = std::numeric_limits<double>::infinity();

  unsigned Starts = std::max(1u, O.NumStarts);
  // Descents swap movable registers only, so every other register maps
  // to itself in every start.
  std::vector<RegId> Perm(N), Targets;
  for (RegId R = 0; R != N; ++R)
    Perm[R] = R;
  while (Best.StartsRun != Starts) {
    Targets = Movable;
    if (Best.StartsRun != 0)
      Random.shuffle(Targets);
    for (size_t I = 0; I != Movable.size(); ++I)
      Perm[Movable[I]] = Targets[I];
    ++Best.StartsRun;
    double Cost = greedyDescent(G, C, Model, Movable, Perm, Best);
    if (Cost < Best.CostAfter) {
      Best.CostAfter = Cost;
      Best.Perm = Perm;
    }
    if (Cost == 0)
      break;
  }
  Best.StartsCutOff = Starts - Best.StartsRun;

  size_t FullTerms = Best.SwapsEvaluated * Model.arcCount();
  Best.DeltaRecostSavings = FullTerms > Best.DeltaArcsVisited
                                ? FullTerms - Best.DeltaArcsVisited
                                : 0;
  return Best;
}

} // namespace

RemapCostModel::RemapCostModel(const AdjacencyGraph &G,
                               const EncodingConfig &C)
    : RegN(C.RegN), RowBegin(C.RegN + 1, 0), InBegin(C.RegN, 0),
      Viol(2 * C.RegN) {
  // Condition (3) over To + RegN - From: the modular difference is that
  // index mod RegN, diff 0 is a self-transition (always encodable) and
  // DiffN >= 1, so "violated" is exactly diff >= DiffN.
  for (unsigned I = 0; I != 2 * C.RegN; ++I)
    Viol[I] = I % C.RegN >= C.DiffN ? 1.0 : 0.0;

  // swapDelta multiplies every weight by 0.0 or 1.0 and adds the product,
  // which equals skipping or adding the weight only for finite weights
  // (block frequencies cap at 10^6, so they are).
  auto Append = [&](RegId X, double W) {
    assert(std::isfinite(W) && "remap weights must be finite");
    Far.push_back(X);
    Weight.push_back(W);
  };
  uint32_t Nodes = std::min<uint32_t>(G.numNodes(), C.RegN);
  for (RegId R = 0; R != C.RegN; ++R) {
    RowBegin[R] = static_cast<uint32_t>(Far.size());
    if (R < Nodes)
      G.forEachOut(R, Append);
    InBegin[R] = static_cast<uint32_t>(Far.size());
    NumArcs += InBegin[R] - RowBegin[R];
    if (R < Nodes)
      G.forEachIn(R, Append);
  }
  RowBegin[C.RegN] = static_cast<uint32_t>(Far.size());
}

double RemapCostModel::swapDelta(const std::vector<RegId> &Perm, RegId U,
                                 RegId V) const {
  double Before = 0, After = 0;
  const RegId PU = Perm[U], PV = Perm[V];
  const unsigned N = RegN;
  const double *Vi = Viol.data(); // Vi[To + N - From]
  // Row U: arcs anchored at U, whose number changes PU -> PV. The far
  // endpoint keeps its number unless it is V (the shared edge). Self
  // edges are never stored, so Far != U here and Far != V in row V.
  // The accumulation order — row U out, row U in, row V out, row V in —
  // is part of the output: cross-block weights are inexact, so another
  // order can flip a near-tie, and the remap goldens pin this one. A
  // term that does not violate adds W * 0.0 == +0.0, which leaves a sum
  // that started at +0.0 bit-identical to skipping it.
  for (uint32_t I = RowBegin[U], E = InBegin[U]; I != E; ++I) {
    const RegId O = Perm[Far[I]], OS = Far[I] == V ? PU : O;
    Before += Weight[I] * Vi[O + N - PU];
    After += Weight[I] * Vi[OS + N - PV];
  }
  for (uint32_t I = InBegin[U], E = RowBegin[U + 1]; I != E; ++I) {
    const RegId O = Perm[Far[I]], OS = Far[I] == V ? PU : O;
    Before += Weight[I] * Vi[PU + N - O];
    After += Weight[I] * Vi[PV + N - OS];
  }
  // Row V: the edge shared with U was counted under row U, so it
  // contributes weight 0.0 here.
  for (uint32_t I = RowBegin[V], E = InBegin[V]; I != E; ++I) {
    const RegId O = Perm[Far[I]];
    const double W = Far[I] == U ? 0.0 : Weight[I];
    Before += W * Vi[O + N - PV];
    After += W * Vi[O + N - PU];
  }
  for (uint32_t I = InBegin[V], E = RowBegin[V + 1]; I != E; ++I) {
    const RegId O = Perm[Far[I]];
    const double W = Far[I] == U ? 0.0 : Weight[I];
    Before += W * Vi[PV + N - O];
    After += W * Vi[PU + N - O];
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
