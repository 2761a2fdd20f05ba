//===- core/Recolor.cpp - Differential recoloring local search ------------===//

#include "core/Recolor.h"

#include "analysis/Liveness.h"
#include "core/AdjacencyGraph.h"
#include "core/DiffSelectHook.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <numeric>

using namespace dra;

namespace {

/// Maximum improvement sweeps over all clusters.
constexpr unsigned MaxSweeps = 12;

/// Union-find over virtual registers.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }
  RegId find(RegId N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]];
      N = Parent[N];
    }
    return N;
  }
  void unite(RegId A, RegId B) { Parent[find(A)] = find(B); }

private:
  std::vector<RegId> Parent;
};

} // namespace

RecolorStats dra::recolorColoring(const Function &F, const EncodingConfig &C,
                                  std::vector<RegId> &ColorOf,
                                  Arena *Scratch) {
  assert(ColorOf.size() == F.NumRegs && "coloring size mismatch");
  unsigned K = C.RegN;

  Function Work = F;
  Work.recomputeCFG();
  Liveness LV = Liveness::compute(Work, Scratch);
  InterferenceGraph IG = InterferenceGraph::build(Work, LV, Scratch);
  // Frequency weighting (Section 4: "the frequency should be reflected in
  // the edge weights") steers repairs out of hot loops; the *static*
  // set_last_reg count is reported separately by the encoder.
  AdjacencyGraph AG =
      AdjacencyGraph::build(Work, C, WeightMode::Frequency);

  RecolorStats Stats;
  Stats.CostBefore = AG.cost(ColorOf, C);

  // Tie move endpoints that currently share a color into clusters so
  // recoloring cannot reintroduce a coalesced move.
  UnionFind UF(F.NumRegs);
  for (const MovePair &MP : IG.moves())
    if (ColorOf[MP.Dst] == ColorOf[MP.Src])
      UF.unite(MP.Dst, MP.Src);

  std::vector<std::vector<RegId>> Members(F.NumRegs);
  for (RegId V = 0; V != F.NumRegs; ++V)
    Members[UF.find(V)].push_back(V);

  std::vector<RegId> Clusters;
  for (RegId V = 0; V != F.NumRegs; ++V)
    if (!Members[V].empty())
      Clusters.push_back(V);

  auto ColorOfVReg = [&](RegId V) {
    return ColorOf[V] == NoReg ? -1 : static_cast<int>(ColorOf[V]);
  };
  Stats.Clusters = Clusters.size();

  for (Stats.Sweeps = 0; Stats.Sweeps != MaxSweeps; ++Stats.Sweeps) {
    bool Changed = false;
    for (RegId Root : Clusters) {
      const std::vector<RegId> &Group = Members[Root];
      unsigned Current = ColorOf[Root];
      // Legal colors: not used by any interference neighbor outside the
      // cluster.
      std::vector<uint8_t> Used(K, 0);
      for (RegId V : Group)
        for (RegId N : IG.neighbors(V))
          if (UF.find(N) != Root && ColorOf[N] != NoReg)
            Used[ColorOf[N]] = 1;
      // Cost per candidate; keep the current color on ties.
      ++Stats.CandidateEvals;
      double CurCost =
          selectCost(AG, C, Group, Current, ColorOfVReg);
      if (CurCost == 0)
        continue;
      unsigned BestColor = Current;
      double BestCost = CurCost;
      for (unsigned Color = 0; Color != K; ++Color) {
        if (Used[Color] || Color == Current)
          continue;
        ++Stats.CandidateEvals;
        double Cost = selectCost(AG, C, Group, Color, ColorOfVReg);
        if (Cost < BestCost - 1e-9) {
          BestCost = Cost;
          BestColor = Color;
        }
      }
      if (BestColor != Current) {
        for (RegId V : Group)
          ColorOf[V] = BestColor;
        ++Stats.Changes;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  Stats.CostAfter = AG.cost(ColorOf, C);
  assert(IG.isValidColoring(ColorOf) && "recoloring broke interference");
  return Stats;
}
