//===- core/DiffCoalesce.cpp - Differential coalesce (approach 3) ---------===//

#include "core/DiffCoalesce.h"

#include "analysis/Liveness.h"
#include "core/AdjacencyGraph.h"
#include "core/DiffSelectHook.h"
#include "core/Recolor.h"
#include "regalloc/GraphColoring.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

using namespace dra;

namespace {

/// Candidates evaluated per step (highest move weight first); bounds the
/// O(moves^2) loop on move-heavy functions.
constexpr unsigned MaxCandidatesPerStep = 32;
/// Upper bound on committed coalescences (safety valve).
constexpr unsigned MaxSteps = 256;

/// The merged view of one function's interference + adjacency graphs under
/// a set of committed coalescences. Nodes are virtual registers; merged
/// groups are represented by their union-find root.
class MergedGraph {
public:
  MergedGraph(const Function &F, const EncodingConfig &C,
              Arena *Scratch = nullptr) {
    NumVRegs = F.NumRegs;
    Parent.resize(NumVRegs);
    for (RegId R = 0; R != NumVRegs; ++R)
      Parent[R] = R;
    Members.assign(NumVRegs, {});
    for (RegId R = 0; R != NumVRegs; ++R)
      Members[R].push_back(R);

    Liveness LV = Liveness::compute(F, Scratch);
    InterferenceGraph IG = InterferenceGraph::build(F, LV, Scratch);
    Adj.assign(NumVRegs, {});
    for (RegId N = 0; N != NumVRegs; ++N) {
      InterferenceGraph::NeighborRange R = IG.neighbors(N);
      Adj[N].assign(R.begin(), R.end()); // already sorted ascending
    }
    AG = AdjacencyGraph::build(F, C, WeightMode::Frequency);

    // Distinct move pairs with accumulated (static occurrence) weight.
    for (const MovePair &MP : IG.moves()) {
      if (MP.Dst == MP.Src)
        continue;
      RegId A = std::min(MP.Dst, MP.Src), B = std::max(MP.Dst, MP.Src);
      MoveWeight[{A, B}] += 1.0;
    }
  }

  uint32_t numVRegs() const { return NumVRegs; }

  RegId find(RegId N) const {
    while (Parent[N] != N)
      N = Parent[N];
    return N;
  }

  bool interferes(RegId U, RegId V) const {
    U = find(U);
    V = find(V);
    return std::binary_search(Adj[U].begin(), Adj[U].end(), V);
  }

  /// Merges root \p V into root \p U (both must be roots, distinct,
  /// non-interfering). Adjacency lists are kept sorted and unique.
  void merge(RegId U, RegId V) {
    assert(U == find(U) && V == find(V) && U != V && "merge of non-roots");
    assert(!interferes(U, V) && "merging interfering nodes");
    Parent[V] = U;
    auto SortedErase = [](std::vector<RegId> &List, RegId Value) {
      auto It = std::lower_bound(List.begin(), List.end(), Value);
      if (It != List.end() && *It == Value)
        List.erase(It);
    };
    auto SortedInsert = [](std::vector<RegId> &List, RegId Value) {
      auto It = std::lower_bound(List.begin(), List.end(), Value);
      if (It == List.end() || *It != Value)
        List.insert(It, Value);
    };
    for (RegId N : Adj[V]) {
      SortedErase(Adj[N], V);
      if (N != U) {
        SortedInsert(Adj[N], U);
        SortedInsert(Adj[U], N);
      }
    }
    Adj[V].clear();
    Members[U].insert(Members[U].end(), Members[V].begin(),
                      Members[V].end());
    Members[V].clear();
    AG.mergeInto(V, U);
  }

  /// Remaining (cross-root) move pairs as ((rootA, rootB), weight).
  std::vector<std::pair<std::pair<RegId, RegId>, double>>
  activeMoves() const {
    std::map<std::pair<RegId, RegId>, double> Folded;
    for (const auto &[Pair, W] : MoveWeight) {
      RegId A = find(Pair.first), B = find(Pair.second);
      if (A == B)
        continue;
      if (A > B)
        std::swap(A, B);
      Folded[{A, B}] += W;
    }
    return {Folded.begin(), Folded.end()};
  }

  /// Total weight of moves whose endpoints are still distinct roots.
  double remainingMoveWeight() const {
    double Total = 0;
    for (const auto &[Pair, W] : activeMoves())
      Total += W;
    return Total;
  }

  const std::vector<RegId> &membersOf(RegId Root) const {
    return Members[Root];
  }

  const std::vector<RegId> &neighborsOf(RegId Root) const {
    return Adj[Root];
  }

  const AdjacencyGraph &adjacency() const { return AG; }

  /// All current roots, ascending.
  std::vector<RegId> roots() const {
    std::vector<RegId> Result;
    for (RegId R = 0; R != NumVRegs; ++R)
      if (find(R) == R)
        Result.push_back(R);
    return Result;
  }

private:
  uint32_t NumVRegs = 0;
  std::vector<RegId> Parent;
  std::vector<std::vector<RegId>> Members;
  /// Root-level interference; each list sorted and unique.
  std::vector<std::vector<RegId>> Adj;
  AdjacencyGraph AG;                          // Root-level adjacency.
  std::map<std::pair<RegId, RegId>, double> MoveWeight;
};

/// Result of one rebuild&simplify + select probe.
struct ColorOutcome {
  bool Colorable = false;
  double DiffCost = 0;
  /// Per-vreg colors (only meaningful when Colorable).
  std::vector<RegId> ColorOfVReg;
  /// A node that failed to receive a color (when !Colorable).
  RegId FailedRoot = NoReg;
};

/// Chaitin-Briggs simplify + (differential) select over the merged graph.
ColorOutcome colorMerged(const MergedGraph &G, const EncodingConfig &C,
                         bool UseDiffSelect) {
  unsigned K = C.RegN;
  std::vector<RegId> Roots = G.roots();

  // Degrees among roots.
  std::vector<unsigned> Degree(G.numVRegs(), 0);
  for (RegId R : Roots)
    Degree[R] = static_cast<unsigned>(G.neighborsOf(R).size());

  // Simplify: low-degree first (worklist), optimistic max-degree removal
  // when stuck (Briggs).
  std::vector<uint8_t> Removed(G.numVRegs(), 0);
  std::vector<RegId> Stack;
  std::vector<RegId> LowDegree;
  for (RegId R : Roots)
    if (Degree[R] < K)
      LowDegree.push_back(R);
  size_t RemainingCount = Roots.size();
  while (RemainingCount != 0) {
    RegId Pick = NoReg;
    while (!LowDegree.empty()) {
      RegId Candidate = LowDegree.back();
      LowDegree.pop_back();
      if (!Removed[Candidate]) {
        Pick = Candidate;
        break;
      }
    }
    if (Pick == NoReg) {
      // Optimistic (potential spill): remove the max-degree node.
      unsigned MaxDeg = 0;
      for (RegId R : Roots)
        if (!Removed[R] && (Pick == NoReg || Degree[R] > MaxDeg)) {
          MaxDeg = Degree[R];
          Pick = R;
        }
    }
    Removed[Pick] = 1;
    Stack.push_back(Pick);
    --RemainingCount;
    for (RegId N : G.neighborsOf(Pick))
      if (!Removed[N] && --Degree[N] == K - 1)
        LowDegree.push_back(N);
  }

  // Select in reverse removal order.
  ColorOutcome Out;
  Out.ColorOfVReg.assign(G.numVRegs(), NoReg);
  std::vector<RegId> RootColor(G.numVRegs(), NoReg);
  auto ColorOfVReg = [&](RegId V) {
    RegId Rep = G.find(V);
    return RootColor[Rep] == NoReg ? -1 : static_cast<int>(RootColor[Rep]);
  };

  for (size_t I = Stack.size(); I > 0; --I) {
    RegId N = Stack[I - 1];
    std::vector<uint8_t> Used(K, 0);
    for (RegId Nbr : G.neighborsOf(N))
      if (RootColor[Nbr] != NoReg)
        Used[RootColor[Nbr]] = 1;
    std::vector<unsigned> OkColors;
    for (unsigned Color = 0; Color != K; ++Color)
      if (!Used[Color])
        OkColors.push_back(Color);
    if (OkColors.empty()) {
      Out.Colorable = false;
      Out.FailedRoot = N;
      return Out;
    }
    unsigned Chosen = OkColors.front();
    if (UseDiffSelect && OkColors.size() > 1) {
      double BestCost = selectCost(G.adjacency(), C, G.membersOf(N), Chosen,
                                   ColorOfVReg);
      for (size_t CI = 1; CI < OkColors.size() && BestCost > 0; ++CI) {
        double Cost = selectCost(G.adjacency(), C, G.membersOf(N),
                                 OkColors[CI], ColorOfVReg);
        if (Cost < BestCost) {
          BestCost = Cost;
          Chosen = OkColors[CI];
        }
      }
    }
    RootColor[N] = Chosen;
  }

  Out.Colorable = true;
  for (RegId V = 0; V != G.numVRegs(); ++V)
    Out.ColorOfVReg[V] = RootColor[G.find(V)];
  // Differential cost of the complete assignment, at vreg granularity.
  Out.DiffCost = G.adjacency().cost(
      [&] {
        std::vector<RegId> RootAssign(G.numVRegs(), NoReg);
        for (RegId R : G.roots())
          RootAssign[R] = RootColor[R];
        return RootAssign;
      }(),
      C);
  return Out;
}

} // namespace

CoalesceResult dra::coalesceAndColor(Function &F, const EncodingConfig &C,
                                     bool DiffAware,
                                     std::vector<StageSpan> *SubSpans,
                                     Arena *Scratch) {
  CoalesceResult Result;
  unsigned K = C.RegN;
  assert(C.valid() && "invalid encoding configuration");

  const unsigned MaxSpillRetries = 24;
  unsigned SpillRetries = 0;

  for (;;) {
    ScopedSpan RoundSpan(SubSpans, "coalesce.round");
    F.recomputeCFG();
    MergedGraph G(F, C, Scratch);

    // Greedy best-first coalescing with undo-by-probing (Figure 9): each
    // step probes candidates on a copy of the merged graph and commits the
    // best cost reduction.
    double CurCost;
    {
      ++Result.OracleCalls;
      ColorOutcome Cur = colorMerged(G, C, DiffAware);
      CurCost = (Cur.Colorable && DiffAware ? Cur.DiffCost : 0.0) +
                G.remainingMoveWeight();
    }

    for (unsigned Step = 0; Step != MaxSteps; ++Step) {
      auto Candidates = G.activeMoves();
      // Drop interfering pairs; order by descending weight.
      Candidates.erase(
          std::remove_if(Candidates.begin(), Candidates.end(),
                         [&](const auto &Cand) {
                           return G.interferes(Cand.first.first,
                                               Cand.first.second);
                         }),
          Candidates.end());
      std::sort(Candidates.begin(), Candidates.end(),
                [](const auto &A, const auto &B) {
                  if (A.second != B.second)
                    return A.second > B.second;
                  return A.first < B.first;
                });
      if (Candidates.size() > MaxCandidatesPerStep)
        Candidates.resize(MaxCandidatesPerStep);
      if (Candidates.empty())
        break;

      double BestNewCost = CurCost;
      std::pair<RegId, RegId> BestPair{NoReg, NoReg};
      for (const auto &[Pair, Weight] : Candidates) {
        MergedGraph Probe = G; // Undo by discarding the copy.
        Probe.merge(Pair.first, Pair.second);
        ++Result.ProbesAttempted;
        ++Result.OracleCalls;
        ColorOutcome Probed = colorMerged(Probe, C, DiffAware);
        if (!Probed.Colorable) {
          ++Result.ProbesUncolorable;
          continue;
        }
        double NewCost = (DiffAware ? Probed.DiffCost : 0.0) +
                         Probe.remainingMoveWeight();
        if (NewCost < BestNewCost - 1e-9) {
          BestNewCost = NewCost;
          BestPair = Pair;
        }
      }
      if (BestPair.first == NoReg)
        break; // No cost reduction or everything uncolorable.
      G.merge(BestPair.first, BestPair.second);
      CurCost = BestNewCost;
      ++Result.Steps;
      ++Result.MovesCoalesced;
    }

    // Final coloring.
    ++Result.OracleCalls;
    ColorOutcome Final = colorMerged(G, C, DiffAware);
    if (!Final.Colorable) {
      if (++SpillRetries > MaxSpillRetries) {
        Result.Success = false;
        return Result;
      }
      ++Result.SpillRestarts;
      // Spill every member of the failing root and restart.
      std::vector<RegId> ToSpill = G.membersOf(Final.FailedRoot);
      for (RegId V : ToSpill) {
        insertSpillCode(F, V);
        ++Result.ExtraSpilledRanges;
      }
      continue;
    }

    // Live-range-granularity refinement of the final assignment (see
    // core/Recolor.h); clusters keep coalesced moves intact.
    if (DiffAware) {
      RecolorStats RS = recolorColoring(F, C, Final.ColorOfVReg);
      Result.FinalAdjCost = RS.CostAfter;
    } else {
      Result.FinalAdjCost = Final.DiffCost;
    }

    // Rewrite the function onto physical registers; drop identity moves.
    for (BasicBlock &BB : F.Blocks) {
      std::vector<Instruction> Kept;
      Kept.reserve(BB.Insts.size());
      for (Instruction I : BB.Insts) {
        for (unsigned Field = 0; Field != I.numRegFields(); ++Field) {
          RegId V = I.regField(Field);
          assert(Final.ColorOfVReg[V] != NoReg && "uncolored vreg");
          I.setRegField(Field, Final.ColorOfVReg[V]);
        }
        if (I.Op == Opcode::Mov && I.Dst == I.Src1)
          continue;
        Kept.push_back(I);
        Result.MovesRemaining += I.Op == Opcode::Mov;
      }
      BB.Insts = std::move(Kept);
    }
    F.NumRegs = K;
    F.recomputeCFG();
    return Result;
  }
}
