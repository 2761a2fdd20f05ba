//===- core/DiffCoalesce.cpp - Differential coalesce (approach 3) ---------===//

#include "core/DiffCoalesce.h"

#include "analysis/Liveness.h"
#include "core/AdjacencyGraph.h"
#include "core/Recolor.h"
#include "regalloc/GraphColoring.h"
#include "regalloc/InterferenceGraph.h"

#include <algorithm>

using namespace dra;

namespace {

/// Candidates evaluated per step (highest move weight first); bounds the
/// O(moves^2) loop on move-heavy functions.
constexpr unsigned MaxCandidatesPerStep = 32;
/// Upper bound on committed coalescences (safety valve).
constexpr unsigned MaxSteps = 256;

/// Move pairs as ((A, B), weight): distinct (A < B) vreg pairs with their
/// static occurrence counts, or cross-root pairs with folded counts. The
/// weights are whole numbers, so every sum of them is exact in any order.
using MoveList = std::vector<std::pair<std::pair<RegId, RegId>, double>>;

/// Sorts \p Moves by pair and folds equal pairs into one, summing their
/// weights.
void foldMoves(MoveList &Moves) {
  std::sort(Moves.begin(), Moves.end());
  size_t Out = 0;
  for (size_t I = 0; I != Moves.size(); ++I) {
    if (Out != 0 && Moves[Out - 1].first == Moves[I].first)
      Moves[Out - 1].second += Moves[I].second;
    else
      Moves[Out++] = Moves[I];
  }
  Moves.resize(Out);
}

/// The merged view of one function's interference + adjacency graphs under
/// a set of committed coalescences. Nodes are virtual registers; merged
/// groups are represented by their union-find root. Copy-assigning one
/// MergedGraph to another of the same function reuses the target's
/// buffers, which is how a coalesce probe avoids allocating.
class MergedGraph {
public:
  /// Builds the graph of \p F and stores its distinct move pairs, sorted,
  /// in \p Moves.
  MergedGraph(const Function &F, const EncodingConfig &C, MoveList &Moves,
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

    Moves.clear();
    for (const MovePair &MP : IG.moves())
      if (MP.Dst != MP.Src)
        Moves.push_back({{std::min(MP.Dst, MP.Src), std::max(MP.Dst, MP.Src)},
                         1.0});
    foldMoves(Moves);
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

  /// Remaining (cross-root) pairs of \p Moves, folded per root pair and
  /// sorted by it.
  MoveList activeMoves(const MoveList &Moves) const {
    MoveList Active;
    for (const auto &[Pair, W] : Moves) {
      RegId A = find(Pair.first), B = find(Pair.second);
      if (A != B)
        Active.push_back({{std::min(A, B), std::max(A, B)}, W});
    }
    foldMoves(Active);
    return Active;
  }

  /// Total weight of \p Moves whose endpoints are still distinct roots.
  double remainingMoveWeight(const MoveList &Moves) const {
    double Total = 0;
    for (const auto &[Pair, W] : Moves)
      if (find(Pair.first) != find(Pair.second))
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

  /// Appends all current roots, ascending, to \p Out.
  void roots(std::vector<RegId> &Out) const {
    for (RegId R = 0; R != NumVRegs; ++R)
      if (Parent[R] == R)
        Out.push_back(R);
  }

private:
  uint32_t NumVRegs = 0;
  std::vector<RegId> Parent;
  std::vector<std::vector<RegId>> Members;
  /// Root-level interference; each list sorted and unique.
  std::vector<std::vector<RegId>> Adj;
  AdjacencyGraph AG; // Root-level adjacency.
};

/// Result of one rebuild&simplify + select probe.
struct ColorOutcome {
  bool Colorable = false;
  /// Differential cost of the complete assignment (when Colorable).
  double DiffCost = 0;
  /// A node that failed to receive a color (when !Colorable).
  RegId FailedRoot = NoReg;
};

/// Buffers colorMerged reuses from call to call, so a probe allocates
/// only when a function outgrows what an earlier call left behind.
struct ColorScratch {
  std::vector<RegId> Roots, Stack, LowDegree, RootColor;
  std::vector<unsigned> Degree, OkColors;
  std::vector<uint8_t> Removed, Used;
};

/// Differential-select cost of giving root \p N color \p Color against the
/// roots colored so far: the violating weight of N's out-edges, then its
/// in-edges. merge() moves every adjacency edge of a merged group onto
/// its root and between roots, so these are the only edges of N's
/// members that selectCost would count, summed in the same order.
double rootSelectCost(const AdjacencyGraph &AG, const EncodingConfig &C,
                      RegId N, unsigned Color,
                      const std::vector<RegId> &RootColor) {
  double Total = 0;
  AG.forEachOut(N, [&](RegId To, double W) {
    RegId ToColor = RootColor[To];
    if (ToColor != NoReg && ToColor != Color && !C.encodable(Color, ToColor))
      Total += W;
  });
  AG.forEachIn(N, [&](RegId From, double W) {
    RegId FromColor = RootColor[From];
    if (FromColor != NoReg && FromColor != Color &&
        !C.encodable(FromColor, Color))
      Total += W;
  });
  return Total;
}

/// Chaitin-Briggs simplify + (differential) select over the merged graph.
/// Fills \p ColorOfVReg with every vreg's color when it is non-null and
/// the graph is colorable; probes pass null and read only the cost.
ColorOutcome colorMerged(const MergedGraph &G, const EncodingConfig &C,
                         bool UseDiffSelect, ColorScratch &S,
                         std::vector<RegId> *ColorOfVReg = nullptr) {
  unsigned K = C.RegN;
  std::vector<RegId> &Roots = S.Roots;
  Roots.clear();
  G.roots(Roots);

  // Degrees among roots.
  std::vector<unsigned> &Degree = S.Degree;
  Degree.assign(G.numVRegs(), 0);
  for (RegId R : Roots)
    Degree[R] = static_cast<unsigned>(G.neighborsOf(R).size());

  // Simplify: low-degree first (worklist), optimistic max-degree removal
  // when stuck (Briggs).
  std::vector<uint8_t> &Removed = S.Removed;
  Removed.assign(G.numVRegs(), 0);
  std::vector<RegId> &Stack = S.Stack;
  Stack.clear();
  std::vector<RegId> &LowDegree = S.LowDegree;
  LowDegree.clear();
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

  // Select in reverse removal order. Only roots are ever colored, so
  // RootColor doubles as the vreg-to-number assignment of the roots.
  ColorOutcome Out;
  std::vector<RegId> &RootColor = S.RootColor;
  RootColor.assign(G.numVRegs(), NoReg);
  std::vector<uint8_t> &Used = S.Used;
  std::vector<unsigned> &OkColors = S.OkColors;
  for (size_t I = Stack.size(); I > 0; --I) {
    RegId N = Stack[I - 1];
    Used.assign(K, 0);
    for (RegId Nbr : G.neighborsOf(N))
      if (RootColor[Nbr] != NoReg)
        Used[RootColor[Nbr]] = 1;
    OkColors.clear();
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
      double BestCost =
          rootSelectCost(G.adjacency(), C, N, Chosen, RootColor);
      for (size_t CI = 1; CI < OkColors.size() && BestCost > 0; ++CI) {
        double Cost =
            rootSelectCost(G.adjacency(), C, N, OkColors[CI], RootColor);
        if (Cost < BestCost) {
          BestCost = Cost;
          Chosen = OkColors[CI];
        }
      }
    }
    RootColor[N] = Chosen;
  }

  Out.Colorable = true;
  if (ColorOfVReg) {
    ColorOfVReg->resize(G.numVRegs());
    for (RegId V = 0; V != G.numVRegs(); ++V)
      (*ColorOfVReg)[V] = RootColor[G.find(V)];
  }
  // Differential cost of the complete assignment, at vreg granularity.
  Out.DiffCost = G.adjacency().cost(RootColor, C);
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

  // Scratch reused by every round: the coloring buffers, the round's
  // move list and the probe graph.
  ColorScratch Colors;
  MoveList Moves;
  std::vector<RegId> ColorOfVReg;
  for (;;) {
    ScopedSpan RoundSpan(SubSpans, "coalesce.round");
    F.recomputeCFG();
    MergedGraph G(F, C, Moves, Scratch);

    // Greedy best-first coalescing with undo-by-probing (Figure 9): each
    // step probes candidates on a copy of the merged graph and commits the
    // best cost reduction. The copy is assigned into one probe graph per
    // round, which reuses its buffers.
    double CurCost;
    {
      ++Result.OracleCalls;
      ColorOutcome Cur = colorMerged(G, C, DiffAware, Colors);
      CurCost = (Cur.Colorable && DiffAware ? Cur.DiffCost : 0.0) +
                G.remainingMoveWeight(Moves);
    }

    MergedGraph Probe = G;
    for (unsigned Step = 0; Step != MaxSteps; ++Step) {
      MoveList Candidates = G.activeMoves(Moves);
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
        Probe = G; // Undo by overwriting the probe.
        Probe.merge(Pair.first, Pair.second);
        ++Result.ProbesAttempted;
        ++Result.OracleCalls;
        ColorOutcome Probed = colorMerged(Probe, C, DiffAware, Colors);
        if (!Probed.Colorable) {
          ++Result.ProbesUncolorable;
          continue;
        }
        double NewCost = (DiffAware ? Probed.DiffCost : 0.0) +
                         Probe.remainingMoveWeight(Moves);
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
    ColorOutcome Final = colorMerged(G, C, DiffAware, Colors, &ColorOfVReg);
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
      RecolorStats RS = recolorColoring(F, C, ColorOfVReg);
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
          assert(ColorOfVReg[V] != NoReg && "uncolored vreg");
          I.setRegField(Field, ColorOfVReg[V]);
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
