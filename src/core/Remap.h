//===- core/Remap.h - Differential remapping (post-pass) --------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Approach 1 of the paper (Section 5): after any register allocator has
/// run, permute the physical register numbers to minimize the
/// differential-encoding cost on the register-level adjacency graph. The
/// permutation preserves every property a traditional allocator enforced
/// (interfering ranges keep distinct numbers).
///
/// Search strategies:
///  * exhaustive — all RegN! permutations, O(RegN^2 * RegN!), used for
///    small RegN and as the optimality oracle in tests;
///  * greedy — the paper's heuristic: repeated best-pairwise-swap descent
///    to a local minimum, restarted from a configurable number of initial
///    register vectors (the paper uses 1000).
///
/// The greedy search evaluates candidate swaps incrementally against a
/// `RemapCostModel` — per-register adjacency arc rows precomputed once per
/// graph, so one candidate costs O(degree(a) + degree(b)) instead of a
/// full recost. It runs its restarts one after another on the calling
/// thread, drawing each restart vector from the one seed stream just
/// before its descent, so its memory is O(RegN) at any restart count. The
/// earliest strictly cheaper start wins, and a start that reaches cost
/// zero ends the search. The descent trajectory itself (the restart
/// stream, the order in which `swapDelta` sums its arc terms, and the
/// first-best tie-break) is pinned by the trajectory golden in
/// `tests/remap_search_test.cpp`; `tests/data/golden_alloc_identity.txt`
/// pins the remapped output of real functions.
///
/// Special registers are pinned to themselves so reserved direct codes and
/// calling conventions stay intact (Sections 9.2/9.3).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_REMAP_H
#define DRA_CORE_REMAP_H

#include "core/AdjacencyGraph.h"
#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <vector>

namespace dra {

/// Remapping knobs.
struct RemapOptions {
  /// Use exhaustive search when RegN <= this bound.
  unsigned ExhaustiveLimit = 7;
  /// Number of random restarts for the greedy search (first start is the
  /// identity vector). The paper uses 1000.
  unsigned NumStarts = 1000;
  /// Seed for the restart generator.
  uint64_t Seed = 0xd1ffe7e9c0ffee00ull;
  /// Registers the permutation must map to themselves, in addition to the
  /// encoding config's special registers. Section 9.3: pinning the
  /// caller-/callee-saved registers keeps the calling convention intact
  /// without the paper's post-hoc set_last_reg repair of save/restore
  /// sequences.
  std::vector<RegId> PinnedRegs;
};

/// Remapping outcome.
struct RemapResult {
  /// Adjacency cost of the identity assignment (before remapping).
  double CostBefore = 0;
  /// Adjacency cost after applying the chosen permutation.
  double CostAfter = 0;
  /// The chosen permutation: register r becomes Perm[r].
  std::vector<RegId> Perm;
  /// True if the exhaustive search ran (result provably optimal).
  bool Exhaustive = false;
  /// Search effort. Greedy search: restarts actually run (early exit once a
  /// zero-cost permutation is found), pairwise swaps evaluated across all
  /// descents, and swaps applied (descent steps taken). Exhaustive search:
  /// StartsRun is 1 (one enumeration), SwapsEvaluated counts permutations
  /// evaluated, SwapsApplied counts improvements over the running best.
  unsigned StartsRun = 0;
  size_t SwapsEvaluated = 0;
  size_t SwapsApplied = 0;
  /// Restarts never run because a lower-indexed start already reached the
  /// provable minimum (cost zero): NumStarts - StartsRun.
  unsigned StartsCutOff = 0;
  /// Greedy search only: adjacency arcs actually summed while evaluating
  /// swap candidates, and the arc-visit count a full recost of every
  /// candidate would have needed instead (the delta-recost saving).
  size_t DeltaArcsVisited = 0;
  size_t DeltaRecostSavings = 0;
};

/// Precomputed per-register view of an AdjacencyGraph for O(degree) swap
/// evaluation. Register R's row is a contiguous out-segment (arcs R -> X)
/// followed by an in-segment (arcs X -> R), each in the graph's neighbor
/// order, with the far endpoints and the weights in two flat arrays.
/// Condition (3) is a table of 0.0/1.0 doubles indexed by
/// `To + RegN - From`, so `swapDelta` adds `W * Viol[...]` for every term
/// without a data-dependent branch.
///
/// Cross-block weights (`Freq / preds`) are not exact doubles, so the
/// order in which `swapDelta` sums its terms decides near-ties and with
/// them every descent trajectory; the remap goldens pin that order.
/// Instances are immutable after construction.
class RemapCostModel {
public:
  RemapCostModel(const AdjacencyGraph &G, const EncodingConfig &C);

  /// Exact change in differential cost from exchanging the register
  /// numbers of \p U and \p V under \p Perm (only arcs incident to either
  /// register can change). O(degree(U) + degree(V)).
  double swapDelta(const std::vector<RegId> &Perm, RegId U, RegId V) const;

  /// Arc terms one swapDelta(_, U, V) call sums (row sizes).
  size_t deltaArcs(RegId U, RegId V) const {
    return RowBegin[U + 1] - RowBegin[U] + RowBegin[V + 1] - RowBegin[V];
  }

  /// Directed arcs in the graph: the term count of one full recost.
  size_t arcCount() const { return NumArcs; }

private:
  unsigned RegN = 0;
  size_t NumArcs = 0;
  /// Row R is [RowBegin[R], InBegin[R]) out, [InBegin[R], RowBegin[R+1])
  /// in, as indices into Far and Weight.
  std::vector<uint32_t> RowBegin, InBegin;
  std::vector<RegId> Far;     ///< The endpoint that is not the row's.
  std::vector<double> Weight; ///< Edge weight (finite).
  /// Viol[To + RegN - From] is 1.0 when From -> To violates condition
  /// (3), else 0.0; 2 * RegN entries.
  std::vector<double> Viol;
};

/// Finds a cost-minimizing permutation for the register-level adjacency
/// graph \p G (NumNodes == C.RegN). Does not touch any function.
RemapResult findRemap(const AdjacencyGraph &G, const EncodingConfig &C,
                      const RemapOptions &O = {});

/// Convenience: builds the register-level adjacency graph of the allocated
/// function \p F, finds a permutation, and rewrites F's register operands
/// in place. F.NumRegs must be <= C.RegN; it becomes C.RegN.
RemapResult remapFunction(Function &F, const EncodingConfig &C,
                          const RemapOptions &O = {});

/// Applies \p Perm to every register operand of \p F.
void applyPermutation(Function &F, const std::vector<RegId> &Perm);

} // namespace dra

#endif // DRA_CORE_REMAP_H
