//===- core/Recolor.h - Differential recoloring local search ----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live-range-granularity refinement of a register assignment for
/// differential encoding. Differential remapping (Section 5) permutes
/// whole register *numbers*, which the paper itself notes is restrictive
/// because the register-level adjacency graph is dense. Recoloring applies
/// the same pairwise-improvement idea one level down: each live range (or
/// move-tied cluster of live ranges, so coalesced moves stay coalesced) is
/// re-assigned the legal color minimizing the adjacency cost, sweeping
/// until a fixpoint. This is the natural strengthening of differential
/// select used by the Select/Coalesce pipelines before the final rewrite,
/// and it strictly generalizes remapping (a permutation is one particular
/// simultaneous recoloring).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_RECOLOR_H
#define DRA_CORE_RECOLOR_H

#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <vector>

namespace dra {

class Arena;

/// Recoloring outcome.
struct RecolorStats {
  double CostBefore = 0;
  double CostAfter = 0;
  unsigned Sweeps = 0;
  /// Cluster recolorings applied.
  size_t Changes = 0;
  /// Move-tied clusters considered (the search space size).
  size_t Clusters = 0;
  /// Candidate color evaluations (selectCost calls) across all sweeps —
  /// the recoloring descent's unit of work.
  size_t CandidateEvals = 0;
};

/// Improves \p ColorOf (a complete vreg -> color map for \p F, which must
/// still be in virtual-register form) in place. Interference is respected;
/// move-tied clusters (moves whose endpoints currently share a color) are
/// recolored jointly so no coalesced move is reintroduced. The objective
/// is the static adjacency cost of condition (3) under \p C.
/// With \p Scratch, graph-build scratch (liveness worklists, interference
/// bit rows) is carved from the arena instead of the heap; the arena must
/// outlive the call.
RecolorStats recolorColoring(const Function &F, const EncodingConfig &C,
                             std::vector<RegId> &ColorOf,
                             Arena *Scratch = nullptr);

} // namespace dra

#endif // DRA_CORE_RECOLOR_H
