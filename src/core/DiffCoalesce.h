//===- core/DiffCoalesce.h - Differential coalesce (approach 3) -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Approach 3 of the paper (Section 7, Figure 9): on top of the
/// optimal-spill allocator, the coalesce stage is driven by the combined
/// cost of move instructions *and* set_last_reg instructions. Each step
/// tentatively coalesces every remaining move candidate, calls the
/// rebuild&simplify + differential-select subroutine to obtain the
/// resulting coloring cost (or "uncolorable"), undoes the attempt, and
/// finally commits the candidate with the maximal cost reduction. The
/// driver then colors the merged graph with differential select and
/// rewrites the function; if the optimistic coloring fails (pressure <= K
/// does not guarantee colorability), the cheapest failing node is spilled
/// and the driver restarts — these extra spills are reported.
///
/// With DiffAware = false the same machinery reproduces a conventional
/// aggressive coalescer (move cost only, undo on uncolorable), which is the
/// "O-spill" arm of the paper's evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_DIFFCOALESCE_H
#define DRA_CORE_DIFFCOALESCE_H

#include "core/EncodingConfig.h"
#include "driver/Metrics.h"
#include "ir/Function.h"

#include <vector>

namespace dra {

class Arena;

/// Outcome of coalesceAndColor.
struct CoalesceResult {
  /// Moves whose endpoints were merged (instruction deleted).
  size_t MovesCoalesced = 0;
  /// Moves remaining in the final code.
  size_t MovesRemaining = 0;
  /// Ranges spilled because the optimistic coloring failed.
  size_t ExtraSpilledRanges = 0;
  /// Differential cost of the final assignment on the live-range adjacency
  /// graph (0 when !DiffAware? — still reported for comparison).
  double FinalAdjCost = 0;
  /// Coalescence steps committed.
  unsigned Steps = 0;
  /// False if coloring kept failing beyond the retry limit.
  bool Success = true;

  // Search-effort counters (always maintained; flushed to a
  // MetricsRegistry by runPipeline when one is configured).
  /// Invocations of the rebuild&simplify + select coloring oracle
  /// (colorMerged): the current-cost evaluation, one per candidate probe,
  /// and the final coloring of each restart round.
  size_t OracleCalls = 0;
  /// Tentative coalescences probed on a graph copy.
  size_t ProbesAttempted = 0;
  /// Probes whose merged graph the oracle failed to color (rejected).
  size_t ProbesUncolorable = 0;
  /// Spill-and-restart rounds taken after a failed final coloring.
  unsigned SpillRestarts = 0;
};

/// Coalesces moves and colors \p F onto K = C.RegN registers, mutating it
/// in place (register operands become physical numbers < C.RegN, identity
/// moves are deleted, F.NumRegs becomes C.RegN). The function must already
/// satisfy max-pressure <= C.RegN - small slack (run optimalSpill first).
/// \p DiffAware includes the differential-encoding cost in the coalescing
/// objective and colors with differential select (the Coalesce scheme);
/// without it the driver is the O-spill arm's move-cost-only coalescer.
///
/// When \p SubSpans is non-null, one Depth-1 "coalesce.round" span is
/// recorded per coalesce/color (restart) round (null = no clock reads).
/// With \p Scratch, per-round graph-build scratch (liveness worklists,
/// interference bit rows) is carved from the arena instead of the heap;
/// the arena must outlive the call.
CoalesceResult coalesceAndColor(Function &F, const EncodingConfig &C,
                                bool DiffAware = true,
                                std::vector<StageSpan> *SubSpans = nullptr,
                                Arena *Scratch = nullptr);

} // namespace dra

#endif // DRA_CORE_DIFFCOALESCE_H
