//===- core/OptimalSpill.h - ILP-based near-optimal spilling ----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first stage of the paper's third pipeline: the optimal-spilling
/// register allocator of Appel & George (PLDI 2001), which decides spills
/// with an ILP so that "at each program point, at most RegN live ranges are
/// co-live". The paper ran CPLEX; we formulate the decision at live-range
/// granularity — one 0-1 variable per live range, one covering constraint
/// per over-pressure program point ("spill at least pressure-K of the
/// ranges live here") — and solve it exactly with the branch-and-bound
/// solver in src/ilp. Spill code insertion creates short-lived temporaries,
/// so a few refinement rounds run until no point exceeds K.
///
/// See DESIGN.md for why this granularity substitution preserves the
/// downstream behaviour the paper's evaluation depends on.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_OPTIMALSPILL_H
#define DRA_CORE_OPTIMALSPILL_H

#include "driver/Metrics.h"
#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace dra {

class Arena;

/// Outcome of the spill stage.
struct OptimalSpillResult {
  /// Live ranges sent to memory.
  size_t SpilledRanges = 0;
  /// Refinement rounds executed.
  unsigned Rounds = 0;
  /// True if every ILP solve proved optimality within its node budget.
  bool ILPOptimal = true;
  /// Covering constraints (deduplicated over-pressure points) and 0-1
  /// variables handed to the ILP solver, summed over all rounds — the
  /// problem size the branch-and-bound search actually faced.
  size_t ILPConstraints = 0;
  size_t ILPVariables = 0;
};

/// Branch-and-bound nodes each covering-ILP solve may explore.
constexpr uint64_t DefaultNodeBudget = 20000;

/// Inserts spill code into \p F until no program point has more than \p K
/// simultaneously-live registers. Minimizes the frequency-weighted spill
/// cost per round via the covering ILP.
///
/// When \p SubSpans is non-null, one Depth-1 "ospill.round" span is
/// recorded per refinement round (null = no clock reads). With \p Scratch,
/// per-round analysis scratch (liveness worklists) is carved from the
/// arena instead of the heap; the arena must outlive the call.
OptimalSpillResult optimalSpill(Function &F, unsigned K,
                                uint64_t NodeBudget = DefaultNodeBudget,
                                std::vector<StageSpan> *SubSpans = nullptr,
                                Arena *Scratch = nullptr);

} // namespace dra

#endif // DRA_CORE_OPTIMALSPILL_H
