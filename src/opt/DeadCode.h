//===- opt/DeadCode.h - Dead code elimination --------------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic liveness-based dead code elimination for the reproduction IR:
/// an instruction is removed when it defines a register that is not live
/// after it and it has no side effects (stores, spill stores and
/// terminators are always kept; set_last_reg is decode-relevant and kept).
/// Iterates to a fixpoint because removing one dead definition can kill
/// its operands' last uses.
///
/// The pass is deliberately *not* part of the benchmark pipelines: the
/// evaluation workloads are calibrated with their dead fraction included
/// (as real compiler output would be after -O2, close to none — the
/// generator produces very little). It is exposed for dra-batch --cleanup
/// and for users building their own pipelines.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OPT_DEADCODE_H
#define DRA_OPT_DEADCODE_H

#include "ir/Function.h"

namespace dra {

/// Removes dead pure instructions from \p F. Returns the number of
/// instructions deleted (across all fixpoint iterations).
size_t eliminateDeadCode(Function &F);

} // namespace dra

#endif // DRA_OPT_DEADCODE_H
