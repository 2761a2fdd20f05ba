//===- workloads/ProgramGen.h - Synthetic program generator -----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic generator of structured, executable IR programs. It is
/// the stand-in for the paper's MiBench binaries (see DESIGN.md): programs
/// are built from nested counted loops, if/else regions, expression DAGs
/// over a pool of long-lived accumulator variables, array traffic and
/// register-to-register moves. The knobs control exactly the properties
/// the paper's evaluation depends on: register pressure (spills), loop
/// nesting (dynamic weight of spill code) and code shape (adjacency-graph
/// structure).
///
/// Every generated program terminates and is memory-safe, so it can be run
/// end-to-end by the interpreter and the pipeline simulators.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_WORKLOADS_PROGRAMGEN_H
#define DRA_WORKLOADS_PROGRAMGEN_H

#include "ir/Function.h"

#include <cstdint>
#include <string>

namespace dra {

class Rng;

/// Shape parameters for one synthetic program.
struct ProgramProfile {
  uint64_t Seed = 1;
  /// Long-lived accumulator variables (live across most of the program).
  unsigned PressureVars = 6;
  /// Statements in the outer body.
  unsigned TopStatements = 14;
  /// Maximum loop-nesting depth below the implicit outer loop.
  unsigned MaxLoopDepth = 2;
  /// Statements per nested loop/if body.
  unsigned BodyStatements = 8;
  /// Independent subexpressions combined per assignment (drives peak
  /// pressure from short-lived temporaries).
  unsigned ExprWidth = 3;
  /// Percent of assignments that are "hot": their expression uses HotWidth
  /// parallel subexpressions, creating localized pressure spikes. These
  /// regions are what still spills with RegN = 12 — the paper's programs
  /// have exactly this heterogeneity (most code fits, some regions do
  /// not).
  unsigned HotPct = 8;
  unsigned HotWidth = 9;
  /// Trip count range for counted loops.
  unsigned TripMin = 4;
  unsigned TripMax = 10;
  /// Trip count of the implicit outer loop (scales dynamic instructions).
  unsigned OuterTrip = 10;
  /// Data array words.
  unsigned MemWords = 256;
  /// Per-statement probabilities (percent): loop, if, memory op, move.
  unsigned LoopPct = 22;
  unsigned IfPct = 18;
  unsigned MemPct = 22;
  unsigned MovePct = 12;
};

/// Generates one program. The result passes verifyFunction and terminates
/// under the interpreter.
Function generateProgram(const std::string &Name, const ProgramProfile &P);

/// A program of \p MinInsts to \p MaxInsts instructions in the shape of
/// \p P, drawn the way perfbench draws its corpus: each try takes the next
/// seed from \p R and grows the program one top-level statement at a time,
/// up to 3 * P.TopStatements, until it reaches the band; a try that jumps
/// past the band moves on to the next seed. The draw does not give up, so
/// the band must be one the shape can reach.
Function generateSizedProgram(const std::string &Name, ProgramProfile P,
                              Rng &R, unsigned MinInsts, unsigned MaxInsts);

} // namespace dra

#endif // DRA_WORKLOADS_PROGRAMGEN_H
