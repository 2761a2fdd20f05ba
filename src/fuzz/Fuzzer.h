//===- fuzz/Fuzzer.h - Randomized differential-testing harness --*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dra-fuzz case engine. A *case* is one point of the sweep
///
///   seeded ProgramGen profile × EncodingConfig variant × scheme
///
/// where the config variants cover {lowend, vliw} × {SrcFirst, DstFirst}
/// × {with, without SpecialRegs} and the scheme axis cycles the three
/// differential pipelines (remap, select, coalesce) plus a
/// `cache-replay` variant that compiles the case cold, then again through
/// a warm result cache (driver/ResultCache.h), requiring the replayed
/// function and its encoded stream to be bit-identical to the fresh
/// compile, and a `csrc` variant whose program comes from the mini-C
/// frontend (src/frontend/) instead of ProgramGen: a seeded random
/// source file is generated, compiled through tokenizer/parser/lowering,
/// and the lowered function runs the same checks under one of the three
/// differential pipelines (rotated by seed), and a `portfolio` variant
/// that compiles through a two-worker scheme-portfolio race
/// (core/Portfolio.h) and additionally requires the committed result to
/// be exactly what a sequential sweep of the arms would pick:
/// cost-minimal under the winner rule, lowest arm index on ties, and
/// bit-identical to that arm's lone compile. For each case the harness:
///
///  1. generates the program and runs the full pipeline, checking the
///     end-to-end fingerprint (allocation may legally restructure code, so
///     only final state is compared here);
///  2. re-encodes the allocated function, requires `verifyDecodable`,
///     decodes, and checks `stripSetLastReg(decode(encode(F))) == F`
///     field for field;
///  3. runs the lockstep interpreter oracle (fuzz/Oracle.h) between the
///     allocated function and its round trip;
///  4. checks structural invariants (fuzz/Invariants.h): remap permutation
///     well-formedness, interference preservation under a fresh remap
///     probe, move legality after coalescing.
///
/// On failure the case is shrunk with the delta-debugging minimizer
/// (fuzz/Minimizer.h) under the same predicate, and the reduced program is
/// returned for repro serialization (fuzz/Repro.h).
///
/// Fault injection (`InjectFault`) corrupts the encoder's output in
/// controlled ways so the harness can be mutation-tested: a harness that
/// cannot catch a deliberately broken encoder is not guarding anything.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_FUZZ_FUZZER_H
#define DRA_FUZZ_FUZZER_H

#include "core/Pipeline.h"
#include "ir/Function.h"
#include "workloads/ProgramGen.h"

#include <cstdint>
#include <optional>
#include <string>

namespace dra {

/// Deliberate encoder corruption, applied between encode and decode.
/// Testing-only: proves the oracle catches real encoder bugs.
enum class InjectFault : uint8_t {
  None,
  /// Delete the first block-head set_last_reg repair (join repair).
  DropJoinRepair,
  /// Flip the low bit of the first nonzero difference code.
  CorruptFieldCode,
  /// Drop the first delayed (Aux != 0) set_last_reg.
  DropDelayedSlr,
};

const char *injectFaultName(InjectFault F);
bool parseInjectFault(const std::string &Name, InjectFault &Out);

/// One fuzz case, fully determined by (BaseSeed, Index).
struct FuzzCase {
  uint64_t Seed = 0;       ///< Program-generator seed.
  uint64_t Index = 0;      ///< Sweep index (names the case).
  Scheme S = Scheme::Remap;
  EncodingConfig Enc;
  ProgramProfile Profile;
  uint64_t StepLimit = 2'000'000;
  InjectFault Fault = InjectFault::None;
  /// Compile the case twice through a fresh in-memory result cache (cold
  /// miss, then warm hit) and require the replayed result — function and
  /// encoded stream — to match the fresh compile exactly (the
  /// `cache-replay` scheme variant sets this).
  bool CacheReplay = false;
  /// The `csrc` scheme variant: the case's program is CSource compiled
  /// through the mini-C frontend instead of a ProgramGen function.
  /// Failures skip delta debugging (the repro embeds the source itself,
  /// already small by generation profile).
  bool CSrc = false;
  std::string CSource;
  /// The `portfolio` scheme variant: compile through a concurrent
  /// scheme-portfolio race instead of a single pipeline, then require
  /// the committed result to match the best sequential arm exactly
  /// (cost, tie-break, and encoded bytes). The usual oracle checks run
  /// on the raced winner.
  bool Portfolio = false;
  unsigned PortfolioJobs = 1;

  /// Stable human-readable id, e.g. "s42-coalesce-vliw32-dst-sp".
  std::string name() const;
};

/// Derives sweep case \p Index for \p BaseSeed: scheme and config variant
/// cycle through the full cross product; program shape varies with the
/// derived seed. Pure function of its arguments (parallel and serial
/// sweeps agree).
FuzzCase caseForIndex(uint64_t BaseSeed, uint64_t Index);

/// Number of distinct (scheme × config) variants `caseForIndex` cycles
/// through; a sweep of this many consecutive indices covers the matrix.
unsigned caseMatrixSize();

/// Number of scheme variants; indices 0 .. caseVariantCount() - 1 name
/// each of them once.
unsigned caseVariantCount();

/// Name of the scheme-variant slot case \p Index occupies ("remap",
/// "select", "coalesce", "cache-replay", "csrc" or "portfolio").
/// Pure function of the index (the slot is Index mod the variant count).
const char *caseVariantName(uint64_t Index);

/// Runs every check on \p P under case \p FC. Returns std::nullopt when
/// all pass, otherwise a description of the first failing check. When
/// \p DynInsts is non-null it receives the reference execution's dynamic
/// instruction count (a work metric for the sweep).
std::optional<std::string> checkProgram(const Function &P,
                                        const FuzzCase &FC,
                                        uint64_t *DynInsts = nullptr);

/// Outcome of one case.
struct FuzzCaseResult {
  bool Ok = true;
  /// First failing check (empty when Ok).
  std::string Detail;
  /// The generated program, minimized when minimization ran.
  Function Program;
  /// Delta-debugging predicate invocations spent.
  size_t MinimizeSteps = 0;
  /// Dynamic instructions the reference execution retired (work metric).
  uint64_t OracleDynInsts = 0;
};

/// Generates the case's program, checks it, and on failure shrinks it.
/// \p MinimizeBudget bounds the delta-debugging predicate invocations
/// (0 disables minimization).
FuzzCaseResult runFuzzCase(const FuzzCase &FC, size_t MinimizeBudget = 600);

} // namespace dra

#endif // DRA_FUZZ_FUZZER_H
