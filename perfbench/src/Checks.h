//===- perfbench/src/Checks.h - Output checks and code quality --*- C++ -*-===//
//
// Checks the server's unique outputs after a timed phase and sums the
// code-quality guards over them:
//
//  * every output is simulated; its fingerprint must equal the
//    interpreter's fingerprint of the source function (the interpreter is
//    the independent reference, not the allocator);
//  * a seeded sample of outputs is byte-compared with a local compile:
//    runPipeline for an explicit scheme, a serial portfolio race for
//    `scheme=auto`.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Corpus.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Code-quality sums over the checked outputs. Code size and simulated
/// cycles are normalized by the source function, so corpora of different
/// seeds compare: bytes per source instruction, and cycles per thousand
/// instructions the interpreter executes on the source.
struct Quality {
  uint64_t Insts = 0, Spills = 0, Slrs = 0, CodeBytes = 0, SrcInsts = 0;
  double CyclesPerKinstSum = 0;
  uint64_t Outputs = 0;
  double spillPct() const { return Insts ? 100.0 * Spills / Insts : 0; }
  double slrPct() const { return Insts ? 100.0 * Slrs / Insts : 0; }
  double codeBytesPerInst() const {
    return SrcInsts ? double(CodeBytes) / SrcInsts : 0;
  }
  double simCyclesPerKinst() const {
    return Outputs ? CyclesPerKinstSum / Outputs : 0;
  }
};

struct CheckReport {
  Quality Q;
  uint64_t Simulated = 0;
  uint64_t Recompiled = 0;
  uint64_t Mismatches = 0;
  std::vector<std::string> Problems; ///< The first few, for the log.
};

/// Checks \p Payloads[K], the response body for request key \p Keys[K]
/// (keys with an empty payload are skipped), recompiling \p SampleCount
/// keys drawn with \p Seed, on \p Threads threads.
CheckReport checkOutputs(const Corpus &C, const std::vector<RequestKey> &Keys,
                         const std::vector<std::string> &Payloads,
                         uint64_t Seed, unsigned SampleCount,
                         unsigned Threads);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
