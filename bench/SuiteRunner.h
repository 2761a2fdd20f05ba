//===- bench/SuiteRunner.h - Shared experiment drivers ----------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two experiments of the paper's evaluation (Section 10): all five
/// pipelines over the ten MiBench-like programs (bench_lowend: Table 1,
/// Figures 11-14) and the 1928-loop VLIW sweep (bench_vliw: Tables 2-3).
///
/// Besides the tables each binary prints, every suite run also writes a
/// machine-readable metrics snapshot — BENCH_lowend.json / BENCH_vliw.json
/// in the working directory — in the dra-metrics-v1 schema
/// (driver/Metrics.h), consumable by tools/dra-stats: the suite-level
/// result gauges (suite.* / vliw.*) next to the allocator-deep counters
/// and stage histograms of the same run.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_BENCH_SUITERUNNER_H
#define DRA_BENCH_SUITERUNNER_H

#include "core/Pipeline.h"
#include "driver/Metrics.h"

#include <map>
#include <string>
#include <vector>

namespace dra {

/// Metrics of one (program, scheme) cell of the low-end evaluation.
struct SchemeMetrics {
  double SpillPct = 0;      // Fig. 11.
  double SlrPct = 0;        // Fig. 12.
  size_t SlrJoin = 0;       // Breakdown of the above.
  size_t SlrRange = 0;
  size_t CodeBytes = 0;     // Fig. 13 numerator.
  uint64_t Cycles = 0;      // Fig. 14 input.
  bool SemanticsOk = false; // Fingerprint preserved end to end.
};

/// One program's row across all five schemes.
struct ProgramMetrics {
  std::string Name;
  std::map<Scheme, SchemeMetrics> PerScheme;

  double codeRatio(Scheme S) const {
    return static_cast<double>(PerScheme.at(S).CodeBytes) /
           static_cast<double>(PerScheme.at(Scheme::Baseline).CodeBytes);
  }
  double speedupPct(Scheme S) const {
    return 100.0 *
           (static_cast<double>(PerScheme.at(Scheme::Baseline).Cycles) /
                static_cast<double>(PerScheme.at(S).Cycles) -
            1.0);
  }
};

/// All five schemes, in the paper's presentation order.
const std::vector<Scheme> &allSchemes();

/// Runs the complete low-end experiment (Section 10.1): ten programs,
/// five pipelines, pipeline simulation. \p RemapStarts trades experiment
/// fidelity for time (the paper uses 1000 restarts). The programs×schemes
/// grid is compiled through the parallel BatchCompiler on \p Jobs workers
/// (0 = hardware concurrency, 1 = serial); results are deterministic and
/// independent of the worker count.
std::vector<ProgramMetrics> runLowEndSuite(unsigned RemapStarts = 200,
                                           unsigned Jobs = 0);

/// One row of the VLIW evaluation (Tables 2 and 3) for a given RegN.
struct VliwRow {
  unsigned RegN = 32;
  double SpeedupOptimizedPct = 0; // Loops that needed > 32 registers.
  double SpeedupAllLoopsPct = 0;
  double SpeedupOverallPct = 0;   // Loops are 80% of execution time.
  size_t SpillOpsOptimized = 0;   // Table 3, column 2.
  double CodeGrowthOptimizedPct = 0;
  double CodeGrowthAllLoopsPct = 0;
  double CodeGrowthAllCodePct = 0; // Loops are ~25% of static code.
  size_t OptimizedLoopCount = 0;
  size_t LoopCount = 0;
};

/// Runs the VLIW sweep (Section 10.2): schedules every corpus loop at the
/// 32-register baseline and at each differential RegN in {40,48,56,64},
/// applying differential encoding only to loops that need more than 32
/// registers (Section 8.2 selective enabling). \p LoopCount trims the
/// corpus for quick runs (0 = the paper's 1928). Loops are scheduled
/// across \p Jobs pool workers (0 = hardware concurrency, 1 = serial);
/// per-loop results are reduced in index order, so every row is
/// bit-identical to the serial run.
std::vector<VliwRow> runVliwSuite(unsigned LoopCount = 0, unsigned Jobs = 0);

} // namespace dra

#endif // DRA_BENCH_SUITERUNNER_H
