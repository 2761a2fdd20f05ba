//===- bench/bench_vliw.cpp - Tables 2 and 3: VLIW loop sweep -------------===//
//
// Reproduces the paper's VLIW evaluation (Section 10.2) from one run of the
// sweep: differential encoding exposes RegN in {40, 48, 56, 64} registers
// through the 5-bit fields (DiffN = 32), applied selectively to loops
// whose register requirement exceeds 32.
//
//  * Table 2: speedup of the software-pipelined loops. Paper: optimized
//    loops speed up by >70%, all loops by 10.23% (RegN=40) to 17.24%
//    (RegN=64), overall close to the all-loop number, saturating past
//    RegN = 48.
//  * Table 3: spill operations left in the optimized loops and static code
//    growth (optimized loops / all loops / all code). Paper: spills drop
//    sharply from RegN=32 to 40/48; overall code growth stays within
//    1.13%, and RegN=40 shrinks the code because spill savings exceed the
//    set_last_reg cost.
//
// usage: bench_vliw [LOOPS]   corpus loops (default 1928, the paper's)
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"
#include "SuiteRunner.h"

#include <cstdio>

using namespace dra;

namespace {

void printTable2(const std::vector<VliwRow> &Rows) {
  std::printf("Table 2: VLIW software-pipelining speedup (DiffN = 32)\n");
  std::printf("%6s%20s%16s%16s\n", "RegN", "optimized loops", "all loops",
              "overall");
  for (const VliwRow &Row : Rows) {
    if (Row.RegN == 32) {
      std::printf("%6u%19s%%%15s%%%15s%% (baseline)\n", Row.RegN, "0.00",
                  "0.00", "0.00");
      continue;
    }
    std::printf("%6u%19.2f%%%15.2f%%%15.2f%%\n", Row.RegN,
                Row.SpeedupOptimizedPct, Row.SpeedupAllLoopsPct,
                Row.SpeedupOverallPct);
  }
  if (!Rows.empty())
    std::printf("\ncorpus: %zu loops, %zu (%.1f%%) need more than 32 "
                "registers\n",
                Rows.back().LoopCount, Rows.back().OptimizedLoopCount,
                100.0 * static_cast<double>(Rows.back().OptimizedLoopCount) /
                    static_cast<double>(Rows.back().LoopCount));
  std::printf("paper: optimized loops >70%%; all loops 10.23%% (RegN=40) "
              "to 17.24%% (RegN=64); saturates past RegN=48\n");
}

void printTable3(const std::vector<VliwRow> &Rows) {
  std::printf("Table 3: spills in optimized loops and code growth\n");
  std::printf("%6s%14s%18s%16s%14s\n", "RegN", "spill ops",
              "optimized loops", "all loops", "all code");
  for (const VliwRow &Row : Rows) {
    if (Row.RegN == 32) {
      std::printf("%6u%14zu%17s%%%15s%%%13s%%  (baseline)\n", Row.RegN,
                  Row.SpillOpsOptimized, "0.00", "0.00", "0.00");
      continue;
    }
    std::printf("%6u%14zu%17.2f%%%15.2f%%%13.2f%%\n", Row.RegN,
                Row.SpillOpsOptimized, Row.CodeGrowthOptimizedPct,
                Row.CodeGrowthAllLoopsPct, Row.CodeGrowthAllCodePct);
  }
  std::printf("\npaper: spills fall steeply from RegN=32 to 48; overall "
              "code growth <= 1.13%%; RegN=40 shrinks code\n");
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Loops = 1928;
  if (Argc > 2 ||
      (Argc == 2 && !cli::parseUnsigned("LOOPS", Argv[1], Loops))) {
    std::fprintf(stderr, "usage: bench_vliw [LOOPS]\n");
    return 2;
  }
  std::vector<VliwRow> Rows = runVliwSuite(Loops);
  printTable2(Rows);
  printTable3(Rows);
  return 0;
}
