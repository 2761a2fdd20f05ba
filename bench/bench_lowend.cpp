//===- bench/bench_lowend.cpp - Table 1 and Figures 11-14 -----------------===//
//
// Reproduces the paper's low-end evaluation (Section 10.1) from one run of
// the suite: Table 1 (the simulated machine), then Figure 11 (static spill
// %), Figure 12 (set_last_reg cost and its join/range breakdown), Figure 13
// (code size) and Figure 14 (speedup on the pipeline model).
//
// usage: bench_lowend [RESTARTS]   remap restarts (default 200; the paper
//                                  uses 1000)
//
// Exits 1 when any (program, scheme) cell, the baseline included, computes
// a different result than the original program; 2 on a bad argument.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"
#include "SuiteRunner.h"

#include "core/EncodingConfig.h"
#include "sim/LowEndSim.h"

#include <cstdio>

using namespace dra;

namespace {

/// Table 1: the low-end machine configuration behind Figures 11-14 (a
/// 5-stage in-order processor in the ARM/THUMB mold whose ISA exposes 8
/// registers while the core has 16), as the reproduction models it.
void printTable1() {
  LowEndMachine M;
  EncodingConfig Diff = lowEndConfig(12);

  std::printf("Table 1: low-end machine configuration (reproduction)\n");
  std::printf("------------------------------------------------------\n");
  std::printf("pipeline            5-stage, in-order, single issue\n");
  std::printf("instruction width   %u bytes (THUMB-like)\n", M.BytesPerInst);
  std::printf("ISA registers       8 (baseline, direct 3-bit fields)\n");
  std::printf("diff. registers     %u addressable (DiffN=%u, DiffW=%u)\n",
              Diff.RegN, Diff.DiffN, Diff.DiffW);
  std::printf("I-cache             %u B, %u-way, %u B lines, miss %u cyc\n",
              M.ICacheBytes, M.ICacheWays, M.ICacheLineBytes,
              M.ICacheMissPenalty);
  std::printf("D-cache             %u B, %u-way, %u B lines, miss %u cyc\n",
              M.DCacheBytes, M.DCacheWays, M.DCacheLineBytes,
              M.DCacheMissPenalty);
  std::printf("load-use penalty    %u cycle(s)\n", M.LoadExtraCycles);
  std::printf("mul / div extra     %u / %u cycles\n", M.MulExtraCycles,
              M.DivExtraCycles);
  std::printf("taken branch        %u cycles\n", M.TakenBranchPenalty);
  std::printf("set_last_reg        1 fetch/decode slot (killed at decode)\n");
  std::printf("direct RegW needed  %u bits for 12 regs (vs DiffW=%u)\n",
              Diff.directWidth(), Diff.DiffW);
}

/// One per-program figure: a header of scheme names, a row per program
/// and an average row, every cell printed with \p CellFmt.
template <typename CellFn>
void printFigure(const std::vector<ProgramMetrics> &Suite,
                 const std::vector<Scheme> &Cols, const char *CellFmt,
                 CellFn Cell) {
  std::printf("%-14s", "benchmark");
  for (Scheme S : Cols)
    std::printf("%12s", schemeName(S));
  std::printf("\n");

  std::vector<double> Sums(Cols.size(), 0);
  for (const ProgramMetrics &PM : Suite) {
    std::printf("%-14s", PM.Name.c_str());
    for (size_t I = 0; I != Cols.size(); ++I) {
      double V = Cell(PM, Cols[I]);
      Sums[I] += V;
      std::printf(CellFmt, V);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "average");
  for (double Sum : Sums)
    std::printf(CellFmt, Sum / static_cast<double>(Suite.size()));
  std::printf("\n");
}

/// Figure 11: static spill instructions over the entire code. Paper
/// averages: 10.44 / 6.87 / 6.84 / 7.32 / 5.55 (%).
void printFigure11(const std::vector<ProgramMetrics> &Suite) {
  std::printf("Figure 11: static spill instructions (%% of all code)\n");
  printFigure(Suite, allSchemes(), "%11.2f%%",
              [](const ProgramMetrics &PM, Scheme S) {
                return PM.PerScheme.at(S).SpillPct;
              });
  std::printf("\npaper averages: baseline 10.44, remapping 6.87, "
              "select 6.84, O-spill 7.32, coalesce 5.55 (%%)\n");
}

/// Figure 12: static set_last_reg instructions for the three differential
/// schemes. Paper averages: remapping 10.41, select 4.21, coalesce 3.04
/// (%).
void printFigure12(const std::vector<ProgramMetrics> &Suite) {
  const std::vector<Scheme> Diff = {Scheme::Remap, Scheme::Select,
                                    Scheme::Coalesce};
  std::printf("Figure 12: set_last_reg instructions (%% of all code)\n");
  printFigure(Suite, Diff, "%11.2f%%",
              [](const ProgramMetrics &PM, Scheme S) {
                return PM.PerScheme.at(S).SlrPct;
              });

  std::printf("\nbreakdown (join repairs vs out-of-range repairs, static "
              "counts summed over programs):\n");
  for (Scheme S : Diff) {
    size_t Join = 0, Range = 0;
    for (const ProgramMetrics &PM : Suite) {
      Join += PM.PerScheme.at(S).SlrJoin;
      Range += PM.PerScheme.at(S).SlrRange;
    }
    std::printf("  %-10s join %6zu   range %6zu\n", schemeName(S), Join,
                Range);
  }
  std::printf("\npaper averages: remapping 10.41, select 4.21, coalesce "
              "3.04 (%%)\n");
}

/// Figure 13: code size normalized to the baseline. Paper: remapping grows
/// code ~7%, select stays within 1%, O-spill shrinks it ~4%, coalesce ~2%.
void printFigure13(const std::vector<ProgramMetrics> &Suite) {
  std::printf("Figure 13: code size (normalized to baseline)\n");
  printFigure(Suite, allSchemes(), "%12.3f",
              [](const ProgramMetrics &PM, Scheme S) {
                return PM.codeRatio(S);
              });
  std::printf("\npaper averages: remapping ~1.07, select ~1.01, O-spill "
              "~0.96, coalesce ~0.98 (normalized)\n");
}

/// Figure 14: speedup over the baseline on the interpreter-driven 5-stage
/// pipeline model with I/D caches. Paper averages: remapping 4.5%, select
/// 9.7%, coalesce 12.1%, O-spill 4.1%. \p AllOk is the suite-wide
/// semantics verdict.
void printFigure14(const std::vector<ProgramMetrics> &Suite, bool AllOk) {
  std::printf("Figure 14: speedup over baseline (pipeline simulation)\n");
  printFigure(Suite,
              {Scheme::Remap, Scheme::Select, Scheme::OSpill,
               Scheme::Coalesce},
              "%+11.2f%%", [](const ProgramMetrics &PM, Scheme S) {
                return PM.speedupPct(S);
              });
  std::printf("\nsemantics preserved on every run: %s\n",
              AllOk ? "yes" : "NO - INVESTIGATE");
  std::printf("paper averages: remapping 4.5, select 9.7, O-spill 4.1, "
              "coalesce 12.1 (%%)\n");
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Starts = 200;
  if (Argc > 2 ||
      (Argc == 2 && !cli::parseUnsigned("RESTARTS", Argv[1], Starts))) {
    std::fprintf(stderr, "usage: bench_lowend [RESTARTS]\n");
    return 2;
  }
  std::vector<ProgramMetrics> Suite = runLowEndSuite(Starts);

  bool AllOk = true;
  for (const ProgramMetrics &PM : Suite)
    for (const auto &[S, M] : PM.PerScheme)
      if (!M.SemanticsOk) {
        std::fprintf(stderr, "error: %s: semantics changed under %s\n",
                     PM.Name.c_str(), schemeName(S));
        AllOk = false;
      }

  printTable1();
  printFigure11(Suite);
  printFigure12(Suite);
  printFigure13(Suite);
  printFigure14(Suite, AllOk);
  return AllOk ? 0 : 1;
}
