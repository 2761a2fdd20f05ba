//===- bench/SuiteRunner.cpp - Shared experiment drivers ------------------===//

#include "SuiteRunner.h"

#include "driver/BatchCompiler.h"
#include "driver/Metrics.h"
#include "driver/ThreadPool.h"
#include "interp/Interpreter.h"
#include "sim/LowEndSim.h"
#include "swp/SwpPipeline.h"
#include "workloads/LoopCorpus.h"
#include "workloads/MiBench.h"

#include <chrono>
#include <cstdio>

using namespace dra;

namespace {

/// Folds the low-end suite's result table into \p Reg as suite.* gauges
/// labeled {program, scheme}, next to the pipeline.* counters and stage
/// histograms the run recorded, and writes the snapshot to
/// BENCH_lowend.json.
void writeLowEndBenchJson(MetricsRegistry &Reg,
                          const std::vector<ProgramMetrics> &Suite) {
  for (const ProgramMetrics &PM : Suite) {
    for (const auto &[S, M] : PM.PerScheme) {
      MetricLabels L{{"program", PM.Name}, {"scheme", schemeName(S)}};
      Reg.gauge("suite.spill_pct", M.SpillPct, L);
      Reg.gauge("suite.slr_pct", M.SlrPct, L);
      Reg.gauge("suite.slr_join", static_cast<double>(M.SlrJoin), L);
      Reg.gauge("suite.slr_range", static_cast<double>(M.SlrRange), L);
      Reg.gauge("suite.code_bytes", static_cast<double>(M.CodeBytes), L);
      Reg.gauge("suite.cycles", static_cast<double>(M.Cycles), L);
      Reg.gauge("suite.semantics_ok", M.SemanticsOk ? 1.0 : 0.0, L);
    }
  }
  std::string Err;
  if (!Reg.writeJsonFile("BENCH_lowend.json", &Err))
    std::fprintf(stderr, "  [suite] metrics write failed: %s\n", Err.c_str());
  else
    std::fprintf(stderr, "  [suite] metrics written to BENCH_lowend.json\n");
}

/// Same for the VLIW sweep: one vliw.* gauge set per RegN row, written to
/// BENCH_vliw.json alongside the run's swp.* series.
void writeVliwBenchJson(MetricsRegistry &Reg,
                        const std::vector<VliwRow> &Rows) {
  for (const VliwRow &R : Rows) {
    MetricLabels L{{"regn", std::to_string(R.RegN)}};
    Reg.gauge("vliw.speedup_optimized_pct", R.SpeedupOptimizedPct, L);
    Reg.gauge("vliw.speedup_all_loops_pct", R.SpeedupAllLoopsPct, L);
    Reg.gauge("vliw.speedup_overall_pct", R.SpeedupOverallPct, L);
    Reg.gauge("vliw.spill_ops_optimized",
              static_cast<double>(R.SpillOpsOptimized), L);
    Reg.gauge("vliw.code_growth_optimized_pct", R.CodeGrowthOptimizedPct, L);
    Reg.gauge("vliw.code_growth_all_loops_pct", R.CodeGrowthAllLoopsPct, L);
    Reg.gauge("vliw.code_growth_all_code_pct", R.CodeGrowthAllCodePct, L);
    Reg.gauge("vliw.optimized_loops",
              static_cast<double>(R.OptimizedLoopCount), L);
    Reg.gauge("vliw.loops", static_cast<double>(R.LoopCount), L);
  }
  std::string Err;
  if (!Reg.writeJsonFile("BENCH_vliw.json", &Err))
    std::fprintf(stderr, "  [vliw] metrics write failed: %s\n", Err.c_str());
  else
    std::fprintf(stderr, "  [vliw] metrics written to BENCH_vliw.json\n");
}

} // namespace

const std::vector<Scheme> &dra::allSchemes() {
  static const std::vector<Scheme> Schemes = {
      Scheme::Baseline, Scheme::Remap, Scheme::Select, Scheme::OSpill,
      Scheme::Coalesce};
  return Schemes;
}

std::vector<ProgramMetrics> dra::runLowEndSuite(unsigned RemapStarts,
                                                unsigned Jobs) {
  std::vector<ProgramMetrics> Results;
  MetricsRegistry Reg;
  auto WallStart = std::chrono::steady_clock::now();

  BatchOptions BO;
  BO.Jobs = Jobs;
  BatchCompiler Batch(BO);

  // Generate the programs and their reference fingerprints in parallel.
  const std::vector<std::string> Names = miBenchNames();
  std::vector<Function> Programs(Names.size());
  std::vector<uint64_t> RefFp(Names.size());
  Batch.pool().parallelFor(Names.size(), [&](size_t I) {
    Programs[I] = miBenchProgram(Names[I]);
    RefFp[I] = fingerprint(interpret(Programs[I]));
  });

  // Flatten the programs × schemes grid into one batch; cell order (and
  // therefore every result) is fixed by the input indices alone.
  const std::vector<Scheme> &Schemes = allSchemes();
  std::vector<Function> Cells;
  std::vector<PipelineConfig> Configs;
  for (const Function &Program : Programs) {
    for (Scheme S : Schemes) {
      PipelineConfig Config;
      Config.S = S;
      Config.BaselineK = 8;
      Config.Enc = lowEndConfig(12);
      Config.Remap.NumStarts = RemapStarts;
      Config.Metrics = &Reg; // Thread-safe; series are keyed by labels.
      Cells.push_back(Program);
      Configs.push_back(Config);
    }
  }
  std::vector<PipelineResult> Compiled = Batch.run(Cells, Configs);

  // Simulate every cell on the same pool, then fold in index order.
  std::vector<SchemeMetrics> Metrics(Compiled.size());
  Batch.pool().parallelFor(Compiled.size(), [&](size_t I) {
    const PipelineResult &R = Compiled[I];
    SchemeMetrics M;
    M.SpillPct = R.spillPercent();
    M.SlrPct = R.setLastPercent();
    M.SlrJoin = R.Enc.SetLastJoin;
    M.SlrRange = R.Enc.SetLastRange;
    M.CodeBytes = R.CodeBytes;
    SimResult Sim = simulate(R.F);
    M.Cycles = Sim.Cycles;
    M.SemanticsOk = Sim.Fingerprint == RefFp[I / Schemes.size()];
    Metrics[I] = M;
  });

  for (size_t P = 0; P != Names.size(); ++P) {
    ProgramMetrics PM;
    PM.Name = Names[P];
    for (size_t S = 0; S != Schemes.size(); ++S)
      PM.PerScheme[Schemes[S]] = Metrics[P * Schemes.size() + S];
    Results.push_back(std::move(PM));
  }

  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();
  std::fprintf(stderr,
               "  [suite] %zu programs x %zu schemes in %.0f ms on %u "
               "worker(s)\n",
               Names.size(), Schemes.size(), WallMs,
               Batch.pool().workerCount());
  writeLowEndBenchJson(Reg, Results);
  return Results;
}

std::vector<VliwRow> dra::runVliwSuite(unsigned LoopCount, unsigned Jobs) {
  LoopCorpusOptions Opts;
  if (LoopCount != 0)
    Opts.Count = LoopCount;
  MetricsRegistry Reg;
  auto WallStart = std::chrono::steady_clock::now();
  std::vector<LoopDdg> Corpus = generateLoopCorpus(Opts);
  VliwMachine Machine;
  ThreadPool Pool(Jobs);

  // One modulo-scheduling pipeline run plus its swp.* metrics.
  auto ScheduleLoop = [&](size_t I, unsigned ArchRegs,
                          const EncodingConfig *Enc) {
    SwpResult R = pipelineLoop(Corpus[I], Machine, ArchRegs, Enc);
    MetricLabels L{{"regn", std::to_string(Enc ? Enc->RegN : ArchRegs)}};
    Reg.observe("swp.ii_attempts", static_cast<double>(R.IIAttempts), L);
    Reg.observe("swp.ii", static_cast<double>(R.II), L);
    Reg.count("swp.loops", 1, L);
    Reg.count("swp.sched_rounds", static_cast<double>(R.SchedRounds), L);
    Reg.count("swp.spill_ops", static_cast<double>(R.SpillOps), L);
    Reg.count("swp.spilled_values", static_cast<double>(R.SpilledValues), L);
    Reg.count("swp.set_last_regs", static_cast<double>(R.SetLastRegs), L);
    return R;
  };

  // Baseline: every loop limited to 32 architected registers, direct
  // encoding. Also records which loops are "optimized" (register
  // requirement above 32 when given unlimited registers). Loops are
  // independent, so the corpus is striped across the pool; everything
  // below reduces the indexed vectors serially.
  struct BaselineInfo {
    SwpResult At32;
    bool NeedsMore = false;
  };
  std::vector<BaselineInfo> Base(Corpus.size());
  Pool.parallelFor(Corpus.size(), [&](size_t I) {
    Base[I].At32 = ScheduleLoop(I, 32, nullptr);
    SwpResult Unlimited = pipelineLoop(Corpus[I], Machine, 1 << 20);
    Base[I].NeedsMore = Unlimited.RegsUsed > 32;
  });

  std::vector<VliwRow> Rows;
  for (unsigned RegN : {32u, 40u, 48u, 56u, 64u}) {
    VliwRow Row;
    Row.RegN = RegN;
    Row.LoopCount = Corpus.size();

    // Differential encoding is enabled selectively (Section 8.2) for
    // loops whose requirement exceeds the 32 architected registers.
    std::vector<SwpResult> New(Corpus.size());
    Pool.parallelFor(Corpus.size(), [&](size_t I) {
      if (RegN > 32 && Base[I].NeedsMore) {
        EncodingConfig Enc = vliwConfig(RegN);
        New[I] = ScheduleLoop(I, 32, &Enc);
      } else {
        New[I] = Base[I].At32;
      }
    });

    uint64_t BaseCyclesOpt = 0, NewCyclesOpt = 0;
    uint64_t BaseCyclesAll = 0, NewCyclesAll = 0;
    size_t BaseCodeOpt = 0, NewCodeOpt = 0;
    size_t BaseCodeAll = 0, NewCodeAll = 0;

    for (size_t I = 0; I != Corpus.size(); ++I) {
      const SwpResult &B = Base[I].At32;
      const SwpResult &N = New[I];
      if (RegN == 32 && Base[I].NeedsMore) {
        // Baseline row: report the spill ops the 32-register schedules of
        // the to-be-optimized loops contain, for Table 3's reference.
        ++Row.OptimizedLoopCount;
        Row.SpillOpsOptimized += B.SpillOps;
      }
      if (RegN > 32 && Base[I].NeedsMore) {
        ++Row.OptimizedLoopCount;
        Row.SpillOpsOptimized += N.SpillOps;
        BaseCyclesOpt += B.Cycles;
        NewCyclesOpt += N.Cycles;
        BaseCodeOpt += B.CodeInsts;
        NewCodeOpt += N.CodeInsts;
      }
      BaseCyclesAll += B.Cycles;
      NewCyclesAll += N.Cycles;
      BaseCodeAll += B.CodeInsts;
      NewCodeAll += N.CodeInsts;
    }

    auto Pct = [](double NewV, double BaseV) {
      return BaseV == 0 ? 0.0 : 100.0 * (NewV / BaseV - 1.0);
    };
    Row.SpeedupOptimizedPct =
        NewCyclesOpt == 0
            ? 0.0
            : 100.0 * (static_cast<double>(BaseCyclesOpt) /
                           static_cast<double>(NewCyclesOpt) -
                       1.0);
    Row.SpeedupAllLoopsPct =
        100.0 * (static_cast<double>(BaseCyclesAll) /
                     static_cast<double>(NewCyclesAll) -
                 1.0);
    // Loops account for ~80% of execution (the paper's corpus statistic);
    // the remaining 20% is unaffected.
    double LoopSpeedup = 1.0 + Row.SpeedupAllLoopsPct / 100.0;
    Row.SpeedupOverallPct = 100.0 * (1.0 / (0.2 + 0.8 / LoopSpeedup) - 1.0);

    Row.CodeGrowthOptimizedPct =
        Pct(static_cast<double>(NewCodeOpt), static_cast<double>(BaseCodeOpt));
    Row.CodeGrowthAllLoopsPct =
        Pct(static_cast<double>(NewCodeAll), static_cast<double>(BaseCodeAll));
    // Loop bodies are ~25% of the whole binary (documented model): growth
    // dilutes accordingly.
    Row.CodeGrowthAllCodePct = Row.CodeGrowthAllLoopsPct * 0.25;
    Rows.push_back(Row);
    std::fprintf(stderr, "  [vliw] RegN=%u done\n", RegN);
  }
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - WallStart)
                      .count();
  std::fprintf(stderr, "  [vliw] %zu loops x 5 rows in %.0f ms on %u "
                       "worker(s)\n",
               Corpus.size(), WallMs, Pool.workerCount());
  writeVliwBenchJson(Reg, Rows);
  return Rows;
}
