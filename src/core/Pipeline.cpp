//===- core/Pipeline.cpp - End-to-end allocation pipelines ----------------===//

#include "core/Pipeline.h"

#include "adt/Arena.h"
#include "analysis/LoopInfo.h"
#include "core/DiffSelectHook.h"
#include "core/OperandSwap.h"
#include "driver/Trace.h"

using namespace dra;

const char *dra::schemeName(Scheme S) {
  switch (S) {
  case Scheme::Baseline:
    return "baseline";
  case Scheme::OSpill:
    return "O-spill";
  case Scheme::Remap:
    return "remapping";
  case Scheme::Select:
    return "select";
  case Scheme::Coalesce:
    return "coalesce";
  }
  assert(false && "unknown scheme");
  return "<bad>";
}

const char *dra::wireSchemeName(Scheme S) {
  switch (S) {
  case Scheme::Baseline:
    return "baseline";
  case Scheme::OSpill:
    return "ospill";
  case Scheme::Remap:
    return "remap";
  case Scheme::Select:
    return "select";
  case Scheme::Coalesce:
    return "coalesce";
  }
  return "coalesce";
}

bool dra::parseSchemeName(const std::string &Name, Scheme &Out) {
  for (Scheme S : {Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                   Scheme::Select, Scheme::Coalesce})
    if (Name == wireSchemeName(S)) {
      Out = S;
      return true;
    }
  return false;
}

namespace {

/// Depth-0 stage span over the result's span list (see driver/Metrics.h).
/// The cost is two clock reads per stage — noise next to any allocation
/// stage.
class StageTimer {
public:
  StageTimer(PipelineResult &R, const char *Stage)
      : Span(&R.Spans, Stage, /*Depth=*/0) {}

private:
  ScopedSpan Span;
};

/// Fills the final static counts of \p R from R.F.
void finalizeCounts(PipelineResult &R) {
  R.NumInsts = R.F.numInsts();
  R.SpillInsts = R.F.numSpillInsts();
  R.SetLastRegs = R.F.numSetLastRegs();
  R.CodeBytes = codeSizeBytes(R.F);
}

/// Direct-encoding stand-in configuration for the coalesce driver when it
/// runs in the non-differential (O-spill) arm: every difference is
/// representable, so no encoding cost exists.
EncodingConfig directConfig(unsigned K) {
  EncodingConfig C;
  C.RegN = K;
  C.DiffN = K;
  unsigned W = 0;
  while ((1u << W) < K)
    ++W;
  C.DiffW = std::max(1u, W);
  return C;
}

/// Frequency-weighted count of instructions satisfying \p Pred — the
/// static benefit/cost estimate the adaptive mode compares (Section 8.2).
template <typename PredT>
double weightedCount(const Function &F, PredT Pred) {
  Function Copy = F;
  Copy.recomputeCFG();
  LoopInfo LI = LoopInfo::compute(Copy);
  double Total = 0;
  for (uint32_t B = 0, E = static_cast<uint32_t>(Copy.Blocks.size()); B != E;
       ++B)
    for (const Instruction &I : Copy.Blocks[B].Insts)
      if (Pred(I))
        Total += LI.frequency(B);
  return Total;
}

PipelineResult runOnce(const Function &Src, const PipelineConfig &C) {
  PipelineResult R;
  R.F = Src;

  // One bump arena per pipeline run: every stage's graph-build scratch
  // (liveness worklists, interference bit rows) is carved from it and
  // released wholesale when the run ends.
  Arena RunArena;

  switch (C.S) {
  case Scheme::Baseline: {
    StageTimer T(R, "alloc");
    R.Alloc = allocateGraphColoring(R.F, C.BaselineK, nullptr,
                                    /*MaxIterations=*/60, nullptr, &R.Spans);
    break;
  }
  case Scheme::OSpill: {
    {
      StageTimer T(R, "ospill");
      R.OSpill = optimalSpill(R.F, C.BaselineK, DefaultNodeBudget, &R.Spans,
                              &RunArena);
    }
    StageTimer T(R, "coalesce");
    R.Coalesce = coalesceAndColor(R.F, directConfig(C.BaselineK),
                                  /*DiffAware=*/false, &R.Spans, &RunArena);
    break;
  }
  case Scheme::Remap: {
    {
      StageTimer T(R, "alloc");
      R.Alloc = allocateGraphColoring(R.F, C.Enc.RegN, nullptr,
                                      /*MaxIterations=*/60, nullptr,
                                      &R.Spans);
    }
    StageTimer T(R, "remap");
    R.Remap = remapFunction(R.F, C.Enc, C.Remap);
    R.DiffEncoded = true;
    break;
  }
  case Scheme::Select: {
    DiffSelectHook Hook(C.Enc);
    std::vector<RegId> ColorOf;
    {
      StageTimer T(R, "alloc");
      R.Alloc = allocateGraphColoring(R.F, C.Enc.RegN, &Hook,
                                      /*MaxIterations=*/60, &ColorOf,
                                      &R.Spans);
    }
    // Refine the select-stage assignment at live-range granularity before
    // rewriting (see core/Recolor.h), then run the register-level
    // remapping post-pass of Section 3.
    {
      StageTimer T(R, "recolor");
      R.Recolor = recolorColoring(R.F, C.Enc, ColorOf, &RunArena);
      rewriteToPhysical(R.F, ColorOf, C.Enc.RegN, &R.Alloc.MovesRemoved);
      R.F.NumRegs = C.Enc.RegN;
    }
    StageTimer T(R, "remap");
    R.Remap = remapFunction(R.F, C.Enc, C.Remap);
    R.DiffEncoded = true;
    break;
  }
  case Scheme::Coalesce: {
    {
      StageTimer T(R, "ospill");
      R.OSpill = optimalSpill(R.F, C.Enc.RegN, DefaultNodeBudget, &R.Spans,
                              &RunArena);
    }
    {
      StageTimer T(R, "coalesce");
      R.Coalesce = coalesceAndColor(R.F, C.Enc, /*DiffAware=*/true, &R.Spans,
                                    &RunArena);
    }
    StageTimer T(R, "remap");
    R.Remap = remapFunction(R.F, C.Enc, C.Remap);
    R.DiffEncoded = true;
    break;
  }
  }

  if (R.DiffEncoded) {
    // Section 9.4 access-order flexibility: commutative operand swapping
    // removes out-of-range transitions the assignment could not avoid.
    StageTimer T(R, "encode");
    swapCommutativeOperands(R.F, C.Enc);
    EncodedFunction Encoded = encodeFunction(R.F, C.Enc);
    R.Enc = Encoded.Stats;
    R.F = std::move(Encoded.Annotated);
  }
  finalizeCounts(R);
  return R;
}

/// Flushes the result's locally-accumulated event counters into \p M,
/// labeled {scheme, function}. Satellite of the zero-cost rule: all the
/// counters below were maintained as plain integers inside the
/// algorithms; the only registry traffic is this one flush per run.
void flushPipelineMetrics(MetricsRegistry &M, const PipelineConfig &C,
                          const PipelineResult &R, const Function &Src) {
  // Portfolio requests label as "auto" rather than the winning scheme:
  // the label identifies the *request* config, and keeping it stable
  // across hit/miss (a warm hit does not re-race) keeps the series
  // comparable. Which scheme won is portfolio.wins{scheme=...}'s job.
  const char *SchemeL = C.Portfolio.Mode != PortfolioMode::Off
                            ? "auto"
                            : schemeName(C.S);
  MetricLabels L{{"scheme", SchemeL},
                 {"function", Src.Name.empty() ? "<anon>" : Src.Name}};
  auto Count = [&](const char *Name, double V) { M.count(Name, V, L); };
  auto Gauge = [&](const char *Name, double V) { M.gauge(Name, V, L); };

  // Whole-pipeline outcome.
  Count("pipeline.functions", 1);
  Count("pipeline.insts", static_cast<double>(R.NumInsts));
  Count("pipeline.spill_insts", static_cast<double>(R.SpillInsts));
  Count("pipeline.set_last_regs", static_cast<double>(R.SetLastRegs));
  Count("pipeline.code_bytes", static_cast<double>(R.CodeBytes));
  Count("pipeline.adaptive_fallbacks", R.AdaptiveFellBack ? 1 : 0);

  // Iterated register coalescing (Baseline/Remap/Select arms).
  Count("alloc.rounds", R.Alloc.Iterations);
  Count("alloc.spilled_ranges", static_cast<double>(R.Alloc.SpilledRanges));
  Count("alloc.spill_loads", static_cast<double>(R.Alloc.SpillLoads));
  Count("alloc.spill_stores", static_cast<double>(R.Alloc.SpillStores));
  Count("alloc.moves_removed", static_cast<double>(R.Alloc.MovesRemoved));
  Count("alloc.moves_remaining",
        static_cast<double>(R.Alloc.MovesRemaining));
  Count("alloc.simplify_steps", static_cast<double>(R.Alloc.SimplifySteps));
  Count("alloc.freeze_steps", static_cast<double>(R.Alloc.FreezeSteps));
  Count("alloc.spill_selects", static_cast<double>(R.Alloc.SpillSelects));
  Count("alloc.coalesce_briggs",
        static_cast<double>(R.Alloc.CoalesceBriggs));
  Count("alloc.coalesce_george",
        static_cast<double>(R.Alloc.CoalesceGeorge));
  Count("alloc.coalesce_constrained",
        static_cast<double>(R.Alloc.CoalesceConstrained));
  Count("alloc.coalesce_deferred",
        static_cast<double>(R.Alloc.CoalesceDeferred));

  // Optimal spilling (OSpill/Coalesce arms).
  Count("ospill.rounds", R.OSpill.Rounds);
  Count("ospill.spilled_ranges",
        static_cast<double>(R.OSpill.SpilledRanges));
  Count("ospill.ilp_constraints",
        static_cast<double>(R.OSpill.ILPConstraints));
  Count("ospill.ilp_variables",
        static_cast<double>(R.OSpill.ILPVariables));
  Count("ospill.ilp_suboptimal", R.OSpill.ILPOptimal ? 0 : 1);

  // Differential coalesce (oracle-driven search).
  Count("coalesce.steps", R.Coalesce.Steps);
  Count("coalesce.moves_coalesced",
        static_cast<double>(R.Coalesce.MovesCoalesced));
  Count("coalesce.moves_remaining",
        static_cast<double>(R.Coalesce.MovesRemaining));
  Count("coalesce.extra_spilled_ranges",
        static_cast<double>(R.Coalesce.ExtraSpilledRanges));
  Count("coalesce.oracle_calls",
        static_cast<double>(R.Coalesce.OracleCalls));
  Count("coalesce.probes", static_cast<double>(R.Coalesce.ProbesAttempted));
  Count("coalesce.probes_uncolorable",
        static_cast<double>(R.Coalesce.ProbesUncolorable));
  Count("coalesce.spill_restarts", R.Coalesce.SpillRestarts);
  Gauge("coalesce.final_adj_cost", R.Coalesce.FinalAdjCost);

  // Recoloring descent (Select/Coalesce arms).
  Count("recolor.sweeps", R.Recolor.Sweeps);
  Count("recolor.changes", static_cast<double>(R.Recolor.Changes));
  Count("recolor.clusters", static_cast<double>(R.Recolor.Clusters));
  Count("recolor.candidate_evals",
        static_cast<double>(R.Recolor.CandidateEvals));
  Gauge("recolor.cost_before", R.Recolor.CostBefore);
  Gauge("recolor.cost_after", R.Recolor.CostAfter);

  // Remapping post-pass.
  Count("remap.starts", R.Remap.StartsRun);
  Count("remap.swaps_evaluated",
        static_cast<double>(R.Remap.SwapsEvaluated));
  Count("remap.swaps_applied", static_cast<double>(R.Remap.SwapsApplied));
  Count("remap.starts_cutoff", R.Remap.StartsCutOff);
  Count("remap.delta_arc_visits",
        static_cast<double>(R.Remap.DeltaArcsVisited));
  Count("remap.delta_recost_savings",
        static_cast<double>(R.Remap.DeltaRecostSavings));
  Count("remap.exhaustive", R.Remap.Exhaustive ? 1 : 0);
  Gauge("remap.cost_before", R.Remap.CostBefore);
  Gauge("remap.cost_after", R.Remap.CostAfter);

  // Differential encoder repairs (satellite: EncodeStats wired through).
  Count("encode.set_last_join", static_cast<double>(R.Enc.SetLastJoin));
  Count("encode.set_last_range", static_cast<double>(R.Enc.SetLastRange));
  Count("encode.fields", static_cast<double>(R.Enc.NumFields));
  Count("encode.field_bits", static_cast<double>(R.Enc.FieldBits));

  // Per-stage wall clock, one histogram series per (scheme, stage); the
  // function label is dropped to bound series cardinality.
  for (const StageSpan &S : R.Spans) {
    MetricLabels SL{{"scheme", SchemeL}, {"stage", S.Stage}};
    M.observe(S.Depth == 0 ? "stage_us" : "substage_us",
              static_cast<double>(S.EndNs - S.BeginNs) / 1000.0, SL);
  }
}

/// The pipeline proper (including the adaptive fallback), minus the
/// metrics flush.
PipelineResult runPipelineImpl(const Function &Src, const PipelineConfig &C) {
  PipelineResult R = runOnce(Src, C);
  if (!C.AdaptiveEnable || C.S == Scheme::Baseline || C.S == Scheme::OSpill)
    return R;

  // Section 8.2: compare the frequency-weighted dynamic estimate of the
  // differential scheme (spills saved) against its set_last_reg overhead;
  // fall back to the baseline when the encoding does not pay off.
  PipelineConfig BaseCfg = C;
  BaseCfg.S = Scheme::Baseline;
  BaseCfg.AdaptiveEnable = false;
  PipelineResult Base = runOnce(Src, BaseCfg);

  auto IsSpill = [](const Instruction &I) { return I.isSpill(); };
  auto IsSlr = [](const Instruction &I) {
    return I.Op == Opcode::SetLastReg;
  };
  double Benefit = weightedCount(Base.F, IsSpill) -
                   weightedCount(R.F, IsSpill) -
                   weightedCount(R.F, IsSlr);
  if (Benefit >= 0)
    return R;
  Base.AdaptiveFellBack = true;
  // The discarded differential attempt was real compile time: keep its
  // spans ahead of the baseline's so stage timings account for all of it.
  Base.Spans.insert(Base.Spans.begin(), R.Spans.begin(), R.Spans.end());
  return Base;
}

} // namespace

PipelineResult dra::runPipeline(const Function &Src, const PipelineConfig &C) {
  PipelineResult R;
  const char *Tier = nullptr;
  if (!C.Cache || !C.Cache->lookupTiered(Src, C, R, &Tier))
    return compilePipeline(Src, C);
  // A hit replays the stored result, counters and all, so the metrics
  // flush is identical on both paths; it has no Spans to mirror (the
  // cache recorded its probe span instead).
  if (C.Metrics)
    flushPipelineMetrics(*C.Metrics, C, R, Src);
  return R;
}

PipelineResult dra::compilePipeline(const Function &Src,
                                    const PipelineConfig &C) {
  PipelineResult R;
  if (C.Portfolio.Mode != PortfolioMode::Off) {
    // Portfolio dispatch: race (or choose) among the arms; each arm
    // re-enters runPipeline with the portfolio stripped, so the recursion
    // is one level deep. The winner stores under the portfolio key *and*
    // under the winning arm's concrete single-scheme key — a later direct
    // request for that scheme hits the same entry.
    PipelineConfig WinnerCfg;
    R = runPortfolio(Src, C, &WinnerCfg);
    if (C.Cache) {
      C.Cache->store(Src, C, R);
      C.Cache->store(Src, WinnerCfg, R);
    }
  } else {
    R = runPipelineImpl(Src, C);
    if (C.Cache)
      C.Cache->store(Src, C, R);
  }
  if (C.Metrics)
    flushPipelineMetrics(*C.Metrics, C, R, Src);
  // Mirror the stage spans into the request-scoped trace. The whole
  // pipeline runs on the calling thread, so record() attributes every
  // span correctly; +2 rebases stage depth under the server's
  // request(0)/compile(1) spans.
  if (C.Trace)
    for (const StageSpan &S : R.Spans)
      C.Trace->record(S.Stage, S.BeginNs, S.EndNs, S.Depth + 2);
  return R;
}
