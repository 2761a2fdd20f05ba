//===- core/Pipeline.h - End-to-end allocation pipelines --------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five pipelines of the paper's low-end evaluation (Section 10.1),
/// exposed behind one facade:
///
///  * Baseline  — iterated register coalescing with K = BaselineK (8)
///                registers, direct encoding.
///  * OSpill    — optimal-spill allocator with K = BaselineK registers,
///                aggressive (move-cost-only) coalescing, direct encoding.
///  * Remap     — iterated register coalescing with RegN (12) registers,
///                then differential remapping, then encoding.
///  * Select    — iterated register coalescing with RegN registers and the
///                differential select stage, then remapping + encoding.
///  * Coalesce  — optimal spilling with RegN registers, differential
///                coalesce + differential select, remapping + encoding.
///
/// The differential schemes keep the instruction width of the baseline
/// (DiffW bits per register field) while addressing RegN > 2^DiffW
/// registers.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_PIPELINE_H
#define DRA_CORE_PIPELINE_H

#include "core/DiffCoalesce.h"
#include "core/Encoder.h"
#include "core/EncodingConfig.h"
#include "core/OptimalSpill.h"
#include "core/Portfolio.h"
#include "core/Recolor.h"
#include "core/Remap.h"
#include "core/Scheme.h"
#include "driver/Metrics.h"
#include "ir/Function.h"
#include "regalloc/GraphColoring.h"

#include <cstdint>
#include <vector>

namespace dra {

class PipelineCache;
class TraceContext; // driver/Trace.h; config carries only the pointer

/// Pipeline parameters.
struct PipelineConfig {
  Scheme S = Scheme::Baseline;
  /// Architected registers of the unmodified ISA (Baseline / OSpill).
  unsigned BaselineK = 8;
  /// Differential-encoding parameters for the Remap/Select/Coalesce
  /// schemes (RegN registers addressable through DiffW-bit fields).
  EncodingConfig Enc = lowEndConfig(12);
  /// Options for the remapping pass of Remap, and of the post-pass that
  /// Select and Coalesce always run (Section 3: "differential remapping
  /// can always be invoked after approach 2 or 3").
  RemapOptions Remap;
  /// Section 8.2: enable differential encoding only when the statically
  /// estimated benefit (frequency-weighted spills saved) exceeds the
  /// estimated set_last_reg overhead; otherwise fall back to Baseline.
  bool AdaptiveEnable = false;
  /// When non-null, runPipeline flushes allocator-deep counters (worklist
  /// rounds, coalesce-test outcomes, oracle calls, set_last_reg repairs,
  /// per-stage durations, ...) into this registry, labeled with
  /// {scheme, function}. Null (the default) is the zero-cost fast path:
  /// no registry locking and no per-round clock reads.
  MetricsRegistry *Metrics = nullptr;
  /// When non-null, runPipeline consults this cache before compiling and
  /// stores every fresh result into it. A hit returns the cached
  /// PipelineResult (bit-identical to a fresh compile by the determinism
  /// guarantees; driver/ResultCache.h is the concrete implementation) and
  /// skips the pipeline entirely — only the Spans timing record is absent
  /// on the hit path. Null (the default) compiles unconditionally.
  PipelineCache *Cache = nullptr;
  /// When non-null, runPipeline mirrors its stage/substage spans into this
  /// request-scoped trace (driver/Trace.h) and the cache layer records its
  /// tier probes there, so one server request's latency is attributable
  /// span by span. Null (the default) records nothing — the request path
  /// pays only pointer tests. Not part of the cache key (ResultCache
  /// hashes only the explicit config fields).
  TraceContext *Trace = nullptr;
  /// Scheme-portfolio racing / chooser block (core/Portfolio.h). When
  /// Mode != Off, runPipeline ignores S and instead races the configured
  /// arms (or consults the chooser table), committing the winner by the
  /// deterministic (encoded-cost, arm-index) rule. The behavioral knobs
  /// (Mode, Arms, MinConfidence, table fingerprint) join the cache key;
  /// Jobs does not.
  PortfolioConfig Portfolio;
};

// StageSpan (one timed pipeline stage or nested sub-phase) lives in
// driver/Metrics.h so the algorithm layers can emit sub-spans directly.

/// Everything the benchmarks need to know about one pipeline run.
struct PipelineResult {
  /// The final machine code: allocated, and for differential schemes
  /// annotated with set_last_reg instructions.
  Function F;
  bool DiffEncoded = false;
  /// True when AdaptiveEnable chose the baseline for this function.
  bool AdaptiveFellBack = false;

  // Stage reports (fields are meaningful per scheme).
  AllocResult Alloc;
  OptimalSpillResult OSpill;
  CoalesceResult Coalesce;
  RemapResult Remap;
  RecolorStats Recolor;
  EncodeStats Enc;

  /// Wall-clock record of every stage that ran. Depth-0 spans are the
  /// pipeline stages; Depth-1 spans are nested sub-phases (IRC rounds,
  /// ILP refinement rounds, coalesce restarts), which appear *before*
  /// their enclosing stage span (inner scopes close first). When the
  /// adaptive mode falls back to the baseline, the spans of both runs are
  /// kept (the differential attempt is real compile time). Empty when
  /// the result came from the cache.
  std::vector<StageSpan> Spans;

  // Final static counts.
  size_t NumInsts = 0;
  size_t SpillInsts = 0;
  size_t SetLastRegs = 0;
  size_t CodeBytes = 0;

  double spillPercent() const {
    return NumInsts == 0 ? 0.0
                         : 100.0 * static_cast<double>(SpillInsts) /
                               static_cast<double>(NumInsts);
  }
  double setLastPercent() const {
    return NumInsts == 0 ? 0.0
                         : 100.0 * static_cast<double>(SetLastRegs) /
                               static_cast<double>(NumInsts);
  }
};

/// Abstract result cache consulted by runPipeline (PipelineConfig::Cache).
/// The core layer owns only this interface; the concrete content-addressed
/// two-tier implementation lives in driver/ResultCache.h so the dependency
/// points driver -> core, never the reverse. Implementations must be safe
/// for concurrent lookup/store from BatchCompiler workers.
class PipelineCache {
public:
  virtual ~PipelineCache() = default;

  /// True when a result for (\p Src, \p C) is available; fills \p Out
  /// and sets \p Tier to the static name of the tier that answered.
  /// False (Tier untouched) is always safe: the caller falls back to a
  /// fresh compile.
  virtual bool lookupTiered(const Function &Src, const PipelineConfig &C,
                            PipelineResult &Out, const char **Tier) = 0;

  /// Offers the freshly-compiled \p R for (\p Src, \p C).
  virtual void store(const Function &Src, const PipelineConfig &C,
                     const PipelineResult &R) = 0;
};

/// Runs pipeline \p C on a copy of \p Src and returns the outcome:
/// the C.Cache probe, then compilePipeline on a miss.
PipelineResult runPipeline(const Function &Src, const PipelineConfig &C);

/// runPipeline's compile-and-store half, for a caller that has already
/// probed C.Cache: compiles (racing or choosing for a portfolio config)
/// without consulting the cache, stores the result into C.Cache (a
/// portfolio winner under both keys, see runPortfolio), flushes
/// C.Metrics and mirrors the spans into C.Trace.
PipelineResult compilePipeline(const Function &Src, const PipelineConfig &C);

} // namespace dra

#endif // DRA_CORE_PIPELINE_H
