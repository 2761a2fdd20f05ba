//===- driver/Metrics.h - Labeled metrics registry --------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocator-deep observability: a thread-safe registry of labeled
/// counters, gauges, and fixed-bucket histograms, plus the shared
/// `StageSpan` type the pipeline and its inner algorithms use to report
/// nested timing spans.
///
/// This header sits *below* every other subsystem (it depends only on
/// src/adt), so the hot algorithms — iterated coalescing, the recoloring
/// descent, differential coalesce's oracle loop, ILP spilling, modulo
/// scheduling — can emit spans and counters without a layering cycle:
/// `dra_regalloc`, `dra_core`, `dra_swp` and `dra_driver` all link (or
/// header-include) `dra_metrics`.
///
/// Design rules:
///
///  * **Zero cost when disabled.** Instrumented code paths take a nullable
///    `MetricsRegistry *` / span-sink pointer; a null pointer means no
///    clock reads, no allocation, no locking. Hot-loop event counts are
///    accumulated in plain integers inside the algorithms' result structs
///    and flushed to the registry once per run.
///  * **Determinism.** Snapshots and the JSON export are ordered by
///    (metric name, canonical label key). Counter totals of integer-valued
///    deltas, histogram counts, bucket counts, min and max are independent
///    of the thread interleaving that produced them; a histogram fed the
///    same value sequence always snapshots identically.
///  * **Bounded memory.** A histogram series keeps its summary
///    incrementally plus at most MaxRawSamples raw samples for the
///    percentiles, so a long-running server's registry does not grow with
///    its request count.
///  * **Stable schema.** `writeJson` emits schema `dra-metrics-v1`
///    (documented in DESIGN.md, "Observability"); `loadMetricsJson` reads
///    it back for the `dra-stats` diff/regression tool.
///
/// Metric naming convention: `<subsystem>.<event>` in lower snake case
/// (`alloc.coalesce_briggs`, `ospill.ilp_constraints`); labels identify
/// the series (`scheme`, `function`, `stage`, `program`, `regn`).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_METRICS_H
#define DRA_DRIVER_METRICS_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <istream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dra {

/// Absolute steady-clock nanoseconds; the clock every StageSpan uses.
uint64_t steadyClockNs();

/// One timed (sub-)phase of a pipeline run. Timestamps are absolute
/// steady-clock nanoseconds (runPipeline mirrors them unchanged into a
/// request's TraceContext, driver/Trace.h); Stage points at a static
/// string ("alloc", "alloc.round", ...).
struct StageSpan {
  const char *Stage = "";
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  /// 0 = top-level pipeline stage; >0 = nested sub-phase (one IRC round
  /// inside "alloc", one ILP refinement round inside "ospill", ...).
  /// Chrome's trace viewer nests sub-spans under the enclosing stage by
  /// time containment on the same thread track.
  unsigned Depth = 0;
};

/// Appends one StageSpan covering its own lifetime to an optional sink.
/// A null sink is the disabled fast path: no clock reads at all.
class ScopedSpan {
public:
  ScopedSpan(std::vector<StageSpan> *Sink, const char *Stage,
             unsigned Depth = 1)
      : Sink(Sink), Stage(Stage), Depth(Depth),
        BeginNs(Sink ? steadyClockNs() : 0) {}
  ~ScopedSpan() {
    if (Sink)
      Sink->push_back({Stage, BeginNs, steadyClockNs(), Depth});
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  std::vector<StageSpan> *Sink;
  const char *Stage;
  unsigned Depth;
  uint64_t BeginNs;
};

/// Escapes \p S for inclusion in a JSON string literal.
std::string jsonEscape(const std::string &S);

/// Writes \p V to \p OS losslessly: exactly-integral values (within the
/// 2^53 double-exact range) as plain integers, everything else with
/// round-trip (max_digits10) precision. Non-finite values, which JSON
/// cannot represent, are clamped to 0. Shared by the metrics writer and
/// the other JSON exporters so large counters never round-trip lossily.
void writeJsonNumber(std::ostream &OS, double V);

/// A set of (key, value) pairs identifying one time series. Keys are kept
/// in canonical (sorted, unique — last writer wins) order.
class MetricLabels {
public:
  MetricLabels() = default;
  MetricLabels(
      std::initializer_list<std::pair<std::string, std::string>> Init) {
    for (const auto &KV : Init)
      set(KV.first, KV.second);
  }

  void set(std::string Key, std::string Value);

  const std::vector<std::pair<std::string, std::string>> &entries() const {
    return Entries;
  }
  bool empty() const { return Entries.empty(); }

  /// Canonical `k1=v1,k2=v2` form — the registry's series key and the
  /// flat-key suffix `name{k1=v1,...}` used by dra-stats.
  std::string key() const;

private:
  std::vector<std::pair<std::string, std::string>> Entries; // sorted by key
};

/// Thread-safe registry of labeled counters, gauges and histograms. All
/// mutation is mutex-protected; snapshot/export accessors copy under the
/// same lock and order deterministically.
class MetricsRegistry {
public:
  static constexpr const char *SchemaVersion = "dra-metrics-v1";

  /// Adds \p Delta to counter (\p Name, \p Labels), creating it at 0.
  void count(std::string_view Name, double Delta,
             const MetricLabels &Labels = {});

  /// Sets counter (\p Name, \p Labels) to the absolute value \p Value
  /// (last writer wins, like a gauge, but the series stays a counter in
  /// the export). This is the non-destructive flush path for subsystems
  /// that keep their own monotonic totals (ResultCacheStats, the compile
  /// server's request counters): they can snapshot into a live registry
  /// repeatedly — e.g. the server's periodic metrics export — without
  /// double-counting and without resetting their internal totals mid-run.
  void setCount(std::string_view Name, double Value,
                const MetricLabels &Labels = {});

  /// Sets gauge (\p Name, \p Labels) to \p Value (last writer wins).
  void gauge(std::string_view Name, double Value,
             const MetricLabels &Labels = {});

  /// Raw samples one histogram series keeps for its percentiles. Count,
  /// sum, min, max and bucket counts are exact at any sample count;
  /// percentiles are exact up to this many samples. Beyond it the series
  /// keeps every Stride-th observation (Stride doubles whenever the
  /// buffer fills), so percentiles come from a deterministic systematic
  /// subsample of between half and all of MaxRawSamples values.
  static constexpr size_t MaxRawSamples = 8192;

  /// Records one histogram sample. The bucket layout is fixed per metric
  /// name: defineBuckets() bounds if installed, the default exponential
  /// microsecond-friendly bounds otherwise.
  void observe(std::string_view Name, double Value,
               const MetricLabels &Labels = {});

  /// Installs explicit ascending bucket upper bounds for histogram
  /// \p Name (all label combinations). Must precede the first observe of
  /// that name; later calls are ignored once samples exist.
  void defineBuckets(std::string_view Name, std::vector<double> UpperBounds);

  /// The default histogram bucket upper bounds (ascending; an implicit
  /// +inf overflow bucket always follows).
  static const std::vector<double> &defaultBuckets();

  struct CounterSample {
    std::string Name;
    MetricLabels Labels;
    double Value = 0;
  };
  struct HistogramSample {
    std::string Name;
    MetricLabels Labels;
    size_t Count = 0;
    double Sum = 0, Min = 0, Max = 0;
    /// Percentiles over the retained samples (adt/Statistics
    /// interpolation); exact up to MaxRawSamples observations.
    double P50 = 0, P90 = 0, P95 = 0, P99 = 0;
    std::vector<double> UpperBounds; // ascending
    /// BucketCounts[i] = samples in (UpperBounds[i-1], UpperBounds[i]];
    /// the final element is the +inf overflow bucket, so the size is
    /// UpperBounds.size() + 1.
    std::vector<size_t> BucketCounts;
  };

  /// Deterministic snapshots, sorted by (name, label key).
  std::vector<CounterSample> counters() const;
  std::vector<CounterSample> gauges() const;
  std::vector<HistogramSample> histograms() const;

  /// True when nothing has been recorded.
  bool empty() const;

  /// Writes the versioned JSON document (schema dra-metrics-v1).
  void writeJson(std::ostream &OS) const;

  /// writeJson to \p Path; false (with \p Err) when the file cannot be
  /// created.
  bool writeJsonFile(const std::string &Path, std::string *Err = nullptr) const;

private:
  struct Series {
    MetricLabels Labels;
    double Value = 0;
  };
  struct HistSeries {
    MetricLabels Labels;
    size_t Count = 0;
    double Sum = 0, Min = 0, Max = 0;
    std::vector<size_t> BucketCounts; // sized on the first observation
    /// Observations 0, Stride, 2*Stride, ... in arrival order; never more
    /// than MaxRawSamples.
    std::vector<double> Samples;
    size_t Stride = 1;
  };
  struct Metric {
    std::map<std::string, Series> ByLabel; // canonical label key -> series
  };
  struct HistMetric {
    std::map<std::string, HistSeries> ByLabel;
    std::vector<double> UpperBounds;
  };

  mutable std::mutex Mtx;
  std::map<std::string, Metric> Counters;
  std::map<std::string, Metric> Gauges;
  std::map<std::string, HistMetric> Histograms;
};

/// Flat, comparison-friendly view of one metrics JSON file, keyed by
/// `name{k=v,...}` (the canonical label key). Histograms are reduced to
/// their summary statistics.
struct MetricsFileData {
  std::string Schema;
  std::map<std::string, double> Counters;
  std::map<std::string, double> Gauges;
  struct HistSummary {
    double Count = 0, Sum = 0, Min = 0, Max = 0;
    /// P95 is 0 for files written before the field existed (the loader
    /// treats it as optional so older baselines keep loading).
    double P50 = 0, P90 = 0, P95 = 0, P99 = 0;
  };
  std::map<std::string, HistSummary> Histograms;
};

/// Parses a dra-metrics-v1 document. Returns false (with a diagnostic in
/// \p Err, if non-null) on malformed JSON, a missing/unknown schema tag,
/// or structurally invalid samples.
bool loadMetricsJson(std::istream &In, MetricsFileData &Out,
                     std::string *Err = nullptr);

} // namespace dra

#endif // DRA_DRIVER_METRICS_H
