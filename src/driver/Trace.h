//===- driver/Trace.h - Request-scoped tracing ------------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped tracing: one `TraceContext` follows a single compilation
/// across every layer it touches — the server's connection thread (decode,
/// parse, queue wait), the pool worker (compile), the result cache (tier
/// probes), and runPipeline's stage/substage spans — and collects them as
/// one span tree keyed by a 64-bit trace id.
///
/// This complements the aggregate MetricsRegistry: histograms answer "what
/// is p99", a trace answers "where did *this* request's latency go". The
/// same id appears in the wire protocol (`traceid=` on dra-req-v1/-resp-v1),
/// the server's flight recorder, and dra-loadgen's client-side spans, so
/// one grep links a slow request end to end and `--trace-out` merges both
/// processes onto one Chrome-trace timeline.
///
/// Design rules (same as Metrics.h, which this header sits beside at the
/// bottom of the layering):
///
///  * **Zero cost when disabled.** Everything that records takes a nullable
///    `TraceContext *`; null means no clock reads, no locking, no
///    allocation. `PipelineConfig::Trace` defaults to null.
///  * **Bounded.** A context holds at most MaxSpans records; overflow
///    increments a dropped-span counter that the server exports as
///    `trace.dropped_spans` (gated at 0 in CI) instead of growing without
///    bound on a pathological input.
///  * **Mergeable clocks.** Timestamps are absolute steadyClockNs()
///    (CLOCK_MONOTONIC), which is a per-machine clock shared by every
///    process — client and server spans recorded on the same host land on
///    one common timeline with no offset arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_TRACE_H
#define DRA_DRIVER_TRACE_H

#include "driver/Metrics.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dra {

/// The OS process id, as Chrome-trace `pid`.
uint64_t osProcessId();

/// The OS thread id of the calling thread (gettid), as Chrome-trace `tid`.
/// Unlike ThreadPool worker indices these are unique machine-wide, so
/// merged multi-process traces never collapse two threads onto one row.
uint64_t osThreadId();

/// Canonical wire form of a trace id: exactly 16 lowercase hex digits.
std::string traceIdToHex(uint64_t Id);

/// Parses the 16-hex-digit form (strict: length and charset). Returns
/// false on anything else.
bool traceIdFromHex(const std::string &S, uint64_t &Out);

/// Derives a well-mixed, nonzero trace id from (Seed, Counter) via a
/// splitmix64 finalizer. Deterministic, so test runs are reproducible.
uint64_t deriveTraceId(uint64_t Seed, uint64_t Counter);

/// One recorded span. Like StageSpan but owning its name (names cross
/// thread and process boundaries) and carrying the recording thread.
struct TraceRecord {
  std::string Name;
  uint64_t BeginNs = 0; ///< Absolute steadyClockNs().
  uint64_t EndNs = 0;
  /// Nesting depth for tabular display (Chrome nests by time containment
  /// instead). Convention: 0 = the whole request, 1 = a server phase
  /// (decode/parse/queue_wait/compile), 2 = a cache probe or pipeline
  /// stage, 3+ = pipeline sub-phases.
  unsigned Depth = 0;
  uint64_t Tid = 0; ///< osThreadId() of the recording thread.
};

/// A bounded, thread-safe span collector for one request. The server
/// creates one per traced request on the connection thread's stack; the
/// pool worker records into it through `PipelineConfig::Trace`; the
/// promise/future handoff sequences the two, and the mutex covers the
/// (rare) case of helper threads recording concurrently.
class TraceContext {
public:
  static constexpr size_t DefaultMaxSpans = 4096;

  explicit TraceContext(uint64_t Id, size_t MaxSpans = DefaultMaxSpans)
      : Id(Id), MaxSpans(MaxSpans) {}

  TraceContext(const TraceContext &) = delete;
  TraceContext &operator=(const TraceContext &) = delete;

  uint64_t traceId() const { return Id; }

  /// Records one finished span on the calling thread.
  void record(std::string Name, uint64_t BeginNs, uint64_t EndNs,
              unsigned Depth = 0) {
    recordOn(osThreadId(), std::move(Name), BeginNs, EndNs, Depth);
  }

  /// Records a span attributed to an explicit thread — used when the span
  /// conceptually belongs to another thread's track (queue wait is time
  /// the *connection* thread spent waiting, even though the worker's
  /// task-start timestamp closes it).
  void recordOn(uint64_t Tid, std::string Name, uint64_t BeginNs,
                uint64_t EndNs, unsigned Depth = 0);

  /// Registers a display name for the calling thread ("conn-3",
  /// "worker-1"); exported as Chrome `thread_name` metadata.
  void nameCurrentThread(std::string Name) {
    nameThread(osThreadId(), std::move(Name));
  }
  void nameThread(uint64_t Tid, std::string Name);

  std::vector<TraceRecord> records() const;
  std::vector<std::pair<uint64_t, std::string>> threadNames() const;

  size_t spanCount() const;
  uint64_t droppedSpans() const { return Dropped.load(); }

private:
  const uint64_t Id;
  const size_t MaxSpans;
  mutable std::mutex Mtx;
  std::vector<TraceRecord> Records;
  std::vector<std::pair<uint64_t, std::string>> Names;
  std::atomic<uint64_t> Dropped{0};
};

/// RAII span against a nullable context — the disabled path (null Ctx) is
/// one branch, no clock read.
class ScopedTraceSpan {
public:
  ScopedTraceSpan(TraceContext *Ctx, const char *Name, unsigned Depth = 0)
      : Ctx(Ctx), Name(Name), Depth(Depth),
        BeginNs(Ctx ? steadyClockNs() : 0) {}
  ~ScopedTraceSpan() {
    if (Ctx)
      Ctx->record(Name, BeginNs, steadyClockNs(), Depth);
  }
  ScopedTraceSpan(const ScopedTraceSpan &) = delete;
  ScopedTraceSpan &operator=(const ScopedTraceSpan &) = delete;

private:
  TraceContext *Ctx;
  const char *Name;
  unsigned Depth;
  uint64_t BeginNs;
};

/// Streaming Chrome trace-event writer (the JSON Array Format:
/// `{"traceEvents": [...]}` with "X" complete events and "M" metadata),
/// the one writer behind every `--trace-out` (dra-batch and dra-loadgen's
/// merge). Timestamps are microseconds; callers rebase absolute
/// steadyClockNs() themselves so the viewer's origin is the first event,
/// not machine boot.
class ChromeTraceWriter {
public:
  explicit ChromeTraceWriter(std::ostream &OS) : OS(OS) {}

  /// One `ph:"X"` complete event. \p Args are extra string key/values
  /// (e.g. {"traceid", "1f2e..."}).
  void completeEvent(
      uint64_t Pid, uint64_t Tid, const std::string &Name,
      const char *Category, double TsUs, double DurUs,
      const std::vector<std::pair<std::string, std::string>> &Args = {});

  /// `process_name` / `thread_name` metadata events.
  void processName(uint64_t Pid, const std::string &Name);
  void threadName(uint64_t Pid, uint64_t Tid, const std::string &Name);

  /// Closes the document. Events after finish() are a bug.
  void finish();

  size_t eventCount() const { return Events; }

private:
  void beginEvent();

  std::ostream &OS;
  size_t Events = 0;
  bool Finished = false;
};

/// Writes every span of \p TC through a ChromeTraceWriter: one process
/// named \p ProcessName, one `thread_name` row per named thread, and the
/// spans rebased so the earliest one starts at 0.
void writeChromeTrace(std::ostream &OS, const TraceContext &TC,
                      const std::string &ProcessName);

} // namespace dra

#endif // DRA_DRIVER_TRACE_H
