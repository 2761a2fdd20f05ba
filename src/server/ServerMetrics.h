//===- server/ServerMetrics.h - server.* metric series ----------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's dra-metrics-v1 surface. Two kinds of series:
///
///  * **Live histograms** — `server.latency_us{tier=hit_mem|hit_disk|miss|
///    error|shed}` (request service time by cache tier, or by outcome for
///    failures) is observed into the shared registry at event time;
///    histogram samples only accumulate, so the periodic export just
///    re-serializes them.
///  * **Snapshot counters/gauges** — connection/request/shed/error totals
///    live in atomics owned by ServerMetrics and are written into the
///    registry with MetricsRegistry::setCount on every flush() (absolute
///    assignment), so the server's periodic `--metrics-interval` export
///    never double-counts. Every series is emitted even at zero so
///    `dra-stats --fail-on=server.shed` always finds its metric.
///
/// Series written by flush():
///
///   counters: server.connections, server.requests, server.accepted
///             (admitted misses; hits are never admitted),
///             server.shed, server.errors, server.bad_frames,
///             server.ctl_requests, server.index_hits (answered from
///             the request index), server.index_misses (took the full
///             parse path), server.index_mismatches (an indexed key
///             differed from the fresh one; CI gates it at 0),
///             trace.requests, trace.spans, trace.dropped_spans,
///             trace.slow_requests
///   gauges:   server.queue_depth, server.queue_limit, server.workers,
///             server.connections_open (connection threads not yet
///             joined), trace.flight_capacity, trace.flight_recorded,
///             trace.slow_threshold_us (the flight recorder's size, fill
///             and slow threshold)
///
/// The trace.* series cover request-scoped tracing: how many requests
/// opted in (`traceid=` on the wire), how many spans were collected, how
/// many were dropped at the TraceContext span cap (CI gates this at 0 —
/// a dropped span means the cap is too small for real workloads), and how
/// many requests crossed the flight recorder's slow threshold.
///
/// `dra-ctl-v1 stats` answers with the whole registry these series flush
/// into (cache.* and portfolio.* included) as the dra-metrics-v1 document
/// `--metrics-out` writes, so a series added here shows up in dra-top
/// with no change there.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVER_SERVERMETRICS_H
#define DRA_SERVER_SERVERMETRICS_H

#include "driver/Metrics.h"
#include "server/FlightRecorder.h"
#include "server/RequestQueue.h"

#include <atomic>
#include <cstdint>

namespace dra {

class ServerMetrics {
public:
  /// Monotonic totals; incremented at event time by the connection loops.
  std::atomic<uint64_t> Connections{0}; ///< Accepted connections.
  std::atomic<uint64_t> Requests{0};    ///< Well-framed compile requests.
  std::atomic<uint64_t> CtlRequests{0}; ///< dra-ctl-v1 requests answered.
  std::atomic<uint64_t> Errors{0};      ///< `status=error` responses sent.
  std::atomic<uint64_t> BadFrames{0};   ///< Frames rejected below the
                                        ///< request layer (bad magic,
                                        ///< oversize, truncated, io error).
  std::atomic<uint64_t> TracedRequests{0}; ///< Requests with a client id.
  std::atomic<uint64_t> TraceSpans{0};     ///< Spans collected, all reqs.
  std::atomic<uint64_t> TraceDropped{0};   ///< Spans lost to the cap.
  std::atomic<uint64_t> SlowRequests{0};   ///< Requests >= slow threshold.
  std::atomic<uint64_t> IndexHits{0};       ///< Answered by the index path.
  std::atomic<uint64_t> IndexMisses{0};     ///< Took the full parse path.
  std::atomic<uint64_t> IndexMismatches{0}; ///< Indexed key != fresh key.
  /// Connection threads not yet joined; set by the acceptor.
  std::atomic<uint64_t> ConnectionsOpen{0};

  /// Records one request's service latency. \p Tier is the cache tier for
  /// ok responses ("hit_mem" | "hit_disk" | "miss") and the outcome for
  /// the rest ("error" | "shed"), so failure tails are visible to
  /// dra-stats gates instead of vanishing from the histograms.
  void observeLatency(MetricsRegistry &M, const char *Tier, double Us) const {
    M.observe("server.latency_us", Us, MetricLabels{{"tier", Tier}});
  }

  /// Snapshots every counter/gauge series into \p M (absolute values; safe
  /// to call repeatedly), including the admission queue's totals and its
  /// instantaneous depth and the flight recorder's fill. Every series is
  /// written even at zero.
  void flush(MetricsRegistry &M, const AdmissionQueue &Q, unsigned Workers,
             const FlightRecorder &Recorder) const {
    M.setCount("server.connections", double(Connections.load()));
    M.setCount("server.requests", double(Requests.load()));
    M.setCount("server.ctl_requests", double(CtlRequests.load()));
    M.setCount("server.accepted", double(Q.admitted()));
    M.setCount("server.shed", double(Q.shed()));
    M.setCount("server.errors", double(Errors.load()));
    M.setCount("server.bad_frames", double(BadFrames.load()));
    M.setCount("server.index_hits", double(IndexHits.load()));
    M.setCount("server.index_misses", double(IndexMisses.load()));
    M.setCount("server.index_mismatches", double(IndexMismatches.load()));
    M.setCount("trace.requests", double(TracedRequests.load()));
    M.setCount("trace.spans", double(TraceSpans.load()));
    M.setCount("trace.dropped_spans", double(TraceDropped.load()));
    M.setCount("trace.slow_requests", double(SlowRequests.load()));
    M.gauge("server.queue_depth", double(Q.depth()));
    M.gauge("server.queue_limit", double(Q.limit()));
    M.gauge("server.workers", double(Workers));
    M.gauge("server.connections_open", double(ConnectionsOpen.load()));
    M.gauge("trace.flight_capacity", double(Recorder.capacity()));
    M.gauge("trace.flight_recorded", double(Recorder.recorded()));
    M.gauge("trace.slow_threshold_us", double(Recorder.slowThresholdUs()));
  }
};

} // namespace dra

#endif // DRA_SERVER_SERVERMETRICS_H
