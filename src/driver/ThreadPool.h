//===- driver/ThreadPool.h - Fixed-size worker pool -------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the batch-compilation driver and
/// the benchmark suites. Design points:
///
///  * `parallelFor`/`parallelMap` self-schedule over a shared atomic index
///    (dynamic chunking, so imbalanced pipeline tasks — e.g. the handful of
///    VLIW loops that need spilling — do not serialize a whole stripe the
///    way static blocking would).
///  * A pool constructed with one worker runs every task inline on the
///    calling thread. `Jobs=1` therefore has *exactly* serial semantics,
///    which the determinism tests rely on when comparing against
///    `Jobs=N`.
///  * Exceptions thrown by tasks are captured and rethrown on the calling
///    thread once the loop has drained (first exception wins).
///  * `currentWorker()` returns a stable 0-based id for the executing
///    worker (0 is also the calling thread for inline pools), which
///    traced batches and the server use to name their worker threads.
///  * `submit` enqueues a detached fire-and-forget task — the compile
///    server's dispatch primitive. Queued tasks are *drained, not
///    dropped*, on destruction: a pool that goes away with work still
///    queued (SIGTERM-driven shutdown) finishes every task first, so
///    callers waiting on task side effects (promises, response writes)
///    never hang.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_THREADPOOL_H
#define DRA_DRIVER_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dra {

class ThreadPool {
public:
  /// Creates a pool with \p Workers worker threads; 0 picks
  /// `defaultWorkerCount()`. A pool with one worker executes inline.
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of workers this pool schedules on (>= 1).
  unsigned workerCount() const { return NumWorkers; }

  /// std::thread::hardware_concurrency, clamped to >= 1.
  static unsigned defaultWorkerCount();

  /// 0-based id of the worker executing the current task; 0 on the calling
  /// thread outside any pool loop.
  static unsigned currentWorker();

  /// Runs `Body(I)` for every I in [0, N). Indices are claimed dynamically;
  /// the call returns once all N iterations have finished. Rethrows the
  /// first task exception after the loop drains. Reentrant calls from
  /// inside one of *this* pool's task bodies run inline on the
  /// already-claimed worker; calls on a different pool schedule normally,
  /// so pools nest (e.g. a portfolio race pool inside a batch-compilation
  /// or server task).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Enqueues a detached task that runs on a worker thread as soon as one
  /// is free (loops in progress finish their claimed iterations first).
  /// On a one-worker pool the task runs inline, immediately, on the
  /// calling thread — serial semantics, like parallelFor. Tasks must
  /// handle their own errors: an escaped exception is caught and dropped
  /// (there is no caller left to rethrow to). The destructor drains every
  /// queued task — including tasks submitted by other tasks — before
  /// joining the workers.
  void submit(std::function<void()> Task);

  /// Maps `Fn(I)` over [0, N) into a vector ordered by index — the output
  /// is independent of worker count and scheduling.
  template <typename ResultT>
  std::vector<ResultT>
  parallelMap(size_t N, const std::function<ResultT(size_t)> &Fn) {
    std::vector<ResultT> Results(N);
    parallelFor(N, [&](size_t I) { Results[I] = Fn(I); });
    return Results;
  }

private:
  struct Loop;

  /// Worker-thread main: waits for a loop, helps drain it, repeats.
  void workerMain(unsigned WorkerId);

  unsigned NumWorkers = 1;
  std::vector<std::thread> Threads;

  std::mutex Mtx;
  std::condition_variable WorkReady;
  std::condition_variable WorkDone;
  Loop *Current = nullptr;  // Loop being drained, guarded by Mtx.
  uint64_t LoopSeq = 0;     // Bumped per posted loop, guarded by Mtx.
  std::deque<std::function<void()>> Tasks; // Detached tasks, guarded by Mtx.
  bool ShuttingDown = false;
};

} // namespace dra

#endif // DRA_DRIVER_THREADPOOL_H
