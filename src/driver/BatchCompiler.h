//===- driver/BatchCompiler.h - Parallel pipeline driver --------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs `runPipeline` over a batch of functions on a ThreadPool.
/// Guarantees:
///
///  * **Determinism.** Results are ordered by input index and every task
///    compiles its function with its own config alone — nothing depends
///    on scheduling order or worker identity. `Jobs=1` and `Jobs=N`
///    therefore produce bit-identical results; tests/driver_test.cpp
///    enforces this.
///  * **Tracing.** When the config's `Trace` context is set, each task
///    names its worker thread there and records one span named after the
///    function, under which runPipeline adds the stage, substage and
///    cache-probe spans. Batch counters and per-stage timings come from
///    the config's `Metrics` registry, which runPipeline fills.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_BATCHCOMPILER_H
#define DRA_DRIVER_BATCHCOMPILER_H

#include "core/Pipeline.h"
#include "driver/ThreadPool.h"

#include <vector>

namespace dra {

struct BatchOptions {
  /// Worker threads; 0 = ThreadPool::defaultWorkerCount().
  unsigned Jobs = 0;
  /// Optional result cache (driver/ResultCache.h), shared by all tasks
  /// and consulted inside runPipeline. Overrides any per-config Cache
  /// pointer so a batch has one coherent cache view.
  PipelineCache *Cache = nullptr;
};

class BatchCompiler {
public:
  explicit BatchCompiler(const BatchOptions &O = {});

  /// Compiles every function with \p Config. Results[I] corresponds to
  /// Functions[I] regardless of the worker count.
  std::vector<PipelineResult> run(const std::vector<Function> &Functions,
                                  const PipelineConfig &Config);

  /// As above with one config per function (sizes must match).
  std::vector<PipelineResult>
  run(const std::vector<Function> &Functions,
      const std::vector<PipelineConfig> &Configs);

  ThreadPool &pool() { return Pool; }
  const BatchOptions &options() const { return Opts; }

private:
  BatchOptions Opts;
  ThreadPool Pool;
};

} // namespace dra

#endif // DRA_DRIVER_BATCHCOMPILER_H
