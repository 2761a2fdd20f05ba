//===- driver/BatchCompiler.cpp - Parallel pipeline driver ----------------===//

#include "driver/BatchCompiler.h"

#include "driver/Trace.h"

#include <cassert>

using namespace dra;

BatchCompiler::BatchCompiler(const BatchOptions &O) : Opts(O), Pool(O.Jobs) {}

std::vector<PipelineResult>
BatchCompiler::run(const std::vector<Function> &Functions,
                   const PipelineConfig &Config) {
  std::vector<PipelineConfig> Configs(Functions.size(), Config);
  return run(Functions, Configs);
}

std::vector<PipelineResult>
BatchCompiler::run(const std::vector<Function> &Functions,
                   const std::vector<PipelineConfig> &Configs) {
  assert(Functions.size() == Configs.size() &&
         "one config per function required");
  std::vector<PipelineResult> Results(Functions.size());
  Pool.parallelFor(Functions.size(), [&](size_t I) {
    PipelineConfig C = Configs[I];
    if (Opts.Cache)
      C.Cache = Opts.Cache;
    const uint64_t BeginNs = C.Trace ? steadyClockNs() : 0;
    Results[I] = runPipeline(Functions[I], C);
    if (C.Trace) {
      const std::string &Name = Functions[I].Name;
      C.Trace->record(Name.empty() ? "fn" + std::to_string(I) : Name,
                      BeginNs, steadyClockNs(), /*Depth=*/1);
      C.Trace->nameCurrentThread(
          "worker-" + std::to_string(ThreadPool::currentWorker()));
    }
  });
  return Results;
}
