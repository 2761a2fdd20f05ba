//===- tests/driver_test.cpp - Parallel driver tests ----------------------===//
//
// ThreadPool scheduling, batch tracing, and — most importantly — the
// determinism guard: the batch compiler must produce bit-identical
// results at every worker count. The TSan CI job runs this binary to
// catch data races in the pool and in the trace shared by its workers.
//
//===----------------------------------------------------------------------===//

#include "adt/Rng.h"
#include "driver/BatchCompiler.h"
#include "driver/Json.h"
#include "driver/ThreadPool.h"
#include "driver/Trace.h"
#include "ir/Function.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace dra;

namespace {

/// A small ProgramGen corpus with heterogeneous pressure: some programs
/// spill at RegN = 12, some do not, so the batch tasks are imbalanced the
/// way real compilation units are.
std::vector<Function> testCorpus(size_t Count = 8) {
  std::vector<Function> Corpus;
  for (size_t I = 0; I != Count; ++I) {
    ProgramProfile P;
    P.Seed = 100 + I;
    P.PressureVars = 4 + static_cast<unsigned>(I % 5) * 2;
    P.TopStatements = 8;
    P.BodyStatements = 6;
    P.OuterTrip = 4;
    Corpus.push_back(
        generateProgram("gen" + std::to_string(I), P));
  }
  return Corpus;
}

PipelineConfig coalesceConfig() {
  PipelineConfig C;
  C.S = Scheme::Coalesce;
  C.Enc = lowEndConfig(12);
  C.Remap.NumStarts = 25;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    EXPECT_EQ(ThreadPool::currentWorker(), 0u);
  });
}

TEST(ThreadPool, ParallelMapOrdersResultsByIndex) {
  ThreadPool Pool(4);
  std::vector<size_t> Squares = Pool.parallelMap<size_t>(
      257, [](size_t I) { return I * I; });
  ASSERT_EQ(Squares.size(), 257u);
  for (size_t I = 0; I != Squares.size(); ++I)
    EXPECT_EQ(Squares[I], I * I);
}

TEST(ThreadPool, WorkerIdsStayWithinPool) {
  ThreadPool Pool(3);
  std::mutex Mtx;
  std::set<unsigned> Seen;
  Pool.parallelFor(1000, [&](size_t) {
    unsigned W = ThreadPool::currentWorker();
    std::lock_guard<std::mutex> Lock(Mtx);
    Seen.insert(W);
  });
  for (unsigned W : Seen)
    EXPECT_LT(W, 3u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(100,
                                [](size_t I) {
                                  if (I == 57)
                                    throw std::runtime_error("task 57");
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<size_t> Count{0};
  Pool.parallelFor(100, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool Pool(4);
  std::atomic<size_t> Total{0};
  for (int Round = 0; Round != 50; ++Round)
    Pool.parallelFor(97, [&](size_t) { Total.fetch_add(1); });
  EXPECT_EQ(Total.load(), 50u * 97u);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  ThreadPool Pool(4);
  std::atomic<size_t> Inner{0};
  Pool.parallelFor(8, [&](size_t) {
    Pool.parallelFor(16, [&](size_t) { Inner.fetch_add(1); });
  });
  EXPECT_EQ(Inner.load(), 8u * 16u);
}

TEST(ThreadPool, DistinctPoolsNestWithoutInlining) {
  // Reentrancy detection is per pool: a nested loop on a *different*
  // pool (a portfolio race pool inside a batch task) schedules normally
  // and keeps its parallelism instead of collapsing to the caller
  // thread. Two nested iterations observing each other in flight proves
  // the nested pool really ran them concurrently — impossible if the
  // nested call had been treated as reentrant and inlined.
  ThreadPool Outer(2);
  std::atomic<size_t> Total{0};
  std::atomic<bool> Concurrent{false};
  Outer.parallelFor(2, [&](size_t) {
    ThreadPool Nested(2);
    std::atomic<int> InFlight{0};
    Nested.parallelFor(2, [&](size_t) {
      Total.fetch_add(1);
      InFlight.fetch_add(1);
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (InFlight.load() != 2 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
      if (InFlight.load() == 2)
        Concurrent = true;
      InFlight.fetch_sub(1);
    });
  });
  EXPECT_EQ(Total.load(), 4u);
  EXPECT_TRUE(Concurrent.load());
}

TEST(ThreadPool, SubmitRunsDetachedTasks) {
  ThreadPool Pool(4);
  constexpr size_t N = 500;
  std::atomic<size_t> Ran{0};
  for (size_t I = 0; I != N; ++I)
    Pool.submit([&] { Ran.fetch_add(1); });
  // No join primitive on detached tasks; the destructor is the barrier.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Ran.load() != N && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EXPECT_EQ(Ran.load(), N);
}

TEST(ThreadPool, SubmitOnSingleWorkerPoolRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  bool Ran = false;
  Pool.submit([&] {
    Ran = true;
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
  EXPECT_TRUE(Ran); // inline: completed before submit returned
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // SIGTERM-driven server shutdown destroys the pool with compile tasks
  // still queued; every one of them must run (responses are in flight
  // behind them), not be dropped. The tasks outnumber the workers so the
  // queue is genuinely non-empty when the destructor starts.
  constexpr size_t N = 64;
  std::atomic<size_t> Ran{0};
  {
    ThreadPool Pool(3);
    for (size_t I = 0; I != N; ++I)
      Pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        Ran.fetch_add(1);
      });
  } // destructor: drain, then join
  EXPECT_EQ(Ran.load(), N);
}

TEST(ThreadPool, TasksSubmittedByTasksAreDrained) {
  std::atomic<size_t> Ran{0};
  {
    ThreadPool Pool(2);
    for (size_t I = 0; I != 8; ++I)
      Pool.submit([&, I] {
        Ran.fetch_add(1);
        if (I % 2 == 0)
          Pool.submit([&] { Ran.fetch_add(1); });
      });
  }
  EXPECT_EQ(Ran.load(), 8u + 4u);
}

TEST(ThreadPool, SubmitAndParallelForCoexist) {
  ThreadPool Pool(4);
  std::atomic<size_t> TaskRuns{0}, LoopRuns{0};
  for (int Round = 0; Round != 20; ++Round) {
    Pool.submit([&] { TaskRuns.fetch_add(1); });
    Pool.parallelFor(50, [&](size_t) { LoopRuns.fetch_add(1); });
  }
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (TaskRuns.load() != 20 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EXPECT_EQ(LoopRuns.load(), 20u * 50u);
  EXPECT_EQ(TaskRuns.load(), 20u);
}

//===----------------------------------------------------------------------===//
// Rng task seeding
//===----------------------------------------------------------------------===//

TEST(Rng, TaskSeedIsPureAndDecorrelated) {
  EXPECT_EQ(Rng::taskSeed(7, 3), Rng::taskSeed(7, 3));
  std::set<uint64_t> Seeds;
  for (uint64_t I = 0; I != 1000; ++I)
    Seeds.insert(Rng::taskSeed(0xdeadbeef, I));
  EXPECT_EQ(Seeds.size(), 1000u) << "adjacent task seeds collided";
  EXPECT_NE(Rng::taskSeed(1, 0), Rng::taskSeed(2, 0));
  // Streams from adjacent tasks diverge immediately.
  Rng A = Rng::forTask(42, 0), B = Rng::forTask(42, 1);
  EXPECT_NE(A.next(), B.next());
}

//===----------------------------------------------------------------------===//
// Determinism guard (satellite): Jobs=1 vs Jobs=4 bit-identical
//===----------------------------------------------------------------------===//

namespace {

/// Compares every externally visible metric plus the printed final code.
void expectIdenticalResults(const std::vector<PipelineResult> &A,
                            const std::vector<PipelineResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    SCOPED_TRACE("function " + std::to_string(I));
    EXPECT_EQ(A[I].NumInsts, B[I].NumInsts);
    EXPECT_EQ(A[I].SpillInsts, B[I].SpillInsts);
    EXPECT_EQ(A[I].SetLastRegs, B[I].SetLastRegs);
    EXPECT_EQ(A[I].CodeBytes, B[I].CodeBytes);
    EXPECT_EQ(A[I].Enc.SetLastJoin, B[I].Enc.SetLastJoin);
    EXPECT_EQ(A[I].Enc.SetLastRange, B[I].Enc.SetLastRange);
    EXPECT_EQ(printFunction(A[I].F), printFunction(B[I].F));
  }
}

std::vector<PipelineResult> compileWithJobs(const std::vector<Function> &Fns,
                                            const PipelineConfig &C,
                                            unsigned Jobs) {
  BatchOptions BO;
  BO.Jobs = Jobs;
  BatchCompiler Batch(BO);
  return Batch.run(Fns, C);
}

} // namespace

TEST(BatchCompiler, SerialAndParallelAreBitIdentical) {
  std::vector<Function> Corpus = testCorpus();
  PipelineConfig C = coalesceConfig();
  expectIdenticalResults(compileWithJobs(Corpus, C, 1),
                         compileWithJobs(Corpus, C, 4));
}

TEST(BatchCompiler, SelectSchemeIsDeterministicToo) {
  std::vector<Function> Corpus = testCorpus(6);
  PipelineConfig C = coalesceConfig();
  C.S = Scheme::Select;
  expectIdenticalResults(compileWithJobs(Corpus, C, 1),
                         compileWithJobs(Corpus, C, 4));
}

TEST(BatchCompiler, PerConfigBatchMatchesIndividualRuns) {
  std::vector<Function> Corpus = testCorpus(4);
  std::vector<PipelineConfig> Configs;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    PipelineConfig C = coalesceConfig();
    C.S = I % 2 == 0 ? Scheme::Baseline : Scheme::Remap;
    Configs.push_back(C);
  }
  BatchOptions BO;
  BO.Jobs = 3;
  BatchCompiler Batch(BO);
  std::vector<PipelineResult> Batched = Batch.run(Corpus, Configs);
  for (size_t I = 0; I != Corpus.size(); ++I) {
    PipelineResult Solo = runPipeline(Corpus[I], Configs[I]);
    EXPECT_EQ(printFunction(Batched[I].F), printFunction(Solo.F));
    EXPECT_EQ(Batched[I].CodeBytes, Solo.CodeBytes);
  }
}

//===----------------------------------------------------------------------===//
// Batch tracing
//===----------------------------------------------------------------------===//

TEST(BatchCompiler, TraceRecordsOneTaskAndStageSpansPerFunction) {
  std::vector<Function> Corpus = testCorpus(5);
  MetricsRegistry Metrics;
  TraceContext Trace(/*Id=*/1);
  PipelineConfig C = coalesceConfig();
  C.Metrics = &Metrics;
  C.Trace = &Trace;
  BatchOptions BO;
  BO.Jobs = 2;
  BatchCompiler Batch(BO);
  Batch.run(Corpus, C);

  // One depth-1 span per function, named after it, with the pipeline's
  // stages at depth 2 on the same (named) thread.
  std::map<std::string, size_t> Tasks, Stages;
  std::set<uint64_t> Tids;
  for (const TraceRecord &R : Trace.records()) {
    if (R.Depth == 1)
      ++Tasks[R.Name];
    else if (R.Depth == 2)
      ++Stages[R.Name];
    Tids.insert(R.Tid);
  }
  for (const Function &F : Corpus)
    EXPECT_EQ(Tasks[F.Name], 1u) << F.Name;
  EXPECT_EQ(Tasks.size(), Corpus.size());
  std::set<uint64_t> Named;
  for (const auto &[Tid, Name] : Trace.threadNames())
    Named.insert(Tid);
  EXPECT_EQ(Tids, Named);

  // The coalesce pipeline runs ospill, coalesce, remap, encode on every
  // function: one stage span each, and one stage_us sample each in the
  // registry dra-batch's stage table reads.
  std::map<std::string, size_t> Samples;
  for (const MetricsRegistry::HistogramSample &H : Metrics.histograms())
    if (H.Name == "stage_us")
      for (const auto &[Key, Value] : H.Labels.entries())
        if (Key == "stage")
          Samples[Value] += H.Count;
  for (const char *Stage : {"ospill", "coalesce", "remap", "encode"}) {
    EXPECT_EQ(Stages[Stage], 5u) << Stage;
    EXPECT_EQ(Samples[Stage], 5u) << Stage;
  }
}

TEST(BatchCompiler, ChromeTraceOfBatchParsesBackWithEverySpan) {
  std::vector<Function> Corpus = testCorpus(3);
  TraceContext Trace(/*Id=*/1);
  PipelineConfig C = coalesceConfig();
  C.Trace = &Trace;
  BatchOptions BO;
  BO.Jobs = 2;
  BatchCompiler Batch(BO);
  Batch.run(Corpus, C);

  std::ostringstream OS;
  writeChromeTrace(OS, Trace, "dra-batch");
  JsonValue Root;
  std::string Err;
  ASSERT_TRUE(parseJson(OS.str(), Root, &Err)) << Err;
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  size_t Complete = 0, ThreadNames = 0;
  double MinTs = -1;
  for (const JsonValue &E : Events->Arr) {
    const std::string &Ph = E.field("ph")->Str;
    if (Ph == "X") {
      ++Complete;
      double Ts = E.field("ts")->Num;
      MinTs = MinTs < 0 ? Ts : std::min(MinTs, Ts);
    } else if (E.field("name")->Str == "thread_name") {
      ++ThreadNames;
    }
  }
  EXPECT_EQ(Complete, Trace.spanCount());
  EXPECT_EQ(ThreadNames, Trace.threadNames().size());
  EXPECT_EQ(MinTs, 0.0); // rebased onto the earliest span
}

//===----------------------------------------------------------------------===//
// Scaling smoke: logs Jobs=1 vs Jobs=N wall clock (asserts only with
// enough hardware; single-core CI just records the numbers).
//===----------------------------------------------------------------------===//

TEST(BatchCompiler, ParallelSpeedupLogged) {
  std::vector<Function> Corpus = testCorpus(8);
  PipelineConfig C = coalesceConfig();
  C.Remap.NumStarts = 60;

  auto TimeRun = [&](unsigned Jobs) {
    auto Start = std::chrono::steady_clock::now();
    compileWithJobs(Corpus, C, Jobs);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  TimeRun(1); // warm caches before timing
  double SerialMs = TimeRun(1);
  unsigned HwJobs = ThreadPool::defaultWorkerCount();
  double ParallelMs = TimeRun(HwJobs);
  double Speedup = ParallelMs > 0 ? SerialMs / ParallelMs : 0;
  std::printf("[scaling] jobs=1: %.1f ms, jobs=%u: %.1f ms, speedup "
              "%.2fx\n",
              SerialMs, HwJobs, ParallelMs, Speedup);
  if (HwJobs < 4)
    GTEST_SKIP() << "only " << HwJobs
                 << " hardware thread(s); speedup assertion needs >= 4";
  EXPECT_GT(Speedup, 1.5) << "parallel batch failed to scale";
}
