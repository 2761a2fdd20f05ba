//===- driver/ThreadPool.cpp - Fixed-size worker pool ---------------------===//

#include "driver/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace dra;

namespace {
thread_local unsigned TlsWorkerId = 0;

// Stack of pools whose parallelFor bodies are executing on this thread,
// linked through stack frames. A nested parallelFor on the *same* pool
// must run inline (posting a second loop over the active one would
// deadlock), and the caller thread is worker 0 so its id alone cannot
// tell "inside my own loop" from "outside any loop". A nested call on a
// *different* pool is safe and schedules normally — that is how a
// portfolio race pool parallelizes from inside a batch or server task.
struct DrainFrame {
  const void *Pool;
  DrainFrame *Prev;
};
thread_local DrainFrame *TlsDrainTop = nullptr;

bool drainingPool(const void *Pool) {
  for (DrainFrame *F = TlsDrainTop; F; F = F->Prev)
    if (F->Pool == Pool)
      return true;
  return false;
}

struct InTaskScope {
  DrainFrame Frame;
  explicit InTaskScope(const void *Pool) {
    Frame.Pool = Pool;
    Frame.Prev = TlsDrainTop;
    TlsDrainTop = &Frame;
  }
  ~InTaskScope() { TlsDrainTop = Frame.Prev; }
};
} // namespace

/// One parallelFor invocation: an atomic iteration cursor plus completion
/// bookkeeping. Lives on the caller's stack for the duration of the loop.
struct ThreadPool::Loop {
  size_t N = 0;
  const std::function<void(size_t)> *Body = nullptr;
  const ThreadPool *Owner = nullptr;
  std::atomic<size_t> Next{0};
  unsigned Finished = 0; // participants done draining; pool mutex
  std::mutex ErrMtx;
  std::exception_ptr FirstError;

  /// Claims and runs iterations until the cursor runs out.
  void drain() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      try {
        InTaskScope Scope(Owner);
        (*Body)(I);
      } catch (...) {
        // Record the first failure; keep draining so the loop terminates
        // with every iteration accounted for.
        std::lock_guard<std::mutex> Lock(ErrMtx);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  }
};

unsigned ThreadPool::defaultWorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ThreadPool::currentWorker() { return TlsWorkerId; }

ThreadPool::ThreadPool(unsigned Workers) {
  NumWorkers = Workers == 0 ? defaultWorkerCount() : Workers;
  // Worker 0 is the calling thread; only the extra workers get threads.
  for (unsigned W = 1; W < NumWorkers; ++W)
    Threads.emplace_back([this, W] { workerMain(W); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerMain(unsigned WorkerId) {
  TlsWorkerId = WorkerId;
  uint64_t SeenSeq = 0;
  std::unique_lock<std::mutex> Lock(Mtx);
  for (;;) {
    // Each posted loop bumps LoopSeq; a worker joins every loop exactly
    // once (SeenSeq tracks the last one it helped drain). Detached tasks
    // fill the gaps between loops; on shutdown the queue is drained — not
    // dropped — before the worker exits.
    WorkReady.wait(Lock, [&] {
      return ShuttingDown || !Tasks.empty() ||
             (Current != nullptr && LoopSeq != SeenSeq);
    });
    if (Current != nullptr && LoopSeq != SeenSeq) {
      SeenSeq = LoopSeq;
      Loop *L = Current;
      Lock.unlock();
      L->drain();
      Lock.lock();
      ++L->Finished;
      WorkDone.notify_all();
      continue;
    }
    if (!Tasks.empty()) {
      std::function<void()> Task = std::move(Tasks.front());
      Tasks.pop_front();
      Lock.unlock();
      try {
        InTaskScope Scope(this);
        Task();
      } catch (...) {
        // Detached tasks have no caller to rethrow to; they are expected
        // to handle their own errors (documented in the header).
      }
      Lock.lock();
      continue;
    }
    if (ShuttingDown)
      return;
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  // One-worker pools have no worker threads at all; run inline for the
  // same serial semantics parallelFor has there.
  if (NumWorkers == 1) {
    try {
      InTaskScope Scope(this);
      Task();
    } catch (...) {
    }
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    Tasks.push_back(std::move(Task));
  }
  WorkReady.notify_all();
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;

  Loop L;
  L.N = N;
  L.Body = &Body;
  L.Owner = this;

  // Inline pools (one worker) and reentrant calls from inside one of this
  // pool's own task bodies both run the whole loop on the current thread:
  // serial semantics, no locks. The drain stack (not the worker id) is
  // what detects reentrancy — the caller thread is worker 0, and a nested
  // call from its own drain must not post a second loop over the active
  // one. Loops of *other* pools are not reentrancy: they schedule
  // normally, so nested pools (a race pool inside a batch task) keep
  // their parallelism.
  if (NumWorkers == 1 || drainingPool(this)) {
    L.drain();
    if (L.FirstError)
      std::rethrow_exception(L.FirstError);
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(Mtx);
    assert(Current == nullptr && "concurrent parallelFor on one pool");
    Current = &L;
    ++LoopSeq;
  }
  WorkReady.notify_all();

  // The caller is worker 0 and helps drain its own loop.
  L.drain();

  std::unique_lock<std::mutex> Lock(Mtx);
  ++L.Finished;
  WorkDone.notify_all();
  WorkDone.wait(Lock, [&] { return L.Finished == NumWorkers; });
  Current = nullptr;

  if (L.FirstError)
    std::rethrow_exception(L.FirstError);
}
