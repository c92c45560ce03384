#ifndef ANMAT_UTIL_THREAD_POOL_H_
#define ANMAT_UTIL_THREAD_POOL_H_

/// \file thread_pool.h
/// The execution substrate of the engine layer (see anmat/engine.h).
///
/// `ThreadPool` is a fixed-size pool of worker threads draining a FIFO task
/// queue. `ExecutionOptions` is the user-facing knob block carried by
/// `ProfilerOptions`, `DiscoveryOptions` and `DetectorOptions`; the pipeline
/// stages consult it through `ParallelFor`, which fans an index range out
/// over the configured pool (or a transient one) and blocks until every
/// task completed. Single-threaded configurations run inline on the calling
/// thread, in index order, with zero synchronization — the serial paths are
/// byte-identical to the pre-engine implementation.
///
/// Tasks must not throw (the library reports errors via Status; a throwing
/// task terminates) and must synchronize any state they share. The usual
/// idiom is a pre-sized slot vector with task `i` writing only slot `i`,
/// merged in index order afterwards — which is how every engine stage keeps
/// parallel output byte-identical to serial runs.

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace anmat {

/// \brief A fixed-size pool of worker threads with a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. Tasks run in FIFO order across the workers.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// The hardware concurrency (at least 1).
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ ANMAT_GUARDED_BY(mu_);
  CondVar work_cv_;  ///< signals workers: work or shutdown
  CondVar done_cv_;  ///< signals Wait(): everything drained
  /// Queued + currently running tasks.
  size_t in_flight_ ANMAT_GUARDED_BY(mu_) = 0;
  bool stop_ ANMAT_GUARDED_BY(mu_) = false;
};

/// \brief Execution knobs shared by every pipeline stage.
///
/// Embedded in `ProfilerOptions`, `DiscoveryOptions` and `DetectorOptions`.
/// `anmat::Engine` overwrites the block with its own configuration (and its
/// shared pool) before delegating, so engine users set threads once, when
/// they construct the engine; direct callers of `ProfileRelation`/`DiscoverPfds`/
/// `DetectErrors` set it on the options they pass.
struct ExecutionOptions {
  /// Worker threads for the stage. 1 = serial (default), 0 = one per
  /// hardware thread.
  size_t num_threads = 1;

  /// When true (default), parallel runs must produce byte-identical output
  /// to the serial path. The current engine merges per-task slots in task
  /// order, which is deterministic for free, so this flag is a documented
  /// guarantee rather than a behavior switch; future relaxed merge
  /// strategies must honor it.
  bool deterministic = true;

  /// Optional shared pool. When null, `ParallelFor` spins up a transient
  /// pool per call; the Engine installs its long-lived pool here. Shared
  /// ownership: every options copy (e.g. the one a `DetectionStream` keeps
  /// for its lifetime) co-owns the pool, so a stream keeps its pool after
  /// the engine that opened it is gone.
  std::shared_ptr<ThreadPool> pool;

  /// `num_threads` with the 0 = hardware default resolved.
  size_t EffectiveThreads() const {
    return num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads;
  }
};

/// \brief Runs `task(0) ... task(num_tasks - 1)`, fanned out over the
/// configured threads, and blocks until all calls returned.
///
/// With an effective thread count of 1 (or fewer than 2 tasks) the calls run
/// inline in index order. Otherwise workers drain an atomic index counter,
/// so heterogeneous task costs load-balance; the calling thread participates
/// as one of the workers.
///
/// Must not be called from inside a pool task (the completion wait could
/// deadlock if every pool worker is blocked in a nested wait). The engine's
/// stages only fan out at top level, never from within a task.
void ParallelFor(const ExecutionOptions& exec, size_t num_tasks,
                 const std::function<void(size_t)>& task);

}  // namespace anmat

#endif  // ANMAT_UTIL_THREAD_POOL_H_
