#ifndef LTM_COMMON_THREAD_POOL_H_
#define LTM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ltm {

/// Fixed-size thread pool with a blocking ParallelFor. Deliberately has no
/// work stealing or task graph: the library's parallelism is bulk data
/// parallelism with a barrier per Gibbs sweep, so a shared queue plus an
/// atomic chunk cursor is all the machinery the hot path needs (and all
/// that TSan has to reason about).
///
/// ParallelFor is deadlock-safe under nesting: the calling thread executes
/// chunks itself alongside the workers, so a pool worker that enters a
/// nested ParallelFor drains that loop's chunks instead of blocking on a
/// queue slot. This is what lets independent methods run as pool tasks
/// while each method's own sweeps fan out over the same pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 0; a pool with 0 workers
  /// is legal — ParallelFor then runs entirely on the calling thread).
  explicit ThreadPool(int num_threads);

  /// Drains nothing: outstanding tasks finish, queued tasks still run,
  /// then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for any worker. Tasks must not throw (ParallelFor
  /// wraps user callbacks; raw Submit callers own their error handling).
  void Submit(std::function<void()> task) LTM_EXCLUDES(mutex_);

  /// Enqueues a background job whose outcome the caller wants to observe,
  /// such as a TruthStore::Compact() run off the caller's thread. The
  /// returned future yields the job's Status; an exception escaping `job`
  /// is captured as an Internal status instead of terminating the worker.
  /// The future is shared so several observers may wait on one job. On a
  /// zero-worker pool the job runs inline before this returns.
  std::shared_future<Status> SubmitWithStatus(std::function<Status()> job)
      LTM_EXCLUDES(mutex_);

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) in chunks of
  /// `grain` (clamped to >= 1), concurrently on the workers plus the
  /// calling thread, and blocks until every dispatched chunk finished.
  ///
  /// `stop_check` — when provided — is evaluated by each runner before it
  /// takes its next chunk; the first non-OK status halts dispatch of the
  /// remaining chunks and is returned after in-flight chunks complete.
  /// This is the RunContext cancellation/deadline hook: pass a closure
  /// over RunObserver::Check. The callback must be thread-safe (Check is:
  /// an atomic load plus a steady_clock read).
  ///
  /// An exception escaping `fn` likewise halts dispatch; the first one is
  /// rethrown on the calling thread after the barrier.
  Status ParallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t, size_t)>& fn,
                     const std::function<Status()>& stop_check = nullptr)
      LTM_EXCLUDES(mutex_);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareConcurrency();

  /// Process-wide pool sized to HardwareConcurrency(), created on first
  /// use and never destroyed (safe for use from static-duration callers).
  static ThreadPool& Shared();

 private:
  void WorkerLoop() LTM_EXCLUDES(mutex_);

  /// Pops and runs one queued task on the calling thread; false when the
  /// queue is empty. Lets threads blocked at a ParallelFor barrier keep
  /// the pool making progress (the nesting deadlock-avoidance mechanism).
  bool TryRunOneTask() LTM_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar task_ready_;
  std::deque<std::function<void()>> queue_ LTM_GUARDED_BY(mutex_);
  bool shutdown_ LTM_GUARDED_BY(mutex_) = false;
  /// Immutable after construction (spawned in the constructor, joined in
  /// the destructor), so reads need no lock.
  std::vector<std::thread> workers_;
};

}  // namespace ltm

#endif  // LTM_COMMON_THREAD_POOL_H_
