#ifndef LTM_SERVE_REFIT_SCHEDULER_H_
#define LTM_SERVE_REFIT_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "truth/truth_method.h"

namespace ltm {
namespace serve {

struct RefitSchedulerOptions {
  /// Schedule a refit once the observed epoch is at least this far past
  /// the last fit. Must be >= 1 (a scheduler is only constructed when
  /// the debounce trigger is enabled).
  uint64_t debounce_epochs = 1;
  /// Bounded pending queue: triggers that arrive while a refit runs wait
  /// here; beyond this depth the oldest pending trigger is shed.
  size_t max_queue = 1;
};

struct RefitSchedulerStats {
  uint64_t scheduled = 0;   ///< Refit jobs submitted to the pool.
  uint64_t completed = 0;   ///< Jobs that fit successfully.
  uint64_t failed = 0;      ///< Jobs whose fit returned an error.
  uint64_t shed = 0;        ///< Pending triggers dropped by admission control.
  uint64_t last_fit_epoch = 0;
  bool in_flight = false;
};

/// Debounces epoch-advance notifications into background Gibbs refits on
/// a ThreadPool, with admission control. Notifications are cheap (one
/// lock) and never block on a fit: when a refit is already running, the
/// trigger queues (bounded; shed-oldest beyond RefitSchedulerOptions::
/// max_queue, surfaced to the caller as ResourceExhausted). The refit
/// callback returns the epoch its fit covered, which re-arms the
/// debounce. The destructor cancels the callback's RunContext and drains
/// the queue.
///
/// The scheduler debounces one scalar: the store's epoch(). For a
/// partitioned store that is the composite epoch — the sum of the child
/// epochs, kept strictly monotone across rebalances — which counts the
/// same appends a single store would, so a burst confined to one hot
/// partition triggers exactly as fast as on an unpartitioned store.
class RefitScheduler {
 public:
  /// `fn` runs on `pool` threads; it must be safe to call from one
  /// background thread at a time (the scheduler never overlaps calls).
  using RefitFn = std::function<Result<uint64_t>(const RunContext&)>;

  /// `metrics` is where the `ltm_serve_refit_*` counters register (must
  /// outlive the scheduler); null gives the scheduler a private registry.
  /// ServeSession passes its store's registry.
  RefitScheduler(ThreadPool* pool, RefitFn fn, RefitSchedulerOptions options,
                 uint64_t initial_fit_epoch,
                 obs::MetricsRegistry* metrics = nullptr);
  ~RefitScheduler();

  /// Owns a mutex and is captured by pool jobs; copying or moving a live
  /// scheduler could never be correct.
  RefitScheduler(const RefitScheduler&) = delete;
  RefitScheduler& operator=(const RefitScheduler&) = delete;
  RefitScheduler(RefitScheduler&&) = delete;
  RefitScheduler& operator=(RefitScheduler&&) = delete;

  /// Observes that the store reached `epoch` (TruthStoreBase::epoch()).
  /// Schedules (or queues) a refit once `epoch` is debounce_epochs past
  /// the last fit. Returns OK when nothing needed doing or the trigger
  /// was admitted; ResourceExhausted when admitting it shed the oldest
  /// pending trigger.
  Status NotifyEpoch(uint64_t epoch) LTM_EXCLUDES(mu_);

  /// Blocks until no job is running and nothing is pending.
  void Drain() LTM_EXCLUDES(mu_);

  RefitSchedulerStats Stats() const LTM_EXCLUDES(mu_);

 private:
  /// True when `epoch` is at least debounce_epochs past the last fit.
  bool ShouldTriggerLocked(uint64_t epoch) const LTM_REQUIRES(mu_);
  /// Submits the pool job for the trigger epoch; in_flight_ must already
  /// be set.
  void LaunchLocked(uint64_t epoch) LTM_REQUIRES(mu_);
  /// Pool-job body: runs fn_, re-baselines on success, chains the next
  /// pending trigger if its debounce still holds.
  void RunOne(uint64_t epoch) LTM_EXCLUDES(mu_);

  ThreadPool* const pool_;
  const RefitFn fn_;
  const RefitSchedulerOptions options_;
  /// Set by the destructor; wired into the RunContext handed to fn_ so
  /// an in-flight fit aborts promptly on shutdown.
  std::atomic<bool> cancel_{false};

  /// Backs the metric pointers when no registry was injected.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// Registry counters/gauges; mutated only with mu_ held, so a Stats()
  /// snapshot under the same lock stays internally consistent.
  obs::Counter* scheduled_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* shed_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* in_flight_gauge_;
  obs::Gauge* last_fit_epoch_gauge_;

  mutable Mutex mu_;
  CondVar idle_cv_;
  /// Pending trigger epochs. The newest subsumes older ones, so the
  /// deque rarely grows.
  std::deque<uint64_t> pending_ LTM_GUARDED_BY(mu_);
  bool in_flight_ LTM_GUARDED_BY(mu_) = false;
  /// Debounce baseline: the epoch the last successful fit covered (the
  /// fit's reported epoch, or its trigger's when that is newer).
  uint64_t last_fit_epoch_ LTM_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace ltm

#endif  // LTM_SERVE_REFIT_SCHEDULER_H_
