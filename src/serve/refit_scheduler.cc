#include "serve/refit_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace ltm {
namespace serve {

RefitScheduler::RefitScheduler(ThreadPool* pool, RefitFn fn,
                               RefitSchedulerOptions options,
                               uint64_t initial_fit_epoch,
                               obs::MetricsRegistry* metrics)
    : pool_(pool),
      fn_(std::move(fn)),
      options_(options),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      last_fit_epoch_(initial_fit_epoch) {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  scheduled_ = reg->counter("ltm_serve_refit_scheduled_total");
  completed_ = reg->counter("ltm_serve_refit_completed_total");
  failed_ = reg->counter("ltm_serve_refit_failed_total");
  shed_ = reg->counter("ltm_serve_refit_shed_total");
  queue_depth_gauge_ = reg->gauge("ltm_serve_refit_queue_depth");
  in_flight_gauge_ = reg->gauge("ltm_serve_refit_in_flight");
  last_fit_epoch_gauge_ = reg->gauge("ltm_serve_refit_last_fit_epoch");
  last_fit_epoch_gauge_->Set(static_cast<int64_t>(initial_fit_epoch));
}

RefitScheduler::~RefitScheduler() {
  // Abort an in-flight fit promptly (the callback's RunContext carries
  // cancel_), then wait for it: the pool job captured `this` raw.
  cancel_.store(true, std::memory_order_relaxed);
  Drain();
}

bool RefitScheduler::ShouldTriggerLocked(uint64_t epoch) const {
  return epoch >= last_fit_epoch_ + options_.debounce_epochs;
}

Status RefitScheduler::NotifyEpoch(uint64_t epoch) {
  MutexLock lock(mu_);
  if (!ShouldTriggerLocked(epoch)) return Status::OK();
  if (in_flight_) {
    // The running fit may already cover this trigger; conservatively
    // queue unless an equal-or-newer trigger is already waiting (one
    // refit materializes everything, so the newest trigger subsumes the
    // rest).
    if (!pending_.empty() && pending_.back() >= epoch) return Status::OK();
    if (pending_.size() >= options_.max_queue) {
      pending_.pop_front();
      shed_->Increment();
      pending_.push_back(epoch);
      queue_depth_gauge_->Set(static_cast<int64_t>(pending_.size()));
      return Status::ResourceExhausted(
          "refit queue full (refit_queue=" +
          std::to_string(options_.max_queue) +
          "); shed the oldest pending trigger");
    }
    pending_.push_back(epoch);
    queue_depth_gauge_->Set(static_cast<int64_t>(pending_.size()));
    return Status::OK();
  }
  in_flight_ = true;
  in_flight_gauge_->Set(1);
  LaunchLocked(epoch);
  return Status::OK();
}

void RefitScheduler::LaunchLocked(uint64_t epoch) {
  scheduled_->Increment();
  pool_->Submit([this, epoch] { RunOne(epoch); });
}

void RefitScheduler::RunOne(uint64_t epoch) {
  RunContext ctx;
  ctx.cancel = &cancel_;
  Result<uint64_t> fit = [&]() {
    obs::ObsSpan span("refit");
    return fn_(ctx);
  }();

  MutexLock lock(mu_);
  if (fit.ok()) {
    completed_->Increment();
    // Re-arm the debounce at the fitted epoch (at least the trigger's):
    // appends racing the fit count against what the fit covered.
    last_fit_epoch_ = std::max(epoch, *fit);
    last_fit_epoch_gauge_->Set(static_cast<int64_t>(last_fit_epoch_));
  } else {
    // Leave the baseline alone: the next notification past the
    // threshold retries.
    failed_->Increment();
    LTM_LOG(Warning) << "serve: background refit (trigger epoch " << epoch
                     << ") failed: " << fit.status().ToString();
  }
  // One fit covers all queued triggers up to its snapshot; only the
  // newest still-uncovered trigger warrants another pass.
  uint64_t next = 0;
  bool launch = false;
  if (!pending_.empty()) {
    next = pending_.back();
    pending_.clear();
    launch = !cancel_.load(std::memory_order_relaxed) &&
             ShouldTriggerLocked(next);
  }
  queue_depth_gauge_->Set(0);
  if (launch) {
    LaunchLocked(next);  // in_flight_ stays true via the chain
  } else {
    in_flight_ = false;
    in_flight_gauge_->Set(0);
    idle_cv_.NotifyAll();
  }
}

void RefitScheduler::Drain() {
  MutexLock lock(mu_);
  while (in_flight_) idle_cv_.Wait(mu_);
}

RefitSchedulerStats RefitScheduler::Stats() const {
  MutexLock lock(mu_);
  RefitSchedulerStats stats;
  stats.scheduled = scheduled_->Value();
  stats.completed = completed_->Value();
  stats.failed = failed_->Value();
  stats.shed = shed_->Value();
  stats.last_fit_epoch = last_fit_epoch_;
  stats.in_flight = in_flight_;
  return stats;
}

}  // namespace serve
}  // namespace ltm
