#include "truth/ltm_parallel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "truth/source_quality.h"

namespace ltm {

int ResolveShards(const LtmOptions& options) {
  return options.threads <= 0 ? ThreadPool::HardwareConcurrency()
                              : options.threads;
}

ParallelLtmGibbs::ParallelLtmGibbs(const ClaimGraph& graph,
                                   const LtmOptions& options, ThreadPool* pool)
    : graph_(graph),
      options_(options),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()),
      num_shards_(ResolveShards(options)),
      shard_bounds_(graph.PartitionFacts(num_shards_)),
      rng_(options.seed) {
  log_beta_[0] = std::log(options_.beta.neg);
  log_beta_[1] = std::log(options_.beta.pos);
  truth_.assign(graph_.NumFacts(), 0);
  counts_.assign(graph_.NumSources() * 4, 0);
  truth_sum_.assign(graph_.NumFacts(), 0.0);
  if (num_shards_ > 1) {
    shard_rngs_.reserve(num_shards_);
    for (int k = 0; k < num_shards_; ++k) {
      // SplitStream depends only on (seed, k): shard streams are fixed by
      // the options, not by construction order or thread scheduling.
      shard_rngs_.push_back(rng_.SplitStream(static_cast<uint64_t>(k)));
    }
    shard_counts_.assign(num_shards_, std::vector<int64_t>());
    shard_flips_.assign(num_shards_, 0);
  }
  shard_tables_.resize(static_cast<size_t>(num_shards_));
  for (LogCountTables& tables : shard_tables_) {
    tables.Reset(options_.alpha0, options_.alpha1);
  }
  DrawInitialTruth();
}

void ParallelLtmGibbs::DrawInitialTruth() {
  if (num_shards_ == 1) {
    // Identical draw order to LtmGibbs, continuing rng_.
    for (FactId f = 0; f < truth_.size(); ++f) {
      truth_[f] = rng_.Bernoulli(0.5) ? 1 : 0;
    }
  } else {
    for (int k = 0; k < num_shards_; ++k) {
      for (FactId f = shard_bounds_[k]; f < shard_bounds_[k + 1]; ++f) {
        truth_[f] = shard_rngs_[k].Bernoulli(0.5) ? 1 : 0;
      }
    }
  }
  MutexLock lock(counts_mutex_);
  counts_stale_ = true;
}

void ParallelLtmGibbs::Initialize() {
  std::fill(truth_sum_.begin(), truth_sum_.end(), 0.0);
  num_samples_ = 0;
  DrawInitialTruth();
}

void ParallelLtmGibbs::EnsureCounts() const {
  MutexLock lock(counts_mutex_);
  if (!counts_stale_) return;
  RecountClaims(graph_, truth_, &counts_);
  counts_stale_ = false;
}

Status ParallelLtmGibbs::RunSweep(const std::function<Status()>& stop_check,
                                  int* flips) {
  EnsureCounts();
  if (num_shards_ == 1) {
    if (stop_check) LTM_RETURN_IF_ERROR(stop_check());
    *flips = GibbsSweepRange(graph_, 0, static_cast<FactId>(truth_.size()),
                             &truth_, &counts_, log_beta_, &shard_tables_[0],
                             &rng_);
    return Status::OK();
  }

  // Shard k samples its fact range against a private copy of the counts;
  // truth_ writes are disjoint byte ranges. counts_ is read-only until
  // the barrier below.
  Status st = pool_->ParallelFor(
      0, static_cast<size_t>(num_shards_), 1,
      [this](size_t lo, size_t) {
        const int k = static_cast<int>(lo);
        shard_counts_[k].assign(counts_.begin(), counts_.end());
        shard_flips_[k] = GibbsSweepRange(
            graph_, shard_bounds_[k], shard_bounds_[k + 1], &truth_,
            &shard_counts_[k], log_beta_, &shard_tables_[k],
            &shard_rngs_[k]);
      },
      stop_check);
  // A cancelled/expired sweep leaves the chain torn (some shards swept,
  // none merged); callers abandon the run, so skip the merge.
  LTM_RETURN_IF_ERROR(st);

  // Barrier merge: integer deltas commute, so the result is independent
  // of shard completion order.
  for (size_t e = 0; e < counts_.size(); ++e) {
    const int64_t base = counts_[e];
    int64_t acc = base;
    for (int k = 0; k < num_shards_; ++k) {
      acc += shard_counts_[k][e] - base;
    }
    counts_[e] = acc;
  }
  int total_flips = 0;
  for (int k = 0; k < num_shards_; ++k) total_flips += shard_flips_[k];
  *flips = total_flips;
  return Status::OK();
}

int ParallelLtmGibbs::RunSweep() {
  int flips = 0;
  Status st = RunSweep(nullptr, &flips);
  (void)st;  // cannot fail without a stop_check
  return flips;
}

void ParallelLtmGibbs::AccumulateSample() {
  for (FactId f = 0; f < truth_.size(); ++f) {
    truth_sum_[f] += truth_[f];
  }
  ++num_samples_;
}

TruthEstimate ParallelLtmGibbs::PosteriorMean() const {
  TruthEstimate est;
  est.probability.resize(truth_.size(), 0.5);
  if (num_samples_ == 0) return est;
  for (FactId f = 0; f < truth_.size(); ++f) {
    est.probability[f] = truth_sum_[f] / num_samples_;
  }
  return est;
}

TruthEstimate ParallelLtmGibbs::Run() {
  Initialize();
  for (int iter = 0; iter < options_.iterations; ++iter) {
    RunSweep();
    if (iter >= options_.burnin &&
        (iter - options_.burnin) % options_.sample_gap == 0) {
      AccumulateSample();
    }
  }
  return PosteriorMean();
}

Result<TruthResult> RunShardedLtm(const RunContext& ctx,
                                  const std::string& name,
                                  const ClaimGraph& quality_graph,
                                  const ClaimGraph& graph,
                                  const LtmOptions& options) {
  RunObserver obs(ctx, name);
  ParallelLtmGibbs sampler(graph, options);
  sampler.Initialize();

  TruthResult result;
  const double num_facts = std::max<double>(1.0, sampler.truth().size());
  TruthEstimate state;  // reused buffer for on_state reporting
  const auto stop_check = [&obs] { return obs.Check(); };
  // Per-sweep timing, published only when the caller injected a registry
  // (see the sequential loop in ltm.cc for the determinism argument).
  obs::Counter* sweeps_total =
      ctx.metrics == nullptr ? nullptr
                             : ctx.metrics->counter("ltm_infer_sweeps_total");
  obs::Histogram* sweep_micros =
      ctx.metrics == nullptr
          ? nullptr
          : ctx.metrics->histogram("ltm_infer_sweep_micros");
  for (int iter = 0; iter < options.iterations; ++iter) {
    int flips = 0;
    {
      obs::ObsSpan span("gibbs_sweep");
      WallTimer sweep_timer;
      LTM_RETURN_IF_ERROR(sampler.RunSweep(stop_check, &flips));
      if (sweeps_total != nullptr) {
        sweeps_total->Increment();
        sweep_micros->Record(
            static_cast<uint64_t>(sweep_timer.ElapsedSeconds() * 1e6));
      }
    }
    if (iter >= options.burnin &&
        (iter - options.burnin) % options.sample_gap == 0) {
      sampler.AccumulateSample();
    }
    obs.OnIteration(iter, flips / num_facts, &result);
    if (ctx.on_state) {
      state.probability.assign(sampler.truth().begin(),
                               sampler.truth().end());
      obs.OnState(iter, state);
    }
    obs.Progress(static_cast<double>(iter + 1) / options.iterations);
  }

  result.estimate = sampler.PosteriorMean();
  if (ctx.with_quality) {
    result.quality = EstimateSourceQuality(quality_graph,
                                           result.estimate.probability,
                                           options.alpha0, options.alpha1);
  }
  obs.Finish(&result, options.iterations, /*converged=*/true);
  return result;
}

}  // namespace ltm
