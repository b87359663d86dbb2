#include "serve/serve_session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace ltm {
namespace serve {

namespace {

uint64_t ElapsedMicros(const WallTimer& timer) {
  const double us = timer.ElapsedSeconds() * 1e6;
  return us <= 0.0 ? 0 : static_cast<uint64_t>(us);
}

}  // namespace

ServeSession::ServeSession(ext::StreamingPipeline* pipeline,
                           ServeOptions options)
    : pipeline_(pipeline),
      store_(pipeline->attached_store()),
      options_(options),
      ltm_options_(pipeline->options().ltm),
      cache_(kPosteriorCacheCapacity, store_->metrics()) {
  obs::MetricsRegistry* reg = store_->metrics();
  queries_ = reg->counter("ltm_serve_queries_total");
  snapshot_queries_ = reg->counter("ltm_serve_snapshot_queries_total");
  range_queries_ = reg->counter("ltm_serve_range_queries_total");
  coalesced_ = reg->counter("ltm_serve_coalesced_total");
  shed_ = reg->counter("ltm_serve_shed_total");
  slice_computes_ = reg->counter("ltm_serve_slice_computes_total");
  query_micros_ = reg->histogram("ltm_serve_query_micros");
  quality_version_gauge_ = reg->gauge("ltm_serve_quality_version");
}

Result<std::unique_ptr<ServeSession>> ServeSession::Create(
    ext::StreamingPipeline* pipeline, ServeOptions options,
    ThreadPool* pool) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("ServeSession: pipeline is null");
  }
  if (pipeline->attached_store() == nullptr) {
    return Status::FailedPrecondition(
        "ServeSession: pipeline has no attached store; call "
        "BootstrapFromStore first");
  }
  LTM_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<ServeSession> session(
      new ServeSession(pipeline, options));
  LTM_RETURN_IF_ERROR(session->RefreshQuality());
  if (options.refit_debounce_epochs > 0) {
    if (pool == nullptr) pool = &ThreadPool::Shared();
    RefitSchedulerOptions sched;
    sched.debounce_epochs = options.refit_debounce_epochs;
    sched.max_queue = options.refit_queue;
    ServeSession* raw = session.get();
    session->scheduler_ = std::make_unique<RefitScheduler>(
        pool,
        [raw](const RunContext& ctx) -> Result<uint64_t> {
          MutexLock plock(raw->pipeline_mu_);
          // Background refits publish their per-sweep Gibbs timing into
          // the store's registry alongside the serve counters.
          RunContext refit_ctx = ctx;
          refit_ctx.metrics = raw->store_->metrics();
          LTM_ASSIGN_OR_RETURN(const uint64_t fit_epoch,
                               raw->pipeline_->RefitFromStore(refit_ctx));
          raw->InstallQualityLocked();
          return fit_epoch;
        },
        sched, pipeline->last_fit_epoch(),
        pipeline->attached_store()->metrics());
  }
  return session;
}

ServeSession::~ServeSession() {
  // The scheduler's destructor cancels and drains its pool job before
  // any member it captured goes away.
  scheduler_.reset();
}

Status ServeSession::RefreshQuality() {
  MutexLock plock(pipeline_mu_);
  InstallQualityLocked();
  return Status::OK();
}

void ServeSession::InstallQualityLocked() {
  auto next = std::make_shared<VersionedQuality>();
  next->terms = PrecomputeLogTerms(
      BuildQualityLookup(pipeline_->quality(),
                         pipeline_->cumulative_sources(), ltm_options_),
      ltm_options_);
  MutexLock lock(mu_);
  next->version = quality_versions_installed_++;
  quality_version_gauge_->Set(static_cast<int64_t>(next->version));
  quality_ = std::move(next);
  // A new fit changes every posterior at an unchanged epoch, so cached
  // entries keyed under older quality versions must go.
  cache_.Clear();
}

std::shared_ptr<const ServeSession::VersionedQuality>
ServeSession::CurrentQuality() const {
  MutexLock lock(mu_);
  return quality_;
}

Status ServeSession::NotifyIngest() {
  if (scheduler_ == nullptr) return Status::OK();
  return scheduler_->NotifyEpoch(store_->epoch());
}

Result<double> ServeSession::Query(const FactRef& fact,
                                   const RunContext& ctx) {
  obs::ObsSpan span("query");
  const WallTimer timer;
  queries_->Increment();
  // Reads observe epoch advances too (a foreign writer may never call
  // NotifyIngest); admission feedback from a read-side poke is folded
  // into Stats().refit rather than failing the read.
  if (scheduler_ != nullptr) {
    (void)scheduler_->NotifyEpoch(store_->epoch());
  }
  Result<double> result = QueryInner(fact, ctx);
  if (!result.ok() && result.status().code() == StatusCode::kResourceExhausted) {
    shed_->Increment();
  }
  query_micros_->Record(ElapsedMicros(timer));
  return result;
}

Result<double> ServeSession::QueryInner(const FactRef& fact,
                                        const RunContext& ctx) {
  RunObserver obs(ctx, "ServeSession::Query");
  const std::shared_ptr<const VersionedQuality> quality = CurrentQuality();
  const std::string fact_key = FactKey(fact);
  const std::string cache_key = CacheKey(fact_key, quality->version);
  if (const auto hit = cache_.Get(cache_key, store_->epoch())) {
    return *hit;
  }

  // Singleflight: one slice computation per (entity, quality version) at
  // a time; everyone else waits for it and shares the result.
  const std::string slice_key =
      fact.entity + "\x1f" + std::to_string(quality->version);
  std::shared_ptr<Inflight> entry;
  bool leader = false;
  {
    MutexLock lock(mu_);
    const auto it = inflight_.find(slice_key);
    if (it != inflight_.end()) {
      entry = it->second;
    } else {
      if (inflight_.size() >= options_.max_inflight) {
        return Status::ResourceExhausted(
            "serve: " + std::to_string(inflight_.size()) +
            " slice computations in flight (max_inflight=" +
            std::to_string(options_.max_inflight) + "); query shed");
      }
      entry = std::make_shared<Inflight>();
      inflight_.emplace(slice_key, entry);
      leader = true;
    }
  }

  if (leader) {
    Result<SliceScore> computed =
        ComputeEntitySlice(fact.entity, *quality, obs.NestedContext());
    {
      MutexLock lock(mu_);
      if (computed.ok()) {
        entry->score = std::move(*computed);
      } else {
        entry->error = computed.status();
      }
      entry->done = true;
      inflight_.erase(slice_key);
      cv_.NotifyAll();
    }
  } else {
    MutexLock lock(mu_);
    while (!entry->done) {
      cv_.WaitFor(mu_, std::chrono::milliseconds(20));
      if (!entry->done) LTM_RETURN_IF_ERROR(obs.Check());
    }
    coalesced_->Increment();
  }

  // entry is immutable once done (the leader's last write under mu_ was
  // observed above, or made by this thread).
  if (!entry->error.ok()) return entry->error;
  const auto it = entry->score.posteriors.find(fact_key);
  const double posterior = it != entry->score.posteriors.end()
                               ? it->second
                               : quality->terms.no_claim_prior;
  if (it == entry->score.posteriors.end()) {
    // The slice fill only covered facts that exist; cache the no-claim
    // prior for this queried-but-absent fact so repeat lookups hit.
    cache_.Put(cache_key, entry->score.epoch, posterior);
  }
  return posterior;
}

Result<ServeSession::SliceScore> ServeSession::ComputeEntitySlice(
    const std::string& entity, const VersionedQuality& quality,
    const RunContext& ctx) {
  obs::ObsSpan span("slice_compute");
  slice_computes_->Increment();
  const auto pin = store_->PinSnapshot(&entity, &entity);
  SliceScore out;
  out.epoch = pin->epoch();
  LTM_ASSIGN_OR_RETURN(const std::vector<store::SegmentRow> rows,
                       store_->SnapshotRows(*pin, &entity, &entity));
  if (rows.empty()) return out;
  LTM_ASSIGN_OR_RETURN(const std::vector<RowFactScore> scores,
                       ScoreRows(rows, quality.terms, ctx));
  for (const RowFactScore& scored : scores) {
    std::string key(scored.entity);
    key += "\t";
    key += scored.attribute;
    cache_.Put(CacheKey(key, quality.version), out.epoch, scored.posterior);
    out.posteriors.emplace(std::move(key), scored.posterior);
  }
  return out;
}

Result<std::vector<double>> ServeSession::QueryBatch(
    const std::vector<FactRef>& facts, const RunContext& ctx) {
  // One observer spans the batch so the deadline budget covers the whole
  // call, not each item afresh.
  RunObserver obs(ctx, "ServeSession::QueryBatch");
  std::vector<double> out;
  out.reserve(facts.size());
  for (const FactRef& fact : facts) {
    LTM_ASSIGN_OR_RETURN(const double p, Query(fact, obs.NestedContext()));
    out.push_back(p);
  }
  return out;
}

Result<std::vector<ServedFact>> ServeSession::QueryEntityRange(
    const std::string& min_entity, const std::string& max_entity,
    const RunContext& ctx) {
  range_queries_->Increment();
  RunObserver obs(ctx, "ServeSession::QueryEntityRange");
  const std::shared_ptr<const VersionedQuality> quality = CurrentQuality();
  const auto pin = store_->PinSnapshot(&min_entity, &max_entity);
  LTM_ASSIGN_OR_RETURN(
      const std::vector<store::SegmentRow> rows,
      store_->SnapshotRows(*pin, &min_entity, &max_entity));
  std::vector<ServedFact> out;
  if (rows.empty()) return out;
  LTM_ASSIGN_OR_RETURN(
      const std::vector<RowFactScore> scores,
      ScoreRows(rows, quality->terms, obs.NestedContext()));
  out.reserve(scores.size());
  for (const RowFactScore& scored : scores) {
    const ServedFact& served = out.emplace_back(
        ServedFact{std::string(scored.entity), std::string(scored.attribute),
                   scored.posterior});
    cache_.Put(CacheKey(served.entity + "\t" + served.attribute,
                        quality->version),
               pin->epoch(), served.posterior);
  }
  // Facts come back in first-appearance (global *ingest*) order — the
  // scoring above depends on it. The API contract is global
  // lexicographic entity order regardless of partition layout; the
  // stable sort keeps facts of one entity in ingest order.
  std::stable_sort(out.begin(), out.end(),
                   [](const ServedFact& a, const ServedFact& b) {
                     return a.entity < b.entity;
                   });
  return out;
}

std::unique_ptr<ServeSnapshot> ServeSession::AcquireSnapshot() {
  return std::unique_ptr<ServeSnapshot>(
      new ServeSnapshot(this, store_->PinSnapshot(), CurrentQuality()));
}

ServeStats ServeSession::Stats() const {
  ServeStats stats;
  stats.queries = queries_->Value();
  stats.snapshot_queries = snapshot_queries_->Value();
  stats.range_queries = range_queries_->Value();
  stats.coalesced = coalesced_->Value();
  stats.shed = shed_->Value();
  stats.slice_computes = slice_computes_->Value();
  stats.cache = cache_.Stats();
  const store::TruthStoreStats store_stats = store_->Stats();
  stats.block_cache = store_stats.block_cache;
  stats.bloom_point_skips = store_stats.bloom_point_skips;
  if (scheduler_ != nullptr) stats.refit = scheduler_->Stats();
  stats.epoch = store_stats.epoch;
  {
    MutexLock lock(mu_);
    stats.quality_version = quality_->version;
  }
  stats.live_pins = store_stats.live_pins;
  stats.latency = query_micros_->Snapshot();
  stats.unix_micros = static_cast<int64_t>(obs::NowUnixMicros());
  return stats;
}

Result<double> ServeSnapshot::Query(const FactRef& fact,
                                    const RunContext& ctx) {
  obs::ObsSpan span("query");
  const WallTimer timer;
  session_->snapshot_queries_->Increment();
  RunObserver obs(ctx, "ServeSnapshot::Query");
  const std::string fact_key = ServeSession::FactKey(fact);
  const std::string cache_key =
      ServeSession::CacheKey(fact_key, quality_->version);
  PosteriorCache& cache = session_->cache_;
  if (const auto hit = cache.Get(cache_key, pin_->epoch())) {
    session_->query_micros_->Record(ElapsedMicros(timer));
    return *hit;
  }
  // Bloom short-circuit: when every segment's filter denies the
  // (entity, attribute) pair and the pin's memtable has no exact match,
  // the fact cannot exist — serve the no-claim prior without reading a
  // single data block. Blooms have no false negatives, so this is the
  // same answer the materialize below would have produced.
  LTM_ASSIGN_OR_RETURN(const bool may_exist,
                       session_->store_->SnapshotFactMayExist(
                           *pin_, fact.entity, fact.attribute));
  if (!may_exist) {
    const double prior = quality_->terms.no_claim_prior;
    cache.Put(cache_key, pin_->epoch(), prior);
    session_->query_micros_->Record(ElapsedMicros(timer));
    return prior;
  }
  // Recompute from this snapshot's own pin: the same replay order a
  // sequential materialize at the pinned epoch would use, so the result
  // is bit-identical no matter what runs concurrently.
  LTM_ASSIGN_OR_RETURN(const std::vector<store::SegmentRow> rows,
                       session_->store_->SnapshotRows(*pin_, &fact.entity,
                                                      &fact.entity));
  double posterior = quality_->terms.no_claim_prior;
  const auto claimed =
      std::find_if(rows.begin(), rows.end(), [&](const store::SegmentRow& r) {
        return r.attribute == fact.attribute;
      });
  if (claimed != rows.end()) {
    LTM_ASSIGN_OR_RETURN(
        const std::vector<RowFactScore> scores,
        ScoreRows(rows, quality_->terms, obs.NestedContext()));
    for (const RowFactScore& scored : scores) {
      if (scored.attribute == fact.attribute) posterior = scored.posterior;
    }
  }
  // Best-effort warm: dropped by the downgrade guard when the live cache
  // already holds a fresher-epoch entry for this key.
  cache.Put(cache_key, pin_->epoch(), posterior);
  session_->query_micros_->Record(ElapsedMicros(timer));
  return posterior;
}

Result<std::vector<double>> ServeSnapshot::QueryBatch(
    const std::vector<FactRef>& facts, const RunContext& ctx) {
  RunObserver obs(ctx, "ServeSnapshot::QueryBatch");
  std::vector<double> out;
  out.reserve(facts.size());
  for (const FactRef& fact : facts) {
    LTM_ASSIGN_OR_RETURN(const double p, Query(fact, obs.NestedContext()));
    out.push_back(p);
  }
  return out;
}

}  // namespace serve
}  // namespace ltm
