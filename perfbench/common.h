// Shared pieces of the three workloads: the seeded movie world, store
// loading, the serving stack, the traced replay probes, and the output
// checks. Everything here calls the library's public API only.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/truth_labels.h"
#include "ext/streaming.h"
#include "harness.h"
#include "serve/serve_session.h"
#include "store/store_base.h"
#include "store/truth_store.h"
#include "truth/options.h"

namespace perfbench {

/// Command-line arguments every workload sees.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory owned by this run; every store lives under it.
  std::string dir;
};

/// The threads a workload may run itself, main thread included.
unsigned Nproc();

/// A seeded movie-director world plus its 100-entity labeled sample.
struct World {
  ltm::Dataset data;
  ltm::TruthLabels eval_labels;
  ltm::LtmOptions ltm;
};

/// The paper-scale movie world (15,073 movies before the conflict filter).
constexpr size_t kPaperMovies = 15073;

World MakeWorld(size_t movies, uint64_t seed);

/// Rows [begin, end) of `raw`, in row order, as their own database.
ltm::RawDatabase RowRange(const ltm::RawDatabase& raw, size_t begin,
                          size_t end);

/// Every fact of `data` by name.
std::vector<ltm::serve::FactRef> AllFacts(const ltm::Dataset& data);

/// Runs CompactOnce until no level needs work; each step that did work is
/// a `store.compact` span.
ltm::Status CompactUntilQuiet(ltm::store::TruthStoreBase* store, SpanLog* log,
                              uint64_t request, uint64_t parent);

/// Loads `raw` into `store` as `commits` equal group commits, each
/// followed by a flush and CompactUntilQuiet. Spans: one `ingest.cycle`
/// per commit with `store.append`, `store.flush` and `store.compact`
/// children.
ltm::Status LoadInCommits(ltm::store::TruthStoreBase* store,
                          const ltm::RawDatabase& raw, size_t commits,
                          SpanLog* log);

/// Pipeline + session over an attached store. Refits (when enabled) run
/// on `pool`, a single worker owned here.
struct Serving {
  std::unique_ptr<ltm::ThreadPool> pool;
  std::unique_ptr<ltm::ext::StreamingPipeline> pipeline;
  std::unique_ptr<ltm::serve::ServeSession> session;
};

/// BootstrapFromStore + ServeSession. `refit_debounce_epochs` 0 disables
/// background refits.
ltm::Result<Serving> StartServing(ltm::store::TruthStoreBase* store,
                                  const ltm::LtmOptions& ltm,
                                  uint64_t refit_debounce_epochs);

/// The paper-scale world served from one TruthStore.
struct Deployment {
  World world;
  /// Rows held back from the store (empty unless set up with a feed).
  ltm::Dataset feed;
  std::unique_ptr<ltm::store::TruthStore> store;
  Serving serving;
};

/// Sets up a Deployment `reps` times (the last one is kept) and returns
/// each repetition's seconds: world generation, a load of the store in
/// `commits` group commits, and the bootstrap fit. With `hold_back_feed`
/// half the entities stay out of the store, in `feed`.
ltm::Result<std::vector<double>> SetUpDeployment(
    const Args& args, int reps, bool hold_back_feed, size_t commits,
    uint64_t refit_debounce_epochs, SpanLog* log, Deployment* d);

/// `count` facts of distinct entities, drawn from `facts` by `seed`.
std::vector<ltm::serve::FactRef> DistinctEntitySample(
    const std::vector<ltm::serve::FactRef>& facts, size_t count,
    uint64_t seed);

/// Output check: each served posterior in `sample` equals, bit for bit,
/// an independent Eq. 3 evaluation on a separate MaterializeEntityRange
/// of its entity under the installed quality. One operation per fact.
/// The store and quality must be quiescent.
void CheckServedPosteriors(const Serving& serving,
                           const std::vector<ltm::serve::FactRef>& sample,
                           Report* report);

/// AUC of served posteriors on the world's labeled sample.
ltm::Result<double> ServedAuc(const Serving& serving, const World& world);

/// fit_auc must stay at or above this. Recorded when the benchmark was
/// introduced: the lowest value over 70 seeds on any workload was 0.9917.
constexpr double kFitAucFloor = 0.98;

/// Traced probe of the serve path on a quiescent store: clears the
/// posterior cache, then for each fact (distinct entities, one thread)
/// times Query as `serve.query_miss` and replays its public sub-calls as
/// children (`store.pin`, `store.point_materialize`, `serve.score`),
/// checking the replay reproduces the served posterior bit for bit; then
/// times a repeat Query as `serve.query_hit`. Also times RefreshQuality
/// (`serve.quality_install`). Publishes the serve.* / store.pin /
/// store.point_materialize / store.blocks_per_read / block-cache / segment
/// skip metrics and trace.coverage.serve_miss.
/// `log` must be non-null.
void ServeProbe(const Serving& serving,
                const std::vector<ltm::serve::FactRef>& facts, SpanLog* log,
                Report* report);

/// Traced probe of the refit path on a quiescent store: times
/// RefitFromStore as `ext.refit`, replays it as `store.full_materialize`,
/// `data.fact_table`, `data.claim_graph` and `truth.gibbs`, and checks
/// the replayed source quality equals the installed one bit for bit.
/// Publishes ext.refit_us, store.full_materialize_us, data.*,
/// truth.gibbs_sweep_us and trace.coverage.refit. `log` must be non-null.
void RefitProbe(const Serving& serving, SpanLog* log, Report* report);

/// Publishes store.append/flush/compact p50s and trace.coverage.ingest
/// from the `ingest.cycle` spans in `spans`.
void PublishIngestSpans(const SpanLog& spans, Report* report);

/// Publishes gen.lateness_p99_us from per-send lateness samples (µs).
void PublishLateness(std::vector<double> lateness_us, Report* report);

/// Publishes trace.overhead: median latency of requests sent with tracing
/// on over the median with tracing off (minus one).
void PublishOverhead(std::vector<double> traced_us,
                     std::vector<double> untraced_us, Report* report);

/// Publishes store.compactions and store.compaction_bytes_per_row (the
/// bytes compaction wrote over the `rows` ingested).
void PublishCompaction(const ltm::store::CompactionStats& stats, uint64_t rows,
                       Report* report);

/// Publishes the ServeStats-derived ratios (hit ratio, coalescing, shed,
/// refit shed) from counter deltas between `before` and `after`.
void PublishServeCounters(const ltm::serve::ServeStats& before,
                          const ltm::serve::ServeStats& after,
                          Report* report);

/// Median of the setup repetitions, published as setup_s.
void PublishSetup(std::vector<double> setup_seconds, Report* report);

/// `name` under the run's directory, with anything left there removed.
std::string FreshDir(const Args& args, const std::string& name);

/// Logs a failed Status as a failed check; returns status.ok().
bool CheckOk(const ltm::Status& status, const std::string& what,
             Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
