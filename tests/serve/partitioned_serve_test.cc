#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "ext/streaming.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"
#include "test_util.h"
#include "truth/ltm.h"

namespace ltm {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Serving against an entity-range partitioned store. The boundaries
/// "g" / "p" carve three partitions; the fixture's claim table spreads
/// entities across all of them so every query path crosses the router.
class ServeSessionPartitionedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/partitioned_serve_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
    raw_ = FruitBasket();
  }

  /// Entities in all three ranges: [-inf,g), [g,p), [p,+inf). Ingested
  /// deliberately OUT of lexicographic order, so a range read that
  /// merely concatenates materialization (= ingest) order is caught.
  static RawDatabase FruitBasket() {
    RawDatabase raw;
    for (const char* e : {"zucchini", "grape", "apple", "peach", "banana",
                          "kiwi", "fig", "plum", "mango"}) {
      raw.Add(e, std::string(e) + "-color", "s1");
      raw.Add(e, std::string(e) + "-color", "s2");
      raw.Add(e, std::string(e) + "-size", "s2");
      raw.Add(e, std::string(e) + "-size", "s3");
    }
    return raw;
  }

  ext::StreamingOptions Options() {
    ext::StreamingOptions options;
    options.ltm = LtmOptions::ScaledDefaults(raw_.NumRows());
    options.ltm.iterations = 40;
    options.ltm.burnin = 10;
    options.ltm.seed = 5;
    options.ltm.threads = 1;
    options.refit_every_chunks = 0;
    return options;
  }

  /// Opens a 3-way partitioned store at `name`, ingests raw_, and
  /// bootstraps a pipeline + session over it. CompactOnce() splits a
  /// partition past `split_threshold_rows` (0 never splits).
  void BootstrapPartitioned(uint64_t split_threshold_rows = 0) {
    store::PartitionedStoreOptions opts;
    opts.partitions = 3;
    opts.initial_boundaries = {"g", "p"};
    opts.split_threshold_rows = split_threshold_rows;
    auto store = store::PartitionedTruthStore::Open(root_ + "/parted", opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    ASSERT_TRUE(store_->AppendRaw(raw_).ok());
    ASSERT_TRUE(store_->Flush().ok());
    pipeline_ = std::make_unique<ext::StreamingPipeline>(Options());
    ASSERT_TRUE(pipeline_->BootstrapFromStore(store_.get()).ok());
    auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);
  }

  std::string root_;
  RawDatabase raw_;
  std::unique_ptr<store::PartitionedTruthStore> store_;
  std::unique_ptr<ext::StreamingPipeline> pipeline_;
  std::unique_ptr<ServeSession> session_;
};

// Regression for the cross-partition range read: materialization visits
// partitions in range order but rows within each in ingest order; the
// API contract is GLOBAL lexicographic entity order. The queried range
// straddles both partition boundaries.
TEST_F(ServeSessionPartitionedTest, QueryEntityRangeGloballyOrdered) {
  BootstrapPartitioned();
  ASSERT_EQ(store_->num_partitions(), 3u);

  auto served = session_->QueryEntityRange("banana", "plum");
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // Everything in [banana, plum] and nothing else — entities from all
  // three partitions.
  std::vector<std::string> expected = {"banana", "fig",   "grape", "kiwi",
                                       "mango",  "peach", "plum"};
  std::vector<std::string> got_entities;
  for (const ServedFact& fact : *served) {
    if (got_entities.empty() || got_entities.back() != fact.entity) {
      got_entities.push_back(fact.entity);
    }
  }
  EXPECT_EQ(got_entities, expected);  // sorted AND deduplicated-adjacent
  ASSERT_EQ(served->size(), expected.size() * 2);  // two attributes each
  for (size_t i = 1; i < served->size(); ++i) {
    EXPECT_LE((*served)[i - 1].entity, (*served)[i].entity)
        << "out of order at " << i;
  }

  // Range posteriors agree with point reads (which route one partition).
  for (const ServedFact& fact : *served) {
    auto point = session_->Query({fact.entity, fact.attribute});
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(*point, fact.posterior) << fact.entity << "/" << fact.attribute;
  }
}

// Point queries through the router serve the same bits a single-store
// session serves for identical data — partitioning is invisible to the
// serving surface.
TEST_F(ServeSessionPartitionedTest, QueriesMatchSingleStoreSession) {
  BootstrapPartitioned();

  auto single = store::TruthStore::Open(root_ + "/single");
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE((*single)->AppendRaw(raw_).ok());
  ASSERT_TRUE((*single)->Flush().ok());
  ext::StreamingPipeline single_pipeline(Options());
  ASSERT_TRUE(single_pipeline.BootstrapFromStore(single->get()).ok());
  auto single_session =
      ServeSession::Create(&single_pipeline, ServeOptions());
  ASSERT_TRUE(single_session.ok());

  for (const char* e : {"apple", "grape", "mango", "zucchini"}) {
    const FactRef ref{e, std::string(e) + "-color"};
    auto parted = session_->Query(ref);
    auto plain = (*single_session)->Query(ref);
    ASSERT_TRUE(parted.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(*parted, *plain) << e;  // bit-identical
  }
}

// AcquireSnapshot pins every partition at one consistent vector epoch:
// reads stay frozen while appends land in other partitions.
TEST_F(ServeSessionPartitionedTest, SnapshotPinsAllPartitionsConsistently) {
  BootstrapPartitioned();

  std::vector<FactRef> probes = {{"apple", "apple-color"},
                                 {"kiwi", "kiwi-size"},
                                 {"zucchini", "zucchini-color"}};
  const auto snapshot = session_->AcquireSnapshot();
  const uint64_t pinned_epoch = snapshot->epoch();
  auto baseline = snapshot->QueryBatch(probes);
  ASSERT_TRUE(baseline.ok());

  // New evidence in every partition advances the composite epoch...
  RawDatabase more;
  more.Add("avocado", "avocado-color", "s1");
  more.Add("lime", "lime-color", "s1");
  more.Add("tomato", "tomato-color", "s1");
  ASSERT_TRUE(store_->AppendRaw(more).ok());
  ASSERT_TRUE(store_->Flush().ok());
  EXPECT_GT(store_->epoch(), pinned_epoch);

  // ...but the pinned view is bit-stable.
  EXPECT_EQ(snapshot->epoch(), pinned_epoch);
  auto again = snapshot->QueryBatch(probes);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *baseline);
}

// The session owns one posterior cache however many partitions the
// store has: one miss and one hit count once each, and the capacity —
// in Stats() and in the exposition — is the session's full budget, also
// after a split changes the layout.
TEST_F(ServeSessionPartitionedTest, OneCacheCountsEachLookupOnce) {
  BootstrapPartitioned(/*split_threshold_rows=*/10);
  ASSERT_EQ(store_->num_partitions(), 3u);
  const obs::MetricsRegistry* registry = store_->metrics();
  const FactRef probe{"kiwi", "kiwi-color"};

  ASSERT_TRUE(session_->Query(probe).ok());  // miss
  ASSERT_TRUE(session_->Query(probe).ok());  // hit
  CacheStats cache = session_->Stats().cache;
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.puts, 2u);  // the slice's two facts
  EXPECT_EQ(cache.capacity, ServeSession::kPosteriorCacheCapacity);
  EXPECT_EQ(cache.capacity, 4096u);
  EXPECT_EQ(registry->CounterValue("ltm_cache_posterior_hits_total"), 1u);
  EXPECT_EQ(registry->CounterValue("ltm_cache_posterior_misses_total"), 1u);
  EXPECT_EQ(registry->GaugeValue("ltm_cache_posterior_capacity"), 4096);

  // Every partition holds 12 rows, past the threshold: one split.
  auto compacted = store_->CompactOnce();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ASSERT_EQ(store_->num_partitions(), 4u);
  ASSERT_TRUE(session_->Query(probe).ok());  // the split advanced the epoch
  ASSERT_TRUE(session_->Query(probe).ok());
  cache = session_->Stats().cache;
  EXPECT_EQ(cache.hits, 2u);
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.capacity, 4096u);
  EXPECT_EQ(registry->GaugeValue("ltm_cache_posterior_capacity"), 4096);
}

// The refit debounce reads the composite epoch: a session over a store
// whose epoch equals the last fit's refits nothing without appends, and
// appends spread over every partition refit once their total passes the
// debounce (no single partition gets near it).
TEST_F(ServeSessionPartitionedTest, RefitDebouncesTheCompositeEpoch) {
  BootstrapPartitioned();
  ASSERT_EQ(store_->epoch(), pipeline_->last_fit_epoch());
  ThreadPool pool(1);
  ServeOptions options;
  options.refit_debounce_epochs = 5;
  auto refitting = ServeSession::Create(pipeline_.get(), options, &pool);
  ASSERT_TRUE(refitting.ok()) << refitting.status().ToString();
  ServeSession& session = **refitting;

  ASSERT_TRUE(session.Query({"apple", "apple-color"}).ok());
  ASSERT_TRUE(session.Query({"zucchini", "zucchini-size"}).ok());
  ASSERT_TRUE(session.NotifyIngest().ok());
  EXPECT_EQ(session.Stats().refit.scheduled, 0u);

  const uint64_t fit_epoch = pipeline_->last_fit_epoch();
  const char* entities[] = {"avocado", "lime", "tomato"};  // one per range
  for (int i = 0; store_->epoch() < fit_epoch + 5; ++i) {
    EXPECT_EQ(session.Stats().refit.scheduled, 0u)
        << "epoch " << store_->epoch();
    const std::string entity = entities[i % 3];
    store::WalRecord record;
    record.entity = entity;
    record.attribute = entity + "-color";
    record.source = "s" + std::to_string(i);
    ASSERT_TRUE(store_->Append(record).ok());
    ASSERT_TRUE(session.NotifyIngest().ok());
  }
  bool refitted = false;
  for (int i = 0; i < 500 && !refitted; ++i) {
    const RefitSchedulerStats refit = session.Stats().refit;
    refitted = refit.completed >= 1 && !refit.in_flight;
    if (!refitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(refitted);
  EXPECT_EQ(session.Stats().refit.scheduled, 1u);
  EXPECT_EQ(session.Stats().refit.completed, 1u);
  EXPECT_GE(pipeline_->last_fit_epoch(), fit_epoch + 5);
}

// The partitions spec key drives the serving store's layout end to end.
TEST_F(ServeSessionPartitionedTest, PartitionsSpecKeyCarvesTheStore) {
  auto options = ParseServeSpec("serve(partitions=3,block_cache_mb=4)");
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->partitions, 3u);

  store::PartitionedStoreOptions popts;
  popts.store = options->ApplyToStore(popts.store);
  popts.partitions = options->partitions;
  auto store = store::OpenTruthStoreAuto(root_ + "/spec", popts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_partitions(), 3u);

  EXPECT_NE(options->ToSpecString().find("partitions=3"), std::string::npos);
  EXPECT_FALSE(ParseServeSpec("serve(partitions=0)").ok());
  EXPECT_FALSE(ParseServeSpec("serve(partitions=257)").ok());
}

}  // namespace
}  // namespace serve
}  // namespace ltm
