// Oracle for the serve miss path: every served posterior must equal, bit
// for bit, the reference evaluation — ScoreSlice over a separate
// MaterializeEntityRange under BuildQualityLookup — on seeded random
// stores whose rows exercise every claim-order rule of ClaimTable:
// duplicate rows (inside the memtable, across a flush, and between a
// segment and the unflushed tail), sources that assert another attribute
// of the entity (negative claims), sources the installed fit never saw,
// and entities with several facts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ext/streaming.h"
#include "serve/fact_scoring.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "store/truth_store.h"
#include "truth/ltm.h"

namespace ltm {
namespace serve {
namespace {

namespace fs = std::filesystem;

constexpr size_t kEntities = 24;
constexpr size_t kSources = 8;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string Entity(size_t e) { return "e" + std::to_string(e); }

/// One random claim row: an entity, one of its (up to four) attribute
/// values, and a source.
store::WalRecord RandomRecord(Rng& rng, const std::string& source) {
  const size_t e = rng.UniformInt(kEntities);
  return store::WalRecord{Entity(e),
                          "a" + std::to_string(e * 10 + rng.UniformInt(4)),
                          source, 1};
}

class RowScorerOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/row_scorer_oracle_test_" +
            std::to_string(GetParam());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  /// Opens an N=1 TruthStore or an N=3 PartitionedTruthStore (boundaries
  /// split the "e<k>" keyspace three ways) under `name`.
  std::unique_ptr<store::TruthStoreBase> OpenStore(const std::string& name) {
    if (GetParam() == 1) {
      auto st = store::TruthStore::Open(root_ + "/" + name);
      EXPECT_TRUE(st.ok()) << st.status().ToString();
      return st.ok() ? std::move(*st) : nullptr;
    }
    store::PartitionedStoreOptions opts;
    opts.partitions = 3;
    opts.initial_boundaries = {"e16", "e4"};
    auto st = store::PartitionedTruthStore::Open(root_ + "/" + name, opts);
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    return st.ok() ? std::move(*st) : nullptr;
  }

  /// Loads a seeded history, fits on it, then appends (bypassing the
  /// pipeline, so the fit never sees them) duplicates and rows from
  /// fresh sources: a duplicate pair inside the memtable, re-appends of
  /// flushed rows, a flush, then re-appends of the second segment's rows
  /// into the unflushed tail.
  void Build(uint64_t seed) {
    store_ = OpenStore("store-" + std::to_string(seed));
    ASSERT_NE(store_, nullptr);
    Rng rng(seed);
    std::vector<store::WalRecord> history;
    for (size_t i = 0; i < 160; ++i) {
      history.push_back(
          RandomRecord(rng, "s" + std::to_string(rng.UniformInt(kSources))));
    }
    for (const store::WalRecord& r : history) {
      ASSERT_TRUE(store_->Append(r).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());

    ext::StreamingOptions options;
    options.ltm = LtmOptions::ScaledDefaults(history.size());
    options.ltm.iterations = 30;
    options.ltm.burnin = 10;
    options.ltm.seed = seed;
    options.ltm.threads = 1;
    options.refit_every_chunks = 0;
    pipeline_ = std::make_unique<ext::StreamingPipeline>(options);
    ASSERT_TRUE(pipeline_->BootstrapFromStore(store_.get()).ok());
    auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);

    std::vector<store::WalRecord> second;
    for (size_t i = 0; i < 60; ++i) {
      const size_t pick = rng.UniformInt(3);
      if (pick == 0) {
        second.push_back(history[rng.UniformInt(history.size())]);
      } else {
        const std::string source = pick == 1
                                       ? "fresh" + std::to_string(i % 3)
                                       : "s" + std::to_string(i % kSources);
        second.push_back(RandomRecord(rng, source));
      }
      if (i % 7 == 0) second.push_back(second.back());  // memtable dup
    }
    for (const store::WalRecord& r : second) {
      ASSERT_TRUE(store_->Append(r).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(store_->Append(second[rng.UniformInt(second.size())]).ok());
      ASSERT_TRUE(
          store_->Append(RandomRecord(rng, "fresh" + std::to_string(i % 2)))
              .ok());
    }
    lookup_ = BuildQualityLookup(pipeline_->quality(),
                                 pipeline_->cumulative_sources(),
                                 pipeline_->options().ltm);
  }

  /// The reference: ScoreSlice over MaterializeEntityRange(lo, hi), in
  /// served range order (lexicographic entity, ingest order within one).
  std::vector<ServedFact> Reference(const std::string& lo,
                                    const std::string& hi) {
    auto slice = store_->MaterializeEntityRange(lo, hi);
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    std::vector<ServedFact> out;
    if (!slice.ok() || slice->facts.NumFacts() == 0) return out;
    auto probs =
        ScoreSlice(*slice, lookup_, pipeline_->options().ltm, RunContext());
    EXPECT_TRUE(probs.ok()) << probs.status().ToString();
    if (!probs.ok()) return out;
    for (FactId f = 0; f < slice->facts.NumFacts(); ++f) {
      const Fact& fact = slice->facts.fact(f);
      out.push_back({std::string(slice->raw.entities().Get(fact.entity)),
                     std::string(slice->raw.attributes().Get(fact.attribute)),
                     (*probs)[f]});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ServedFact& a, const ServedFact& b) {
                       return a.entity < b.entity;
                     });
    return out;
  }

  void ExpectSameFacts(const std::vector<ServedFact>& got,
                       const std::vector<ServedFact>& want,
                       const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].entity, want[i].entity) << what << " #" << i;
      EXPECT_EQ(got[i].attribute, want[i].attribute) << what << " #" << i;
      EXPECT_TRUE(SameBits(got[i].posterior, want[i].posterior))
          << what << " " << want[i].entity << "/" << want[i].attribute
          << ": served " << got[i].posterior << ", reference "
          << want[i].posterior;
    }
  }

  std::string root_;
  std::unique_ptr<store::TruthStoreBase> store_;
  std::unique_ptr<ext::StreamingPipeline> pipeline_;
  std::unique_ptr<ServeSession> session_;
  QualityLookup lookup_;
};

TEST_P(RowScorerOracleTest, ServedPosteriorsMatchScoreSliceBitForBit) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Build(seed);
    ASSERT_FALSE(HasFatalFailure());
    size_t facts = 0, multi_fact_entities = 0, fresh_claims = 0;
    for (size_t e = 0; e < kEntities; ++e) {
      const std::string entity = Entity(e);
      const std::vector<ServedFact> want = Reference(entity, entity);
      facts += want.size();
      if (want.size() > 1) ++multi_fact_entities;

      // Every served path, each from a cold posterior cache so the miss
      // path does the scoring: a refresh reinstalls the same quality
      // under a new version key and clears the session's cache.
      ASSERT_TRUE(session_->RefreshQuality().ok());
      auto range = session_->QueryEntityRange(entity, entity);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      ExpectSameFacts(*range, want, "QueryEntityRange(" + entity + ")");
      for (const ServedFact& fact : want) {
        ASSERT_TRUE(session_->RefreshQuality().ok());
        auto point = session_->Query({fact.entity, fact.attribute});
        ASSERT_TRUE(point.ok()) << point.status().ToString();
        EXPECT_TRUE(SameBits(*point, fact.posterior))
            << "Query " << fact.entity << "/" << fact.attribute;
        ASSERT_TRUE(session_->RefreshQuality().ok());
        auto snapshot = session_->AcquireSnapshot();
        auto pinned = snapshot->Query({fact.entity, fact.attribute});
        ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
        EXPECT_TRUE(SameBits(*pinned, fact.posterior))
            << "ServeSnapshot::Query " << fact.entity << "/" << fact.attribute;
      }
      // A fact the entity lacks scores at the no-claim prior.
      ASSERT_TRUE(session_->RefreshQuality().ok());
      auto absent = session_->Query({entity, "no-such-attribute"});
      ASSERT_TRUE(absent.ok());
      EXPECT_TRUE(SameBits(*absent, lookup_.no_claim_prior));
    }
    // One range over every entity: sources are interned across the whole
    // range, so this pins the cross-entity first-appearance order too.
    ASSERT_TRUE(session_->RefreshQuality().ok());
    auto all = session_->QueryEntityRange("", "~");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ExpectSameFacts(*all, Reference("", "~"), "QueryEntityRange(all)");
    auto full = store_->Materialize();
    ASSERT_TRUE(full.ok());
    for (SourceId s = 0; s < full->raw.NumSources(); ++s) {
      if (full->raw.sources().Get(s).starts_with("fresh")) ++fresh_claims;
    }
    // The data must reach every case the oracle is meant to cover.
    EXPECT_GT(facts, kEntities);
    EXPECT_GT(multi_fact_entities, kEntities / 2);
    EXPECT_GT(fresh_claims, 0u);
    EXPECT_GT(full->graph.NumClaims(), full->graph.NumPositiveClaims());
    session_.reset();
    pipeline_.reset();
    store_.reset();
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, RowScorerOracleTest,
                         ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "N" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace serve
}  // namespace ltm
