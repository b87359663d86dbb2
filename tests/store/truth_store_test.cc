#include "store/truth_store.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "data/snapshot.h"
#include "test_util.h"
#include "truth/ltm.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

class TruthStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/truth_store_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { SetFailpointHandler(nullptr); }

  std::string Dir(const std::string& name) { return root_ + "/" + name; }

  /// Appends rows [from, to) of `raw` to the store, by string.
  static Status AppendRows(TruthStore* st, const RawDatabase& raw,
                           size_t from, size_t to) {
    for (size_t i = from; i < to && i < raw.NumRows(); ++i) {
      const RawRow& row = raw.rows()[i];
      WalRecord record;
      record.entity = std::string(raw.entities().Get(row.entity));
      record.attribute = std::string(raw.attributes().Get(row.attribute));
      record.source = std::string(raw.sources().Get(row.source));
      LTM_RETURN_IF_ERROR(st->Append(record));
    }
    return st->Sync();
  }

  static std::vector<double> LtmPosteriors(const Dataset& ds) {
    LtmOptions opts = LtmOptions::ScaledDefaults(ds.facts.NumFacts());
    opts.iterations = 40;
    opts.burnin = 10;
    opts.seed = 11;
    LatentTruthModel model(opts);
    return model.Score(ds.facts, ds.graph).probability;
  }

  std::string root_;
};

void ExpectSameClaimData(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.raw.rows(), b.raw.rows());
  EXPECT_EQ(a.raw.entities().strings(), b.raw.entities().strings());
  EXPECT_EQ(a.raw.attributes().strings(), b.raw.attributes().strings());
  EXPECT_EQ(a.raw.sources().strings(), b.raw.sources().strings());
  EXPECT_EQ(a.facts.facts(), b.facts.facts());
  EXPECT_EQ(a.graph.fact_offsets(), b.graph.fact_offsets());
  EXPECT_EQ(a.graph.fact_claims(), b.graph.fact_claims());
}

TEST_F(TruthStoreTest, OpenInitializesAnEmptyStore) {
  const std::string dir = Dir("empty");
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(fs::exists(dir + "/MANIFEST"));
  EXPECT_TRUE(fs::exists(dir + "/" + WalFileName(1)));
  TruthStoreStats stats = (*st)->Stats();
  EXPECT_EQ(stats.num_segments, 0u);
  EXPECT_EQ(stats.memtable_rows, 0u);
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->raw.NumRows(), 0u);

  // Reopening an initialized-but-empty store is a no-op.
  st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->Stats().num_segments, 0u);
}

TEST_F(TruthStoreTest, AppendsSurviveReopenWithoutFlush) {
  const std::string dir = Dir("wal_only");
  const RawDatabase raw = testing::PaperTable1();
  {
    auto st = TruthStore::Open(dir);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  }  // no Flush: everything lives in the WAL
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ((*st)->Stats().wal_records_replayed, raw.NumRows());
  EXPECT_EQ((*st)->Stats().memtable_rows, raw.NumRows());
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(Dataset::FromRaw("batch", testing::PaperTable1()), *ds);
}

TEST_F(TruthStoreTest, MaterializeMatchesBatchThroughFlushAndCompact) {
  const std::string dir = Dir("flush_compact");
  const RawDatabase raw = testing::RandomRaw(5);
  const Dataset batch = Dataset::FromRaw("batch", testing::RandomRaw(5));
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());

  const size_t n = raw.NumRows();
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 3).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, n / 3, 2 * n / 3).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 2 * n / 3, n).ok());

  EXPECT_EQ((*st)->Stats().num_segments, 2u);
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(batch, *ds);

  // Compaction merges the two segments and must not disturb row order.
  ASSERT_TRUE((*st)->Compact().ok());
  EXPECT_EQ((*st)->Stats().num_segments, 1u);
  ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(batch, *ds);

  // And the merged state round-trips a reopen.
  st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(batch, *ds);
}

// The acceptance pin: a dataset ingested as N WAL chunks, flushed,
// compacted, crashed at an arbitrary point (every failpoint a real kill
// could hit), and reopened yields BIT-IDENTICAL LTM posteriors to the
// same data loaded as one batch Dataset.
TEST_F(TruthStoreTest, PinnedPosteriorsBitIdenticalAfterCrashRecovery) {
  const RawDatabase raw = testing::RandomRaw(21);
  const size_t n = raw.NumRows();
  const std::vector<double> batch_posteriors =
      LtmPosteriors(Dataset::FromRaw("batch", testing::RandomRaw(21)));

  struct CrashCase {
    const char* point;    // failpoint substring to crash at
    bool during_compact;  // else during the third flush
  };
  const std::vector<CrashCase> cases = {
      {"store-flush-segment-written", false},
      {"store-flush-wal-rotated", false},
      {"MANIFEST", false},  // flush's manifest commit, pre-rename
      {"store-compact-segment-written", true},
      {"MANIFEST", true},  // compaction's manifest commit, pre-rename
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("crash case " + std::to_string(c) + " at " +
                 cases[c].point);
    const std::string dir = Dir("crash_" + std::to_string(c));
    {
      auto st = TruthStore::Open(dir);
      ASSERT_TRUE(st.ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 4).ok());
      ASSERT_TRUE((*st)->Flush().ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, n / 4, n / 2).ok());
      ASSERT_TRUE((*st)->Flush().ok());
      ASSERT_TRUE(AppendRows(st->get(), raw, n / 2, 3 * n / 4).ok());

      const std::string point = cases[c].point;
      ScopedFailpoint crash([point](std::string_view at) {
        return at.find(point) != std::string_view::npos
                   ? Status::Internal("injected crash at " + std::string(at))
                   : Status::OK();
      });
      const Status st_op =
          cases[c].during_compact ? (*st)->Compact() : (*st)->Flush();
      ASSERT_FALSE(st_op.ok());
      // The store object is discarded here without any cleanup — the
      // directory is exactly what a SIGKILL at the failpoint leaves.
    }
    auto st = TruthStore::Open(dir);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ASSERT_TRUE(AppendRows(st->get(), raw, 3 * n / 4, n).ok());
    auto ds = (*st)->Materialize();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
    // A verify pass after recovery sees a consistent store.
    auto report = TruthStore::Verify(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  // Control: the uninterrupted chunked path with a final compaction.
  const std::string dir = Dir("clean");
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 2).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, n / 2, n).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE((*st)->Compact().ok());
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(LtmPosteriors(*ds), batch_posteriors);
}

TEST_F(TruthStoreTest, TornWalTailIsTruncatedAndAppendsResume) {
  const std::string dir = Dir("torn");
  const RawDatabase raw = testing::PaperTable1();
  {
    auto st = TruthStore::Open(dir);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  }
  // Tear the last few bytes off the WAL, as a crash mid-write would.
  const std::string wal_path = dir + "/" + WalFileName(1);
  const auto size = fs::file_size(wal_path);
  fs::resize_file(wal_path, size - 5);

  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE((*st)->Stats().recovered_torn_tail);
  EXPECT_EQ((*st)->Stats().memtable_rows, raw.NumRows() - 1);

  // The torn record's row can be re-appended and everything works.
  ASSERT_TRUE(AppendRows(st->get(), raw, raw.NumRows() - 1, raw.NumRows())
                  .ok());
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(Dataset::FromRaw("batch", testing::PaperTable1()), *ds);
}

// Regression: a crash during the very first Open can leave a torn WAL
// header with no manifest; the next Open must recover (nothing was ever
// acknowledged), not refuse forever.
TEST_F(TruthStoreTest, FreshOpenRecoversFromATornInitialWal) {
  const std::string dir = Dir("torn_init");
  fs::create_directories(dir);
  std::ofstream(dir + "/" + WalFileName(1), std::ios::binary) << "LT";
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE((*st)->Append(WalRecord{"e", "a", "s", 1}).ok());
  ASSERT_TRUE((*st)->Sync().ok());
  auto reopened = TruthStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Stats().memtable_rows, 1u);
}

// Losing only the MANIFEST must not silently re-initialize the store —
// that would reap the surviving segments/WAL as orphans and destroy
// committed data.
TEST_F(TruthStoreTest, RefusesToReinitializeOverDataWithALostManifest) {
  const std::string dir = Dir("lost_manifest");
  const RawDatabase raw = testing::PaperTable1();
  {
    auto st = TruthStore::Open(dir);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, 4).ok());
    ASSERT_TRUE((*st)->Flush().ok());
  }
  fs::remove(dir + "/MANIFEST");
  auto reopened = TruthStore::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fs::exists(dir + "/" + SegmentFileName(1)));  // data intact

  // Same protection for a WAL that holds acknowledged records.
  const std::string dir2 = Dir("lost_manifest_wal");
  {
    auto st = TruthStore::Open(dir2);
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(AppendRows(st->get(), raw, 0, raw.NumRows()).ok());
  }
  fs::remove(dir2 + "/MANIFEST");
  reopened = TruthStore::Open(dir2);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fs::exists(dir2 + "/" + WalFileName(1)));
}

TEST_F(TruthStoreTest, ZoneStatsSkipSegmentsOutsideTheEntityRange) {
  const std::string dir = Dir("zones");
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  // Segment 1 covers entities a*/b*, segment 2 covers x*/y*.
  for (const char* e : {"apple", "banana"}) {
    ASSERT_TRUE(
        (*st)->Append(WalRecord{e, "attr1", "s1", 1}).ok());
    ASSERT_TRUE(
        (*st)->Append(WalRecord{e, "attr2", "s2", 1}).ok());
  }
  ASSERT_TRUE((*st)->Flush().ok());
  for (const char* e : {"xylophone", "yak"}) {
    ASSERT_TRUE(
        (*st)->Append(WalRecord{e, "attr1", "s1", 1}).ok());
  }
  ASSERT_TRUE((*st)->Flush().ok());

  RangeScanStats stats;
  auto ds = (*st)->MaterializeEntityRange("x", "z", &stats);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(stats.segments_skipped, 1u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(ds->raw.NumEntities(), 2u);
  EXPECT_TRUE(ds->raw.entities().Find("xylophone").has_value());
  EXPECT_FALSE(ds->raw.entities().Find("apple").has_value());

  stats = RangeScanStats();
  ds = (*st)->MaterializeEntityRange("apple", "apple", &stats);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(stats.segments_skipped, 1u);
  EXPECT_EQ(ds->raw.NumEntities(), 1u);
  EXPECT_EQ(ds->raw.NumRows(), 2u);
}

TEST_F(TruthStoreTest, EpochAdvancesOnAppendFlushAndCompact) {
  const std::string dir = Dir("epoch");
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  const uint64_t e0 = (*st)->epoch();
  ASSERT_TRUE((*st)->Append(WalRecord{"e", "a", "s", 1}).ok());
  const uint64_t e1 = (*st)->epoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE((*st)->Flush().ok());
  const uint64_t e2 = (*st)->epoch();
  EXPECT_GT(e2, e1);
  ASSERT_TRUE((*st)->Append(WalRecord{"e2", "a", "s", 1}).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE((*st)->Compact().ok());
  EXPECT_GT((*st)->epoch(), e2);
}

TEST_F(TruthStoreTest, RejectsExplicitNegativeObservations) {
  auto st = TruthStore::Open(Dir("negobs"));
  ASSERT_TRUE(st.ok());
  Status s = (*st)->Append(WalRecord{"e", "a", "s", 0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TruthStoreTest, VerifyReportsHealthAndFlagsOrphans) {
  const std::string dir = Dir("verify");
  const RawDatabase raw = testing::PaperTable1();
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, 4).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 4, raw.NumRows()).ok());

  auto report = TruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->segments, 1u);
  EXPECT_EQ(report->segment_rows, 4u);
  EXPECT_EQ(report->wal_records, raw.NumRows() - 4);
  EXPECT_TRUE(report->orphan_files.empty());
  EXPECT_NE(report->Summary().find("1 segment(s)"), std::string::npos);

  // A stray segment file (interrupted flush dropping) is reported...
  std::ofstream(dir + "/" + SegmentFileName(99)) << "junk";
  report = TruthStore::Verify(dir);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->orphan_files.size(), 1u);
  EXPECT_EQ(report->orphan_files[0], SegmentFileName(99));

  // ...and removed by the next Open.
  st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(fs::exists(dir + "/" + SegmentFileName(99)));

  // Corrupting a committed segment makes Verify fail loudly.
  {
    std::fstream f(dir + "/" + SegmentFileName(1),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('\x7f');
  }
  auto bad = TruthStore::Verify(dir);
  ASSERT_FALSE(bad.ok());
}

TEST_F(TruthStoreTest, ConcurrentAppendsDuringBackgroundCompaction) {
  const std::string dir = Dir("concurrent");
  const RawDatabase raw = testing::RandomRaw(33);
  const size_t n = raw.NumRows();
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, n / 3).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, n / 3, 2 * n / 3).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  ThreadPool pool(2);
  std::shared_future<Status> compaction =
      pool.SubmitWithStatus([&] { return (*st)->Compact(); });
  // Appends proceed while the merge runs on the pool.
  ASSERT_TRUE(AppendRows(st->get(), raw, 2 * n / 3, n).ok());
  ASSERT_TRUE(compaction.get().ok()) << compaction.get().ToString();

  EXPECT_EQ((*st)->Stats().num_segments, 1u);
  auto ds = (*st)->Materialize();
  ASSERT_TRUE(ds.ok());
  ExpectSameClaimData(Dataset::FromRaw("batch", testing::RandomRaw(33)), *ds);
  auto report = TruthStore::Verify(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(TruthStoreTest, CompactRejectsASecondConcurrentCompaction) {
  const std::string dir = Dir("double_compact");
  const RawDatabase raw = testing::PaperTable1();
  auto st = TruthStore::Open(dir);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 0, 4).ok());
  ASSERT_TRUE((*st)->Flush().ok());
  ASSERT_TRUE(AppendRows(st->get(), raw, 4, raw.NumRows()).ok());
  ASSERT_TRUE((*st)->Flush().ok());

  // Block the first compaction at its failpoint until released, so the
  // second Compact deterministically observes it in flight.
  std::mutex mu;
  std::condition_variable cv;
  bool reached = false;
  bool release = false;
  SetFailpointHandler([&](std::string_view point) {
    if (point == "store-compact-segment-written") {
      std::unique_lock<std::mutex> lock(mu);
      reached = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return Status::OK();
  });

  ThreadPool pool(2);
  const auto compact = [&] { return (*st)->Compact(); };
  std::shared_future<Status> first = pool.SubmitWithStatus(compact);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return reached; });
  }
  std::shared_future<Status> second = pool.SubmitWithStatus(compact);
  EXPECT_EQ(second.get().code(), StatusCode::kFailedPrecondition);
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  EXPECT_TRUE(first.get().ok()) << first.get().ToString();
  SetFailpointHandler(nullptr);

  // With the first one done, compaction is available again (a no-op now —
  // one segment left).
  EXPECT_TRUE(pool.SubmitWithStatus(compact).get().ok());
}

}  // namespace
}  // namespace store
}  // namespace ltm
