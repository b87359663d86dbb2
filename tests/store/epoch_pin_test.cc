#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "store/truth_store.h"
#include "test_util.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

/// The raw triples of a materialization, in replay order — the identity
/// pinned reads must preserve.
std::vector<std::tuple<std::string, std::string, std::string>> Triples(
    const Dataset& ds) {
  std::vector<std::tuple<std::string, std::string, std::string>> out;
  for (const RawRow& row : ds.raw.rows()) {
    out.emplace_back(std::string(ds.raw.entities().Get(row.entity)),
                     std::string(ds.raw.attributes().Get(row.attribute)),
                     std::string(ds.raw.sources().Get(row.source)));
  }
  return out;
}

class EpochPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/epoch_pin_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    world_ = Dataset::FromRaw("world", testing::RandomRaw(23));
    std::vector<EntityId> first_half;
    for (EntityId e = 0; e < world_.raw.NumEntities() / 2; ++e) {
      first_half.push_back(e);
    }
    auto [rest, base] = world_.SplitByEntities(first_half);
    base_ = std::move(base);
    extra_ = std::move(rest);
  }

  std::string dir_;
  Dataset world_;
  Dataset base_;
  Dataset extra_;
};

TEST_F(EpochPinTest, MaterializeSnapshotMatchesMaterializeAtCapture) {
  auto store = TruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendDataset(base_).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->AppendDataset(extra_).ok());  // memtable rows too

  uint64_t epoch = 0;
  auto at_capture = (*store)->Materialize(&epoch);
  ASSERT_TRUE(at_capture.ok());

  const auto pin = (*store)->PinEpoch();
  EXPECT_EQ(pin->epoch(), epoch);
  EXPECT_EQ((*store)->num_pinned_epochs(), 1u);
  EXPECT_EQ((*store)->Stats().live_pins, 1u);

  // The store moves on; the pin must not.
  ASSERT_TRUE((*store)->AppendDataset(world_).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_GT((*store)->epoch(), epoch);

  auto pinned = (*store)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(Triples(*pinned), Triples(*at_capture));

  // A bounded read through the same pin re-filters to the bounds.
  const std::string entity =
      std::string(base_.raw.entities().Get(0));
  auto bounded = (*store)->MaterializeSnapshot(*pin, &entity, &entity);
  ASSERT_TRUE(bounded.ok());
  for (const auto& [e, a, s] : Triples(*bounded)) {
    EXPECT_EQ(e, entity);
  }
}

TEST_F(EpochPinTest, PinSurvivesCompactionAndFlush) {
  auto store = TruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  // Two segments so compaction has something to merge.
  ASSERT_TRUE((*store)->AppendDataset(base_).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->AppendDataset(extra_).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  const auto pin = (*store)->PinEpoch();
  auto baseline = (*store)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::string> pinned_files;
  for (const SegmentInfo& seg : pin->segments()) {
    pinned_files.push_back(dir_ + "/" + SegmentFileName(seg.id));
    ASSERT_TRUE(fs::exists(pinned_files.back()));
  }
  ASSERT_EQ(pinned_files.size(), 2u);

  // Compaction supersedes both pinned segments; their files must be
  // retained (deferred), not deleted, while the pin lives.
  ASSERT_TRUE((*store)->AppendDataset(world_).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ((*store)->num_deferred_segments(), pinned_files.size());
  EXPECT_EQ((*store)->Stats().deferred_segments, pinned_files.size());
  for (const std::string& path : pinned_files) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }

  // The pinned view is unchanged — same triples in the same order.
  auto reread = (*store)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(Triples(*reread), Triples(*baseline));
}

TEST_F(EpochPinTest, DroppingLastPinReclaimsDeferredSegments) {
  auto store = TruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendDataset(base_).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->AppendDataset(extra_).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  std::vector<std::string> pinned_files;
  {
    const auto outer = (*store)->PinEpoch();
    {
      // A second pin over the same segments: the refcount, not pin
      // count, must gate reclamation.
      const auto inner = (*store)->PinEpoch();
      EXPECT_EQ((*store)->num_pinned_epochs(), 2u);
      for (const SegmentInfo& seg : inner->segments()) {
        pinned_files.push_back(dir_ + "/" + SegmentFileName(seg.id));
      }
      ASSERT_TRUE((*store)->Compact().ok());
      EXPECT_GT((*store)->num_deferred_segments(), 0u);
    }
    // Inner pin dropped; the outer pin still holds every file.
    EXPECT_GT((*store)->num_deferred_segments(), 0u);
    for (const std::string& path : pinned_files) {
      EXPECT_TRUE(fs::exists(path)) << path;
    }
    auto pinned = (*store)->MaterializeSnapshot(*outer);
    ASSERT_TRUE(pinned.ok());
  }
  // Last pin dropped: deferred files are reclaimed.
  EXPECT_EQ((*store)->num_pinned_epochs(), 0u);
  EXPECT_EQ((*store)->num_deferred_segments(), 0u);
  for (const std::string& path : pinned_files) {
    EXPECT_FALSE(fs::exists(path)) << path;
  }
}

TEST_F(EpochPinTest, FailpointDuringPinnedReadSurfacesAndRecovers) {
  {
    auto store = TruthStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendDataset(base_).ok());
    ASSERT_TRUE((*store)->Flush().ok());

    const auto pin = (*store)->PinEpoch();
    {
      ScopedFailpoint fp([](std::string_view at) -> Status {
        if (at == "store-pinned-read") {
          return Status::Internal("injected pinned-read failure");
        }
        return Status::OK();
      });
      auto failed = (*store)->MaterializeSnapshot(*pin);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    }
    // The failure left no partial state: the same pin reads fine, and
    // the pin still releases cleanly below.
    auto retried = (*store)->MaterializeSnapshot(*pin);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried->raw.NumRows(), base_.raw.NumRows());
  }  // pin and store torn down with the failpoint long gone

  // A reopened store recovers cleanly — no orphan or missing files.
  auto verify = TruthStore::Verify(dir_);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_TRUE(verify->orphan_files.empty());
  auto reopened = TruthStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto ds = (*reopened)->Materialize();
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->raw.NumRows(), base_.raw.NumRows());
}

// TSan-covered: pinned readers race an appender, a flusher, and
// compactions; every read through the pin must see exactly the pinned
// triples, and no reader ever blocks the writers out of making progress.
TEST_F(EpochPinTest, ConcurrentPinnedReadsSeeFrozenStateUnderWriters) {
  auto store = TruthStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendDataset(base_).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  const auto pin = (*store)->PinEpoch();
  auto baseline = (*store)->MaterializeSnapshot(*pin);
  ASSERT_TRUE(baseline.ok());
  const auto expect = Triples(*baseline);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        auto ds = (*store)->MaterializeSnapshot(*pin);
        if (!ds.ok() || Triples(*ds) != expect) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  std::thread writer([&]() {
    const std::vector<RawRow>& rows = extra_.raw.rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      RawDatabase one;
      one.Add(extra_.raw.entities().Get(rows[i].entity),
              extra_.raw.attributes().Get(rows[i].attribute),
              extra_.raw.sources().Get(rows[i].source));
      if (!(*store)->AppendRaw(one).ok()) return;
      if (i % 8 == 7 && !(*store)->Flush().ok()) return;
      if (i % 24 == 23 && !(*store)->Compact().ok()) return;
    }
  });
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // Writers made it all the way through while readers held the pin.
  auto after = (*store)->Materialize();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->raw.NumRows(), base_.raw.NumRows() + extra_.raw.NumRows());
}

}  // namespace
}  // namespace store
}  // namespace ltm
