#include "store/segment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/truth_store.h"
#include "test_util.h"

namespace ltm {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rows over `num_entities` shared-prefix entities x `attrs_per` attributes,
/// already in SegmentRowOrder (entity, attribute, seq).
std::vector<SegmentRow> MakeRows(size_t num_entities, size_t attrs_per,
                                 uint64_t first_seq = 1) {
  std::vector<SegmentRow> rows;
  uint64_t seq = first_seq;
  for (size_t e = 0; e < num_entities; ++e) {
    char entity[32];
    std::snprintf(entity, sizeof(entity), "movie-%05zu", e);
    for (size_t a = 0; a < attrs_per; ++a) {
      SegmentRow row;
      row.entity = entity;
      row.attribute = "attr-" + std::to_string(a);
      row.source = "source-" + std::to_string((e + a) % 3);
      row.seq = seq++;
      row.observation = 1;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// A seeded random segment's rows in SegmentRowOrder: `num_entities`
/// shared-prefix entities with 1..24 rows each, so runs of one entity
/// cross restart points and block boundaries.
std::vector<SegmentRow> RandomSortedRows(uint64_t seed, size_t num_entities) {
  Rng rng(seed);
  std::vector<SegmentRow> rows;
  uint64_t seq = 1;
  for (size_t e = 0; e < num_entities; ++e) {
    char entity[32];
    std::snprintf(entity, sizeof(entity), "ent-%04zu", 3 * e + 1);
    const size_t n = 1 + rng.UniformInt(24);
    for (size_t r = 0; r < n; ++r) {
      SegmentRow row;
      row.entity = entity;
      row.attribute = "a" + std::to_string(r / 3);
      row.source = "s" + std::to_string(rng.UniformInt(6));
      row.seq = seq++;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), SegmentRowOrder);
  return rows;
}

/// A hand-built two-restart block whose second restart entry encodes
/// "apricot" as 2 bytes shared with "apple" + "ricot": a sequential
/// decoder accepts it, but a restart entry must store its whole entity.
std::string ForgedRestartBlock() {
  std::string block;
  const auto entry = [&](uint32_t shared, const std::string& unshared,
                         uint64_t seq) {
    PutVarint32(&block, shared);
    PutVarint32(&block, static_cast<uint32_t>(unshared.size()));
    block += unshared;
    PutVarint32(&block, 1);
    block += "a";
    PutVarint32(&block, 2);
    block += "s1";
    PutVarint64(&block, seq);
    block.push_back(1);
  };
  entry(0, "apple", 1);
  const uint32_t second = static_cast<uint32_t>(block.size());
  entry(2, "ricot", 2);
  for (const uint32_t v : {0u, second, 2u}) {
    block.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return block;
}

class BlockSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/block_segment_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(BlockSegmentTest, BlockBuilderRoundTripsAndPrefixCompresses) {
  const std::vector<SegmentRow> rows = MakeRows(40, 2);
  BlockBuilder builder(/*restart_interval=*/8);
  size_t raw_bytes = 0;
  for (const SegmentRow& row : rows) {
    builder.Add(row);
    raw_bytes += row.entity.size() + row.attribute.size() + row.source.size();
  }
  const std::string block = builder.Finish();

  // All 40 entities share the "movie-000" prefix; the restart encoding
  // must beat storing every key in full.
  EXPECT_LT(block.size(), raw_bytes);

  auto decoded = DecodeBlockRows(block, "test-block");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, rows);

  // Cursor iteration sees the same rows one at a time.
  auto cursor = BlockCursor::Parse(block);
  ASSERT_TRUE(cursor.ok());
  size_t i = 0;
  SegmentRow row;
  while (true) {
    auto more = cursor->Next(&row);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_LT(i, rows.size());
    EXPECT_EQ(row, rows[i]);
    ++i;
  }
  EXPECT_EQ(i, rows.size());
}

TEST_F(BlockSegmentTest, WriteThenParsePreservesRowsAndZoneStats) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3, /*first_seq=*/100);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;  // force a multi-block file
  const std::string path = Path("seg.blk");
  auto info = WriteBlockSegment(path, rows, options);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  EXPECT_EQ(info->num_rows, rows.size());
  EXPECT_EQ(info->num_facts, 64u * 3u);
  EXPECT_EQ(info->num_sources, 3u);
  EXPECT_EQ(info->num_positive, rows.size());
  EXPECT_EQ(info->min_entity, "movie-00000");
  EXPECT_EQ(info->max_entity, "movie-00063");
  EXPECT_EQ(info->min_seq, 100u);
  EXPECT_EQ(info->max_seq, 100u + rows.size() - 1);
  EXPECT_GT(info->num_blocks, 1u);
  EXPECT_EQ(info->file_bytes, fs::file_size(path));

  auto parsed = ParseBlockSegmentFromBytes(ReadFile(path), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rows, rows);
  EXPECT_EQ(parsed->footer.num_rows, rows.size());
  EXPECT_EQ(parsed->footer.num_blocks, info->num_blocks);
  EXPECT_EQ(parsed->blocks.size(), info->num_blocks);
  EXPECT_EQ(parsed->footer.bloom_bits_per_key, options.bloom_bits_per_key);

  // Index key ranges tile the row space in order.
  EXPECT_EQ(parsed->blocks.front().first_entity, "movie-00000");
  EXPECT_EQ(parsed->blocks.back().last_entity, "movie-00063");
}

TEST_F(BlockSegmentTest, ReaderSelectsOnlyOverlappingBlocks) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  auto info = WriteBlockSegment(path, rows, options);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->num_blocks, 2u);

  auto reader = BlockSegmentReader::Open(path, /*cache_id=*/7);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->cache_id(), 7u);

  // Unbounded read returns every row (in key order here — the input was
  // already key-ordered) and touches every block.
  BlockSegmentReader::ReadStats stats;
  std::vector<SegmentRow> out;
  ASSERT_TRUE((*reader)
                  ->ReadRowsInRange(nullptr, nullptr, nullptr, &stats, &out)
                  .ok());
  EXPECT_EQ(out, rows);
  EXPECT_EQ(stats.blocks_read, info->num_blocks);
  EXPECT_EQ(stats.blocks_from_cache, 0u);
  EXPECT_GT(stats.bytes_read, 0u);

  // A single-entity read is index-selected down to one block.
  const std::string key = "movie-00031";
  stats = BlockSegmentReader::ReadStats();
  out.clear();
  ASSERT_TRUE(
      (*reader)->ReadRowsInRange(&key, &key, nullptr, &stats, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  for (const SegmentRow& row : out) EXPECT_EQ(row.entity, key);
  EXPECT_EQ(stats.blocks_read, 1u);

  // A disjoint range reads nothing.
  const std::string lo = "zzz", hi = "zzzz";
  stats = BlockSegmentReader::ReadStats();
  out.clear();
  ASSERT_TRUE(
      (*reader)->ReadRowsInRange(&lo, &hi, nullptr, &stats, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.blocks_read, 0u);
}

TEST_F(BlockSegmentTest, BlockCacheServesRepeatReadsWithoutDiskBytes) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(WriteBlockSegment(path, rows, options).ok());
  auto reader = BlockSegmentReader::Open(path, /*cache_id=*/1);
  ASSERT_TRUE(reader.ok());

  BlockCache cache(1 << 20);
  BlockSegmentReader::ReadStats cold;
  std::vector<SegmentRow> out;
  ASSERT_TRUE((*reader)
                  ->ReadRowsInRange(nullptr, nullptr, &cache, &cold, &out)
                  .ok());
  EXPECT_EQ(cold.blocks_from_cache, 0u);
  EXPECT_GT(cold.bytes_read, 0u);

  BlockSegmentReader::ReadStats warm;
  std::vector<SegmentRow> again;
  ASSERT_TRUE((*reader)
                  ->ReadRowsInRange(nullptr, nullptr, &cache, &warm, &again)
                  .ok());
  EXPECT_EQ(again, out);
  EXPECT_EQ(warm.blocks_read, cold.blocks_read);
  EXPECT_EQ(warm.blocks_from_cache, warm.blocks_read);
  EXPECT_EQ(warm.bytes_read, 0u);
}

TEST_F(BlockSegmentTest, BloomHasNoFalseNegativesAndFewFalsePositives) {
  const std::vector<SegmentRow> rows = MakeRows(128, 2);
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(WriteBlockSegment(path, rows, BlockSegmentWriterOptions()).ok());
  auto reader = BlockSegmentReader::Open(path, 1);
  ASSERT_TRUE(reader.ok());

  for (const SegmentRow& row : rows) {
    EXPECT_TRUE((*reader)->MayContainEntity(row.entity));
    EXPECT_TRUE((*reader)->MayContainFact(row.entity, row.attribute));
  }
  // At 10 bits/key the false-positive rate is ~1%; 1000 absent probes
  // must come back overwhelmingly negative.
  size_t positives = 0;
  for (int p = 0; p < 1000; ++p) {
    if ((*reader)->MayContainFact("absent-" + std::to_string(p), "x")) {
      ++positives;
    }
  }
  EXPECT_LT(positives, 100u);

  // bloom_bits_per_key = 0 disables the filter: probes degrade to
  // "maybe" (true), never to a false negative.
  BlockSegmentWriterOptions no_bloom;
  no_bloom.bloom_bits_per_key = 0;
  const std::string path2 = Path("no_bloom.blk");
  ASSERT_TRUE(WriteBlockSegment(path2, rows, no_bloom).ok());
  auto plain = BlockSegmentReader::Open(path2, 2);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->footer().bloom_size, 0u);
  EXPECT_TRUE((*plain)->MayContainEntity("definitely-absent"));
  EXPECT_TRUE((*plain)->MayContainFact("definitely-absent", "x"));
}

TEST_F(BlockSegmentTest, CorruptBytesAreRejectedWithAStatus) {
  const std::vector<SegmentRow> rows = MakeRows(64, 3);
  BlockSegmentWriterOptions options;
  options.block_size_bytes = 512;
  const std::string path = Path("seg.blk");
  ASSERT_TRUE(WriteBlockSegment(path, rows, options).ok());
  const std::string good = ReadFile(path);

  EXPECT_FALSE(ParseBlockSegmentFromBytes("", "t").ok());
  EXPECT_FALSE(ParseBlockSegmentFromBytes("short", "t").ok());

  // Torn footer — the tail a mid-write crash leaves.
  EXPECT_FALSE(
      ParseBlockSegmentFromBytes(good.substr(0, good.size() - 13), "t").ok());

  // Bad magic (last footer bytes).
  std::string bad_magic = good;
  bad_magic[bad_magic.size() - 1] ^= 0x5A;
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bad_magic, "t").ok());

  // A flipped data byte fails the per-block checksum.
  std::string bad_block = good;
  bad_block[0] ^= 0x01;
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bad_block, "t").ok());

  // Footer counts/offsets blasted to 0xFF must fail fast (allocation
  // bomb), not reserve terabytes.
  std::string bomb = good;
  for (size_t i = bomb.size() - kSegmentFooterSize; i < bomb.size() - 4; ++i) {
    bomb[i] = '\xff';
  }
  EXPECT_FALSE(ParseBlockSegmentFromBytes(bomb, "t").ok());

  // The random-access reader catches a corrupt data block on the read
  // path: Open verifies only footer/index/bloom, so it succeeds, and the
  // block read fails its index checksum.
  const std::string bad_path = Path("bad_block.blk");
  WriteFile(bad_path, bad_block);
  auto reader = BlockSegmentReader::Open(bad_path, 1);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  BlockSegmentReader::ReadStats stats;
  auto block = (*reader)->ReadBlock(0, nullptr, &stats);
  EXPECT_FALSE(block.ok());
}

// The seek path against its oracle: for random segments at every restart
// spacing, ReadRowsInRange (seek into the first block, stop past the
// range) returns exactly the rows a decode-everything-then-filter pass
// keeps, in the same order.
TEST_F(BlockSegmentTest, SeekReadsMatchDecodeAllThenFilter) {
  for (const size_t interval : {1, 2, 16, 100000}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("restart_interval " + std::to_string(interval) +
                   ", seed " + std::to_string(seed));
      const std::vector<SegmentRow> rows = RandomSortedRows(seed, 40);
      BlockSegmentWriterOptions options;
      options.block_size_bytes = 256;
      options.restart_interval = interval;
      const std::string path =
          Path("seek-" + std::to_string(interval) + "-" + std::to_string(seed));
      ASSERT_TRUE(WriteBlockSegment(path, rows, options).ok());
      auto parsed = ParseBlockSegmentFromBytes(ReadFile(path), path);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      auto reader = BlockSegmentReader::Open(path, 1);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();

      // The data must reach the cases the seek has to get right.
      bool spans_block = false;
      const std::vector<BlockHandle>& blocks = (*reader)->blocks();
      for (size_t b = 1; b < blocks.size(); ++b) {
        spans_block |= blocks[b - 1].last_entity == blocks[b].first_entity;
      }
      EXPECT_TRUE(spans_block);
      size_t longest_run = 0;
      for (size_t i = 0, run = 0; i < rows.size(); ++i) {
        run = i > 0 && rows[i].entity == rows[i - 1].entity ? run + 1 : 1;
        longest_run = std::max(longest_run, run);
      }
      if (interval < 100000) {
        EXPECT_GT(longest_run, interval);  // a run crosses a restart point
      }

      const auto check = [&](const std::string* lo, const std::string* hi) {
        std::vector<SegmentRow> want;
        for (const SegmentRow& row : parsed->rows) {
          if ((lo == nullptr || row.entity >= *lo) &&
              (hi == nullptr || row.entity <= *hi)) {
            want.push_back(row);
          }
        }
        std::vector<SegmentRow> got;
        BlockSegmentReader::ReadStats stats;
        const Status st =
            (*reader)->ReadRowsInRange(lo, hi, nullptr, &stats, &got);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(got, want) << "[" << (lo ? *lo : "-inf") << ", "
                             << (hi ? *hi : "+inf") << "]";
      };
      // Every entity as a point read, and as both ends of an open range.
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0 && rows[i].entity == rows[i - 1].entity) continue;
        const std::string& e = rows[i].entity;
        check(&e, &e);
        check(nullptr, &e);
        check(&e, nullptr);
      }
      // Keys between, before and after the entities; empty ranges.
      const std::string before = "ent-0000", after = "ent-9999";
      const std::string gap_lo = "ent-0011", gap_hi = "ent-0012";
      const std::string mid_lo = "ent-0030", mid_hi = "ent-0080";
      check(&before, &before);
      check(&after, &after);
      check(&gap_lo, &gap_hi);        // between entities 10 and 13
      check(&mid_hi, &mid_lo);        // min > max
      check(&mid_lo, &mid_hi);
      check(&before, &mid_lo);
      check(&mid_hi, &after);
      check(nullptr, &before);
      check(&after, nullptr);
      check(nullptr, nullptr);
      Rng rng(seed * 31 + interval);
      for (int q = 0; q < 50; ++q) {
        char lo[16], hi[16];
        const size_t a = rng.UniformInt(130), b = a + rng.UniformInt(20);
        std::snprintf(lo, sizeof(lo), "ent-%04zu", a);
        std::snprintf(hi, sizeof(hi), "ent-%04zu", b);
        const std::string slo = lo, shi = hi;
        check(&slo, &shi);
      }
    }
  }
}

TEST_F(BlockSegmentTest, SeekRejectsARestartEntryWithASharedPrefix) {
  const std::string block = ForgedRestartBlock();
  // Decoding from byte 0 expands the prefix against the previous row.
  auto decoded = DecodeBlockRows(block, "forged");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].entity, "apricot");

  for (const char* target : {"", "apple", "apricot", "b"}) {
    auto cursor = BlockCursor::Parse(block);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    ASSERT_EQ(cursor->num_restarts(), 2u);
    const Status st = cursor->Seek(target);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << target;
    EXPECT_NE(st.message().find("restart 1"), std::string::npos)
        << st.message();
  }
}

// The read-path acceptance pin: with >= 8 segments on disk, a point fact
// lookup resolves via zone stats + bloom + block index and decodes
// exactly ONE data block.
TEST_F(BlockSegmentTest, PointLookupOnEightSegmentStoreReadsOneBlock) {
  auto store = TruthStore::Open(Path("store"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // 8 flushed segments over disjoint entity ranges, as leveled
  // compaction would converge to; enough rows per segment to fill
  // several 4 KiB blocks.
  const size_t kSegments = 8, kEntities = 256;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    for (size_t e = 0; e < kEntities; ++e) {
      char entity[32];
      std::snprintf(entity, sizeof(entity), "movie-%05zu",
                    seg * kEntities + e);
      for (int a = 0; a < 2; ++a) {
        ASSERT_TRUE((*store)
                        ->Append(WalRecord{entity,
                                           "attr-" + std::to_string(a),
                                           "source-" + std::to_string(a), 1})
                        .ok());
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_GE((*store)->Stats().num_segments, 8u);
  for (const SegmentInfo& seg : (*store)->segments()) {
    ASSERT_GT(seg.num_blocks, 1u);  // one block per segment would be vacuous
  }

  const auto pin = (*store)->PinEpoch();
  const std::string key = "movie-01100";  // lives in segment 4 of 8
  RangeScanStats rs;
  auto slice = (*store)->MaterializeSnapshot(*pin, &key, &key, &rs);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  EXPECT_EQ(slice->raw.NumRows(), 2u);
  EXPECT_EQ(slice->raw.NumEntities(), 1u);

  EXPECT_EQ(rs.blocks_read, 1u);  // the O(1-block) guarantee
  EXPECT_EQ(rs.segments_scanned, 1u);
  EXPECT_EQ(rs.segments_skipped + rs.segments_skipped_bloom, kSegments - 1);
  EXPECT_GT(rs.bytes_read, 0u);

  // The same lookup again is served from the block cache: one block
  // decoded, zero disk bytes.
  RangeScanStats warm;
  auto again = (*store)->MaterializeSnapshot(*pin, &key, &key, &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(warm.blocks_read, 1u);
  EXPECT_EQ(warm.block_cache_hits, 1u);
  EXPECT_EQ(warm.bytes_read, 0u);
}

TEST_F(BlockSegmentTest, SnapshotFactMayExistAnswersFromBloomsAlone) {
  auto store = TruthStore::Open(Path("store"));
  ASSERT_TRUE(store.ok());
  for (const char* e : {"apple", "banana"}) {
    ASSERT_TRUE((*store)->Append(WalRecord{e, "color", "s1", 1}).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (const char* e : {"cherry", "damson"}) {
    ASSERT_TRUE((*store)->Append(WalRecord{e, "color", "s1", 1}).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  const auto pin = (*store)->PinEpoch();
  auto present = (*store)->SnapshotFactMayExist(*pin, "cherry", "color");
  ASSERT_TRUE(present.ok());
  EXPECT_TRUE(*present);

  const uint64_t skips_before = (*store)->Stats().bloom_point_skips;
  auto absent = (*store)->SnapshotFactMayExist(*pin, "cherry", "weight");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
  EXPECT_GT((*store)->Stats().bloom_point_skips, skips_before);

  // Memtable rows are visible to the probe before any flush.
  ASSERT_TRUE((*store)->Append(WalRecord{"elder", "color", "s1", 1}).ok());
  const auto pin2 = (*store)->PinEpoch();
  auto memtable_hit = (*store)->SnapshotFactMayExist(*pin2, "elder", "color");
  ASSERT_TRUE(memtable_hit.ok());
  EXPECT_TRUE(*memtable_hit);
}

}  // namespace
}  // namespace store
}  // namespace ltm
