#include "store/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.h"

namespace ltm {
namespace store {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::vector<WalRecord> SampleRecords() {
    std::vector<WalRecord> records;
    for (int i = 0; i < 8; ++i) {
      WalRecord r;
      r.entity = "entity-" + std::string(static_cast<size_t>(i) + 1, 'e');
      r.attribute = "attr" + std::to_string(i * 7);
      r.source = i % 2 == 0 ? "imdb" : "a-much-longer-source-name";
      records.push_back(r);
    }
    return records;
  }

  std::string dir_;
};

TEST_F(WalTest, RoundTrip) {
  const std::string path = Path("roundtrip.log");
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& r : records) {
      ASSERT_TRUE(writer->Append(r).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
    EXPECT_EQ(writer->appended_records(), records.size());
  }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->records, records);
}

TEST_F(WalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = Path("reopen.log");
  const std::vector<WalRecord> records = SampleRecords();
  for (const WalRecord& r : records) {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(r).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records, records);
}

TEST_F(WalTest, EmptyWalHasHeaderAndNoRecords) {
  const std::string path = Path("empty.log");
  { ASSERT_TRUE(WalWriter::Open(path).ok()); }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, kWalHeaderSize);
}

TEST_F(WalTest, MissingFileIsIOError) {
  auto replay = ReplayWal(Path("missing.log"));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kIOError);
}

TEST_F(WalTest, RejectsBadMagic) {
  const std::string path = Path("badmagic.log");
  { ASSERT_TRUE(WalWriter::Open(path).ok()); }
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  auto replay = ReplayWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(replay.status().message().find("magic"), std::string::npos);
}

TEST_F(WalTest, RejectsUnsupportedVersion) {
  const std::string path = Path("badversion.log");
  { ASSERT_TRUE(WalWriter::Open(path).ok()); }
  std::string bytes = ReadFile(path);
  bytes[4] = static_cast<char>(kWalVersion + 1);
  WriteFile(path, bytes);
  auto replay = ReplayWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("version"), std::string::npos);
}

TEST_F(WalTest, ChecksumCorruptionEndsTheScanAtTheCorruptRecord) {
  const std::string path = Path("corrupt.log");
  const std::vector<WalRecord> records = SampleRecords();
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& r : records) ASSERT_TRUE(writer->Append(r).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  std::string bytes = ReadFile(path);
  // Flip a byte roughly in the middle: every record before the corrupt
  // one survives, nothing after it is trusted.
  bytes[bytes.size() / 2] ^= 0x5a;
  WriteFile(path, bytes);
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_LT(replay->records.size(), records.size());
  for (size_t i = 0; i < replay->records.size(); ++i) {
    EXPECT_EQ(replay->records[i], records[i]) << "record " << i;
  }
}

// The torn-tail property (satellite): truncating the log at EVERY byte
// offset must never crash recovery and must always yield a valid record
// prefix — exactly the records whose bytes fully fit the truncated file.
TEST_F(WalTest, TornTailPropertyEveryTruncationYieldsARecordPrefix) {
  const std::string path = Path("torn.log");
  const std::vector<WalRecord> records = SampleRecords();
  std::vector<uint64_t> record_ends;  // byte offset after each record
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& r : records) {
      ASSERT_TRUE(writer->Append(r).ok());
      ASSERT_TRUE(writer->Sync().ok());
      record_ends.push_back(std::filesystem::file_size(path));
    }
  }
  const std::string bytes = ReadFile(path);
  ASSERT_EQ(record_ends.back(), bytes.size());

  const std::string torn = Path("torn_cut.log");
  for (size_t keep = 0; keep <= bytes.size(); ++keep) {
    WriteFile(torn, bytes.substr(0, keep));
    auto replay = ReplayWal(torn);
    ASSERT_TRUE(replay.ok()) << "kept " << keep
                             << " bytes: " << replay.status().ToString();
    // Expected record count: records fully contained in [0, keep).
    size_t expected = 0;
    while (expected < record_ends.size() && record_ends[expected] <= keep) {
      ++expected;
    }
    ASSERT_EQ(replay->records.size(), expected) << "kept " << keep;
    for (size_t i = 0; i < expected; ++i) {
      ASSERT_EQ(replay->records[i], records[i])
          << "kept " << keep << ", record " << i;
    }
    // valid_bytes always points at the end of the intact prefix, and the
    // torn flag fires exactly when trailing bytes were dropped.
    const uint64_t expected_valid =
        expected == 0 ? (keep >= kWalHeaderSize ? kWalHeaderSize : 0)
                      : record_ends[expected - 1];
    ASSERT_EQ(replay->valid_bytes, expected_valid) << "kept " << keep;
    ASSERT_EQ(replay->torn_tail, replay->valid_bytes != keep)
        << "kept " << keep;
  }
}

// Regression: Open on a file with a torn (partial) header must return a
// clean error — it used to double-close the FILE* on this path.
TEST_F(WalTest, OpenRejectsATornHeaderWithoutCrashing) {
  const std::string path = Path("tornheader.log");
  WriteFile(path, std::string(kWalMagic, 3));  // 3 bytes, mid-header
  auto writer = WalWriter::Open(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(writer.status().message().find("torn header"), std::string::npos);
}

TEST_F(WalTest, ObservationBitRoundTrips) {
  const std::string path = Path("obs.log");
  WalRecord negative;
  negative.entity = "e";
  negative.attribute = "a";
  negative.source = "s";
  negative.observation = 0;  // reserved but representable in the format
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(negative).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].observation, 0);
}

// --- in-memory reader (the fuzzer entry point) ---------------------------

std::string WalHeaderBytes() {
  std::string header(kWalMagic, 4);
  uint32_t version = kWalVersion;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  return header;
}

template <typename T>
std::string EncodeLe(T v) {
  std::string out(sizeof(v), '\0');
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

TEST_F(WalTest, ReplayBytesMatchesReplayFromFile) {
  const std::string path = Path("equiv.wal");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& r : SampleRecords()) {
      ASSERT_TRUE(writer->Append(r).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto from_file = ReplayWal(path);
  auto from_bytes = ReplayWalBytes(ReadFile(path), path);
  ASSERT_TRUE(from_file.ok());
  ASSERT_TRUE(from_bytes.ok());
  EXPECT_EQ(from_file->valid_bytes, from_bytes->valid_bytes);
  EXPECT_EQ(from_file->torn_tail, from_bytes->torn_tail);
  ASSERT_EQ(from_file->records.size(), from_bytes->records.size());
  for (size_t i = 0; i < from_file->records.size(); ++i) {
    EXPECT_EQ(from_file->records[i].entity, from_bytes->records[i].entity);
  }
}

// Regression (satellite): a record-size field claiming ~4 GB over a
// 4-byte tail must be treated as a torn tail by comparing the size
// against the bytes actually remaining — never by allocating or reading
// 4 GB.
TEST_F(WalTest, RecordSizeAllocationBombIsATornTail) {
  const std::string bytes = WalHeaderBytes() +
                            EncodeLe<uint32_t>(0xFFFFFFF0u) +  // record size
                            EncodeLe<uint64_t>(0) +            // checksum
                            std::string(4, '\0');              // actual tail
  auto replay = ReplayWalBytes(bytes, "bomb");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, kWalHeaderSize);
  EXPECT_TRUE(replay->torn_tail);
}

// A correctly-checksummed payload whose *inner* string length overruns
// the payload stops the scan at that record (the bounds-checked
// ByteReader refuses the read); nothing is over-allocated.
TEST_F(WalTest, InnerStringLengthBombEndsTheScan) {
  std::string payload;
  payload += EncodeLe<uint8_t>(1);           // observation
  payload += EncodeLe<uint64_t>(0);          // seq
  payload += EncodeLe<uint32_t>(0xFFFFu);    // entity length: a lie
  payload += "ab";                           // only two bytes follow
  const std::string bytes = WalHeaderBytes() +
                            EncodeLe<uint32_t>(
                                static_cast<uint32_t>(payload.size())) +
                            EncodeLe<uint64_t>(Fnv1a64(payload)) + payload;
  auto replay = ReplayWalBytes(bytes, "bomb");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, kWalHeaderSize);
  EXPECT_TRUE(replay->torn_tail);
}

// --- version 2: per-record ingest sequence numbers -----------------------

TEST_F(WalTest, V2PersistsIngestSequenceNumbers) {
  const std::string path = Path("seq.log");
  std::vector<WalRecord> records = SampleRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].seq = 1000 + i * 3;  // sparse: a router skips seqs freely
  }
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& r : records) ASSERT_TRUE(writer->Append(r).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, records);  // seqs round-trip exactly
}

// Version 2 is the only format. A version-1 log (no seq field) is
// rejected by the reader and by the writer like any other unknown
// version, and a short prefix of a v1 header is corruption, not a torn
// fresh WAL.
TEST_F(WalTest, V1HeaderIsRejected) {
  std::string v1_header(kWalMagic, 4);
  v1_header += EncodeLe<uint32_t>(1);
  std::string payload;
  payload += EncodeLe<uint8_t>(1);  // v1: no seq field
  for (const std::string s : {"harry", "radcliffe", "imdb"}) {
    payload += EncodeLe<uint32_t>(static_cast<uint32_t>(s.size())) + s;
  }
  const std::string file = v1_header +
                           EncodeLe<uint32_t>(
                               static_cast<uint32_t>(payload.size())) +
                           EncodeLe<uint64_t>(Fnv1a64(payload)) + payload;

  for (const std::string& bytes : {file, v1_header}) {
    auto replay = ReplayWalBytes(bytes, "v1");
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(replay.status().message().find("version 1"), std::string::npos)
        << replay.status().ToString();
  }

  const std::string path = Path("v1.log");
  WriteFile(path, file);
  auto writer = WalWriter::Open(path);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFile(path), file);  // nothing appended to the old log

  // Past the magic, a v1 header prefix no longer matches any readable
  // header; only the bare magic (a prefix of the v2 header too) still
  // reads as a torn fresh WAL.
  for (size_t keep = 5; keep < kWalHeaderSize; ++keep) {
    auto torn = ReplayWalBytes(v1_header.substr(0, keep), "v1-prefix");
    ASSERT_FALSE(torn.ok()) << "kept " << keep;
    EXPECT_EQ(torn.status().code(), StatusCode::kInvalidArgument);
  }
  auto magic_only = ReplayWalBytes(v1_header.substr(0, 4), "magic");
  ASSERT_TRUE(magic_only.ok());
  EXPECT_TRUE(magic_only->records.empty());
  EXPECT_TRUE(magic_only->torn_tail);
}

}  // namespace
}  // namespace store
}  // namespace ltm
