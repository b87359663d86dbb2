#ifndef LTM_STORE_WAL_H_
#define LTM_STORE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltm {
namespace store {

/// Append-only, checksummed write-ahead log of claim observations — the
/// TruthStore's durable ingest path. One record per observation:
///
///   file header, 8 bytes: magic "LTMW" + uint32 format version (2)
///   record: uint32 payload size, uint64 FNV-1a 64 checksum of the
///           payload, payload:
///             uint8 observation bit (1 = assertion; 0 reserved)
///             uint64 ingest sequence number
///             uint32 len + bytes   entity
///             uint32 len + bytes   attribute
///             uint32 len + bytes   source
///
/// Every record carries the ingest sequence number the store stamped on
/// it at append time, so replay recovers both the rows and their global
/// ingest order. Version 2 is the only format: any other version in the
/// header is rejected by both the reader and the writer.
///
/// Appends go through stdio buffering; Sync() flushes and fsyncs, the
/// group-commit durability point. A crash can therefore lose an unsynced
/// tail — always a *suffix*: ReplayWal stops at the first record that is
/// truncated or fails its checksum and reports where the intact prefix
/// ends, so recovery truncates the torn tail and appends from there.

inline constexpr char kWalMagic[4] = {'L', 'T', 'M', 'W'};
inline constexpr uint32_t kWalVersion = 2;
inline constexpr size_t kWalHeaderSize = 8;

/// One logged observation: `source` asserted (observation = 1) that
/// `entity` has attribute value `attribute`. The observation bit is part
/// of the on-disk record for forward compatibility with explicit
/// negative claims; the store currently only writes 1. `seq` is the
/// record's ingest sequence number (see TruthStore for who assigns it).
struct WalRecord {
  std::string entity;
  std::string attribute;
  std::string source;
  uint8_t observation = 1;
  uint64_t seq = 0;

  bool operator==(const WalRecord&) const = default;
};

/// Appender over one WAL file. Move-only; closes on destruction (without
/// syncing — call Sync() at commit points).
class WalWriter {
 public:
  /// Opens `path` for appending, writing the file header if the file is
  /// new or empty; an existing file must carry the version-2 header. The
  /// caller must have truncated any torn tail first (see
  /// WalReplay::valid_bytes).
  static Result<WalWriter> Open(const std::string& path);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record to the stdio buffer. Durable only after Sync().
  Status Append(const WalRecord& record);

  /// Flushes buffered appends and fsyncs the file.
  Status Sync();

  uint64_t appended_records() const { return appended_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t appended_ = 0;
};

/// Result of scanning a WAL file.
struct WalReplay {
  std::vector<WalRecord> records;
  /// Byte offset just past the last intact record (>= header size).
  /// Recovery truncates the file here before reopening it for appends.
  uint64_t valid_bytes = 0;
  /// True when bytes past `valid_bytes` were ignored (torn tail).
  bool torn_tail = false;
};

/// Scans `path` and returns every intact record in order. Never fails on
/// a torn tail — a record cut off mid-write or failing its checksum ends
/// the scan and sets `torn_tail`; the result is always a valid record
/// prefix of the log. Fails with IOError when the file cannot be read and
/// InvalidArgument when the header bytes present are not a prefix of a
/// valid WAL header (wrong magic/version — corruption, not truncation).
Result<WalReplay> ReplayWal(const std::string& path);

/// ReplayWal over an in-memory image of a WAL file (header included).
/// `label` names the source in error messages. This is the actual record
/// reader — ReplayWal is a thin file-slurping wrapper — and the entry
/// point the WAL fuzzer drives: it must return a valid record prefix or a
/// non-OK Status for EVERY byte string, never crash or over-allocate.
Result<WalReplay> ReplayWalBytes(std::string_view file,
                                 const std::string& label);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_WAL_H_
