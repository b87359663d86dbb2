#ifndef LTM_STORE_BLOCK_FORMAT_H_
#define LTM_STORE_BLOCK_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltm {
namespace store {

/// Restartable data-block encoding for block segments — the LevelDB idea
/// applied to claim rows. A block holds rows sorted by
/// (entity, attribute, seq); consecutive rows usually share an entity, so
/// the entity string is prefix-compressed against the previous row's.
/// Every `restart_interval` rows the full entity is stored again (a
/// restart point), which bounds how far a decoder must scan and lets a
/// seek binary-search the restart array instead of decoding from byte 0
/// (BlockCursor::Seek).
///
/// Entry encoding (little-endian, varint = LEB128):
///
///   varint32 entity_shared     bytes shared with the previous entity
///   varint32 entity_unshared   + that many entity bytes
///   varint32 attr_len          + attribute bytes
///   varint32 source_len        + source bytes
///   varint64 seq               global ingest sequence number
///   uint8    observation       1 = assertion (0 reserved)
///
/// Block trailer: restart offsets (uint32 each, ascending, first is 0),
/// then uint32 restart count. The entry at a restart offset stores its
/// whole entity (entity_shared == 0): a seek decodes restart entries with
/// no previous entity to expand against, so a non-zero shared prefix there
/// is corruption. The per-block checksum lives in the segment index entry,
/// not in the block itself, so the index is the single chain-of-trust root
/// for data bytes.

/// One decoded claim row plus its global ingest sequence number. Seq
/// order across every segment *is* batch ingest order — sorting merged
/// rows by seq reproduces the exact replay order flat segments had, which
/// is what keeps LTM posteriors bit-identical (see TruthStore).
struct SegmentRow {
  std::string entity;
  std::string attribute;
  std::string source;
  uint64_t seq = 0;
  uint8_t observation = 1;

  bool operator==(const SegmentRow&) const = default;
};

/// Ordering used everywhere a block or segment sorts rows.
inline bool SegmentRowOrder(const SegmentRow& a, const SegmentRow& b) {
  if (int c = a.entity.compare(b.entity); c != 0) return c < 0;
  if (int c = a.attribute.compare(b.attribute); c != 0) return c < 0;
  return a.seq < b.seq;
}

/// Global ingest order: the order every materialize replays rows in.
inline bool SegmentRowSeqOrder(const SegmentRow& a, const SegmentRow& b) {
  return a.seq < b.seq;
}

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Builds one data block. Add() must be called in SegmentRowOrder.
class BlockBuilder {
 public:
  explicit BlockBuilder(size_t restart_interval = 16);

  void Add(const SegmentRow& row);

  /// Appends the restart trailer and returns the block bytes; Reset()
  /// starts the next block.
  std::string Finish();
  void Reset();

  /// Bytes the finished block would occupy (entries + trailer).
  size_t CurrentSizeEstimate() const;
  bool empty() const { return num_entries_ == 0; }
  size_t num_entries() const { return num_entries_; }

 private:
  const size_t restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  std::string last_entity_;
  size_t entries_since_restart_ = 0;
  size_t num_entries_ = 0;
};

/// Bounds-checked decoder over one block's bytes. This is the parser the
/// block-segment fuzzer drives (directly, and via
/// ParseBlockSegmentFromBytes): it must return rows or a non-OK Status for
/// every byte string, never crash or over-allocate. Its errors are
/// InvalidArgument and name no block; callers that need one attach it with
/// LabelBlockError, so a read builds its label only on error.
class BlockCursor {
 public:
  /// Validates the restart trailer (count fits, offsets ascending and
  /// in-bounds, first restart at 0) without touching entry bytes.
  static Result<BlockCursor> Parse(std::string_view block);

  /// Positions the cursor so that Next() returns the first row whose
  /// entity is >= `entity` (end of block when there is none). Binary-
  /// searches the restart array for the last restart whose entity sorts
  /// before `entity`, then decodes forward from it without copying the
  /// rows it passes. A restart entry with a non-zero shared prefix fails
  /// with InvalidArgument.
  Status Seek(std::string_view entity);

  /// Decodes the next row into `row`; false at end of block. A malformed
  /// entry fails with InvalidArgument.
  Result<bool> Next(SegmentRow* row);

  size_t num_restarts() const { return num_restarts_; }

 private:
  BlockCursor(std::string_view entries, const char* restarts,
              size_t num_restarts)
      : entries_(entries), restarts_(restarts), num_restarts_(num_restarts) {}

  uint32_t RestartOffset(size_t i) const;
  /// The full entity stored at restart `i`.
  Result<std::string_view> RestartEntity(size_t i) const;
  /// Decodes the entity of the entry at pos_ into prev_entity_.
  Status ReadEntity();
  /// Decodes the rest of the entry at pos_ into `row` (skips it when
  /// null).
  Status ReadRest(SegmentRow* row);

  std::string_view entries_;
  const char* restarts_;
  size_t num_restarts_;
  size_t pos_ = 0;
  std::string prev_entity_;
  /// Seek stopped after decoding the entity of the entry at pos_.
  bool entity_read_ = false;
};

/// `status`, an InvalidArgument from BlockCursor, with `label` naming the
/// block appended.
Status LabelBlockError(const Status& status, const std::string& label);

/// Decodes every row of `block`; convenience for scans and tests.
Result<std::vector<SegmentRow>> DecodeBlockRows(std::string_view block,
                                                const std::string& label);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_BLOCK_FORMAT_H_
