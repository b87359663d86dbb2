#include "store/block_format.h"

#include <cstring>

namespace ltm {
namespace store {

namespace {

/// LEB128 decode with strict bounds: at most 5 (u32) / 10 (u64) bytes,
/// always inside [pos, size).
Result<uint64_t> GetVarint(std::string_view data, size_t* pos, int max_bytes) {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < max_bytes; ++i) {
    if (*pos >= data.size()) {
      return Status::InvalidArgument("corrupt block: truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::InvalidArgument("corrupt block: over-long varint");
}

Result<uint32_t> GetVarint32(std::string_view data, size_t* pos) {
  LTM_ASSIGN_OR_RETURN(const uint64_t v, GetVarint(data, pos, 5));
  if (v > UINT32_MAX) {
    return Status::InvalidArgument("corrupt block: varint32 overflow");
  }
  return static_cast<uint32_t>(v);
}

Result<std::string_view> GetBytes(std::string_view data, size_t* pos,
                                  size_t len) {
  if (len > data.size() - *pos) {
    return Status::InvalidArgument("corrupt block: truncated entry bytes");
  }
  std::string_view out = data.substr(*pos, len);
  *pos += len;
  return out;
}

/// A length-prefixed byte string.
Result<std::string_view> GetLengthPrefixed(std::string_view data,
                                           size_t* pos) {
  LTM_ASSIGN_OR_RETURN(const uint32_t len, GetVarint32(data, pos));
  return GetBytes(data, pos, len);
}

}  // namespace

void PutVarint32(std::string* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

BlockBuilder::BlockBuilder(size_t restart_interval)
    : restart_interval_(restart_interval < 1 ? 1 : restart_interval) {}

void BlockBuilder::Add(const SegmentRow& row) {
  size_t shared = 0;
  if (entries_since_restart_ >= restart_interval_ || num_entries_ == 0) {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    entries_since_restart_ = 0;
  } else {
    const size_t limit = std::min(last_entity_.size(), row.entity.size());
    while (shared < limit && last_entity_[shared] == row.entity[shared]) {
      ++shared;
    }
  }
  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(row.entity.size() - shared));
  buffer_.append(row.entity, shared, row.entity.size() - shared);
  PutVarint32(&buffer_, static_cast<uint32_t>(row.attribute.size()));
  buffer_.append(row.attribute);
  PutVarint32(&buffer_, static_cast<uint32_t>(row.source.size()));
  buffer_.append(row.source);
  PutVarint64(&buffer_, row.seq);
  buffer_.push_back(static_cast<char>(row.observation));
  last_entity_ = row.entity;
  ++entries_since_restart_;
  ++num_entries_;
}

std::string BlockBuilder::Finish() {
  for (const uint32_t offset : restarts_) {
    char buf[sizeof(uint32_t)];
    std::memcpy(buf, &offset, sizeof(offset));
    buffer_.append(buf, sizeof(buf));
  }
  const uint32_t count = static_cast<uint32_t>(restarts_.size());
  char buf[sizeof(uint32_t)];
  std::memcpy(buf, &count, sizeof(count));
  buffer_.append(buf, sizeof(buf));
  std::string out = std::move(buffer_);
  Reset();
  return out;
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  last_entity_.clear();
  entries_since_restart_ = 0;
  num_entries_ = 0;
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) +
         sizeof(uint32_t);
}

Result<BlockCursor> BlockCursor::Parse(std::string_view block) {
  if (block.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "corrupt block: shorter than the restart trailer");
  }
  uint32_t num_restarts = 0;
  std::memcpy(&num_restarts, block.data() + block.size() - sizeof(uint32_t),
              sizeof(num_restarts));
  const size_t trailer =
      (static_cast<size_t>(num_restarts) + 1) * sizeof(uint32_t);
  // The count is untrusted: checked against the bytes actually present so
  // a forged value cannot push the entries window negative or huge.
  if (trailer > block.size()) {
    return Status::InvalidArgument("corrupt block: restart count " +
                                   std::to_string(num_restarts) +
                                   " larger than the block");
  }
  const size_t entries_size = block.size() - trailer;
  const char* restart_base = block.data() + entries_size;
  uint32_t prev = 0;
  for (uint32_t i = 0; i < num_restarts; ++i) {
    uint32_t offset = 0;
    std::memcpy(&offset, restart_base + i * sizeof(uint32_t), sizeof(offset));
    if (offset >= entries_size || (i == 0 && offset != 0) ||
        (i > 0 && offset <= prev)) {
      return Status::InvalidArgument(
          "corrupt block: bad restart offset " + std::to_string(offset) +
          " at index " + std::to_string(i));
    }
    prev = offset;
  }
  if (num_restarts == 0 && entries_size != 0) {
    return Status::InvalidArgument(
        "corrupt block: entry bytes with no restart points");
  }
  return BlockCursor(block.substr(0, entries_size), restart_base,
                     num_restarts);
}

uint32_t BlockCursor::RestartOffset(size_t i) const {
  uint32_t offset = 0;
  std::memcpy(&offset, restarts_ + i * sizeof(uint32_t), sizeof(offset));
  return offset;
}

Result<std::string_view> BlockCursor::RestartEntity(size_t i) const {
  size_t pos = RestartOffset(i);
  LTM_ASSIGN_OR_RETURN(const uint32_t shared, GetVarint32(entries_, &pos));
  if (shared != 0) {
    return Status::InvalidArgument("corrupt block: restart " +
                                   std::to_string(i) + " shares " +
                                   std::to_string(shared) +
                                   " entity bytes with the previous row");
  }
  return GetLengthPrefixed(entries_, &pos);
}

Status BlockCursor::Seek(std::string_view entity) {
  // The first restart whose entity is >= `entity`; rows of `entity` may
  // already start in the run before it, so the scan begins one earlier.
  size_t lo = 0;
  size_t hi = num_restarts_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    LTM_ASSIGN_OR_RETURN(const std::string_view key, RestartEntity(mid));
    if (key < entity) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  pos_ = num_restarts_ == 0 ? entries_.size()
                            : RestartOffset(lo == 0 ? 0 : lo - 1);
  prev_entity_.clear();
  entity_read_ = false;
  while (pos_ < entries_.size()) {
    LTM_RETURN_IF_ERROR(ReadEntity());
    if (prev_entity_ >= entity) {
      entity_read_ = true;
      break;
    }
    LTM_RETURN_IF_ERROR(ReadRest(nullptr));
  }
  return Status::OK();
}

Status BlockCursor::ReadEntity() {
  LTM_ASSIGN_OR_RETURN(const uint32_t shared, GetVarint32(entries_, &pos_));
  LTM_ASSIGN_OR_RETURN(const uint32_t unshared, GetVarint32(entries_, &pos_));
  if (shared > prev_entity_.size()) {
    return Status::InvalidArgument(
        "corrupt block: shared prefix " + std::to_string(shared) +
        " exceeds previous entity length");
  }
  LTM_ASSIGN_OR_RETURN(const std::string_view entity_tail,
                       GetBytes(entries_, &pos_, unshared));
  prev_entity_.resize(shared);
  prev_entity_.append(entity_tail);
  return Status::OK();
}

Status BlockCursor::ReadRest(SegmentRow* row) {
  LTM_ASSIGN_OR_RETURN(const std::string_view attr,
                       GetLengthPrefixed(entries_, &pos_));
  LTM_ASSIGN_OR_RETURN(const std::string_view source,
                       GetLengthPrefixed(entries_, &pos_));
  LTM_ASSIGN_OR_RETURN(const uint64_t seq, GetVarint(entries_, &pos_, 10));
  if (pos_ == entries_.size()) {
    return Status::InvalidArgument(
        "corrupt block: entry missing observation byte");
  }
  const uint8_t observation = static_cast<uint8_t>(entries_[pos_++]);
  if (row != nullptr) {
    row->entity = prev_entity_;
    row->attribute.assign(attr);
    row->source.assign(source);
    row->seq = seq;
    row->observation = observation;
  }
  return Status::OK();
}

Result<bool> BlockCursor::Next(SegmentRow* row) {
  if (!entity_read_) {
    if (pos_ >= entries_.size()) return false;
    LTM_RETURN_IF_ERROR(ReadEntity());
  }
  entity_read_ = false;
  LTM_RETURN_IF_ERROR(ReadRest(row));
  return true;
}

Status LabelBlockError(const Status& status, const std::string& label) {
  return Status::InvalidArgument(status.message() + ": " + label);
}

Result<std::vector<SegmentRow>> DecodeBlockRows(std::string_view block,
                                                const std::string& label) {
  Result<BlockCursor> cursor = BlockCursor::Parse(block);
  if (!cursor.ok()) return LabelBlockError(cursor.status(), label);
  std::vector<SegmentRow> rows;
  SegmentRow row;
  while (true) {
    const Result<bool> more = cursor->Next(&row);
    if (!more.ok()) return LabelBlockError(more.status(), label);
    if (!*more) break;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace store
}  // namespace ltm
