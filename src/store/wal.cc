#include "store/wal.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "store/record_io.h"

#if !defined(_WIN32)
#include <unistd.h>
#define LTM_WAL_HAVE_FSYNC 1
#endif

namespace ltm {
namespace store {

namespace {

constexpr size_t kRecordHeaderSize = 12;  // u32 size + u64 checksum

std::string CanonicalHeader() {
  std::string header(kWalMagic, 4);
  header.append(reinterpret_cast<const char*>(&kWalVersion),
                sizeof(kWalVersion));
  return header;
}

/// Accepts exactly the version-2 header; `header` holds kWalHeaderSize
/// bytes. Shared by the writer and the reader so both reject the same
/// files with the same messages.
Status CheckHeader(std::string_view header, const std::string& path) {
  if (header == CanonicalHeader()) return Status::OK();
  if (std::memcmp(header.data(), kWalMagic, 4) != 0) {
    return Status::InvalidArgument("corrupt WAL: bad header magic: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, header.data() + 4, sizeof(version));
  return Status::InvalidArgument("unsupported WAL version " +
                                 std::to_string(version) +
                                 " (this build reads and writes version " +
                                 std::to_string(kWalVersion) + "): " + path);
}

}  // namespace

Result<WalWriter> WalWriter::Open(const std::string& path) {
  std::error_code ec;
  const uint64_t existing = std::filesystem::exists(path, ec)
                                ? std::filesystem::file_size(path, ec)
                                : 0;
  // Appending to an existing log: its header must be the one this build
  // writes, so a log never mixes record formats.
  if (existing >= kWalHeaderSize) {
    std::ifstream in(path, std::ios::binary);
    char header[kWalHeaderSize] = {};
    if (!in.read(header, kWalHeaderSize)) {
      return Status::IOError("cannot read WAL header: " + path);
    }
    LTM_RETURN_IF_ERROR(
        CheckHeader(std::string_view(header, kWalHeaderSize), path));
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL for appending: " + path);
  }
  WalWriter writer(file, path);
  if (existing < kWalHeaderSize) {
    // New or header-torn file: (re)write the header. fopen("ab") appends,
    // so a partial header must have been truncated away by the caller;
    // an empty file is the normal fresh-WAL case. (`writer` owns `file`
    // and closes it when the error return destroys it.)
    if (existing != 0) {
      return Status::InvalidArgument(
          "WAL has a torn header; truncate it to 0 bytes before opening: " +
          path);
    }
    const std::string header = CanonicalHeader();
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
      return Status::IOError("cannot write WAL header: " + path);
    }
    LTM_RETURN_IF_ERROR(writer.Sync());
  }
  return writer;
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      appended_(other.appended_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    appended_ = other.appended_;
    other.file_ = nullptr;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(const WalRecord& record) {
  LTM_RETURN_IF_ERROR(FailpointCheck("wal-append"));
  ByteWriter payload;
  payload.PutU8(record.observation);
  payload.PutU64(record.seq);
  payload.PutString(record.entity);
  payload.PutString(record.attribute);
  payload.PutString(record.source);

  const std::string& bytes = payload.bytes();
  char header[kRecordHeaderSize];
  const uint32_t size = static_cast<uint32_t>(bytes.size());
  std::memcpy(header, &size, sizeof(size));
  const uint64_t checksum = Fnv1a64(bytes);
  std::memcpy(header + sizeof(size), &checksum, sizeof(checksum));
  if (std::fwrite(header, 1, kRecordHeaderSize, file_) != kRecordHeaderSize ||
      std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IOError("WAL append failed: " + path_);
  }
  ++appended_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed: " + path_);
  }
#ifdef LTM_WAL_HAVE_FSYNC
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError("WAL fsync failed: " + path_);
  }
#endif
  return Status::OK();
}

Result<WalReplay> ReplayWal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open WAL: " + path);
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("WAL read failed: " + path);
  return ReplayWalBytes(file, path);
}

Result<WalReplay> ReplayWalBytes(std::string_view file,
                                 const std::string& path) {
  if (file.size() < kWalHeaderSize) {
    // A header prefix (including an empty file) is a torn fresh WAL:
    // zero records were ever durable. Anything else is corruption.
    if (CanonicalHeader().compare(0, file.size(), file) != 0) {
      return Status::InvalidArgument(
          "corrupt WAL: short header is not a prefix of the version " +
          std::to_string(kWalVersion) + " header: " + path);
    }
    WalReplay replay;
    replay.valid_bytes = 0;
    replay.torn_tail = !file.empty();  // an empty file drops no bytes
    return replay;
  }
  LTM_RETURN_IF_ERROR(CheckHeader(file.substr(0, kWalHeaderSize), path));

  WalReplay replay;
  size_t pos = kWalHeaderSize;
  replay.valid_bytes = pos;
  while (pos + kRecordHeaderSize <= file.size()) {
    uint32_t size = 0;
    uint64_t checksum = 0;
    std::memcpy(&size, file.data() + pos, sizeof(size));
    std::memcpy(&checksum, file.data() + pos + sizeof(size), sizeof(checksum));
    const size_t payload_at = pos + kRecordHeaderSize;
    if (size > file.size() - payload_at) break;  // torn mid-payload
    if (Fnv1a64(file.data() + payload_at, size) != checksum) break;

    ByteReader reader(file.data() + payload_at, size);
    WalRecord record;
    // A checksummed payload that fails structural parsing is corruption
    // that FNV-1a happened to miss; stop the scan there like a torn tail
    // (the prefix before it is still intact).
    auto obs = reader.GetU8();
    if (!obs.ok()) break;
    record.observation = *obs;
    auto seq = reader.GetU64();
    if (!seq.ok()) break;
    record.seq = *seq;
    auto entity = reader.GetString();
    auto attribute = reader.GetString();
    auto source = reader.GetString();
    if (!entity.ok() || !attribute.ok() || !source.ok() ||
        reader.Remaining() != 0) {
      break;
    }
    record.entity = std::move(*entity);
    record.attribute = std::move(*attribute);
    record.source = std::move(*source);
    replay.records.push_back(std::move(record));
    pos = payload_at + size;
    replay.valid_bytes = pos;
  }
  replay.torn_tail = replay.valid_bytes != file.size();
  return replay;
}

}  // namespace store
}  // namespace ltm
