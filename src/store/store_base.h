#ifndef LTM_STORE_STORE_BASE_H_
#define LTM_STORE_STORE_BASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/wal.h"

namespace ltm {
namespace store {

class TruthStoreBase;

/// Read-path counters reported per materialization call.
struct RangeScanStats {
  size_t segments_scanned = 0;
  /// Segments excluded by manifest zone stats (entity range).
  size_t segments_skipped = 0;
  /// Segments excluded by a negative bloom probe (point reads only).
  size_t segments_skipped_bloom = 0;
  /// Data blocks decoded (cache hits + disk reads).
  uint64_t blocks_read = 0;
  /// Of those, served from the block cache.
  uint64_t block_cache_hits = 0;
  /// Bytes actually read from disk for data blocks.
  uint64_t bytes_read = 0;
};

/// Cumulative compaction work counters (write-amplification accounting).
struct CompactionStats {
  uint64_t compactions = 0;       ///< merge passes that committed
  uint64_t trivial_moves = 0;     ///< segments relinked down a level, no IO
  uint64_t input_segments = 0;
  uint64_t output_segments = 0;
  uint64_t bytes_read = 0;        ///< sum of input segment file bytes
  uint64_t bytes_written = 0;     ///< sum of output segment file bytes
  uint64_t rows_dropped = 0;      ///< duplicate (entity, attr, source) rows
};

/// Point-in-time store counters. For a PartitionedTruthStore this is the
/// aggregate over every child partition (counts summed, max_level taken
/// as the max, epoch/generation the composite values).
struct TruthStoreStats {
  uint64_t epoch = 0;
  uint64_t generation = 0;
  size_t num_segments = 0;
  uint64_t segment_rows = 0;
  size_t memtable_rows = 0;
  uint64_t wal_records_replayed = 0;
  bool recovered_torn_tail = false;
  /// Live pin handles (MVCC read snapshots) outstanding right now.
  size_t live_pins = 0;
  /// Segments compacted away but kept on disk because a live pin still
  /// references them; reclaimed when the last referencing pin drops.
  size_t deferred_segments = 0;

  /// Deepest populated level and the L0 (overlapping) segment count.
  uint32_t max_level = 0;
  size_t l0_segments = 0;
  /// The ingest seq the next append is stamped with (for a partitioned
  /// store, the router's global counter).
  uint64_t next_row_seq = 0;
  /// Edit records appended since the last manifest snapshot fold.
  uint64_t manifest_edits_since_snapshot = 0;
  /// Point probes answered "fact cannot exist" purely from blooms,
  /// reading zero data blocks (cumulative).
  uint64_t bloom_point_skips = 0;
  BlockCacheStats block_cache;
  CompactionStats compaction;
};

/// An abstract MVCC read snapshot handle: a TruthStore issues an
/// EpochPin, a PartitionedTruthStore a composite pin over every child.
/// Either way the handle freezes a consistent view of the store: reads
/// through it never race a compaction's file removals and are
/// bit-reproducible at the captured epoch. Must not outlive the store
/// that issued it; must only be passed back to that store, which checks
/// issuer() and rejects any other pin with InvalidArgument.
class StorePin {
 public:
  virtual ~StorePin() = default;

  StorePin(const StorePin&) = delete;
  StorePin& operator=(const StorePin&) = delete;

  /// The (composite) store epoch this pin captured, for posterior-cache
  /// keying. For a partitioned store this is the sum over the pinned
  /// per-partition epochs — one scalar that changes whenever any
  /// partition's data does.
  virtual uint64_t epoch() const = 0;

  /// The store that issued this pin.
  const TruthStoreBase* issuer() const { return issuer_; }

 protected:
  explicit StorePin(const TruthStoreBase* issuer) : issuer_(issuer) {}

 private:
  const TruthStoreBase* issuer_;
};

/// The polymorphic store surface the serving and streaming layers build
/// on: everything a ServeSession / StreamingPipeline needs, implemented
/// by the single-directory TruthStore and by the entity-range
/// PartitionedTruthStore router. Callers that need single-store-only
/// surface (segment listings, the concrete EpochPin API) keep holding a
/// TruthStore directly.
///
/// The store holds stored claims and nothing that depends on a fit:
/// served posteriors depend on a session's installed source quality, so
/// the posterior cache and the refit debounce live in src/serve (one per
/// ServeSession), keyed and driven by the scalar epoch() below.
///
/// Implementations are thread-safe with the same contract as TruthStore:
/// appends, flushes, reads, and one background compaction per partition
/// may run concurrently.
class TruthStoreBase {
 public:
  virtual ~TruthStoreBase() = default;

  TruthStoreBase(const TruthStoreBase&) = delete;
  TruthStoreBase& operator=(const TruthStoreBase&) = delete;

  /// Appends one observation (WAL first, then the memtable). A
  /// partitioned store routes by entity and assigns the record a global
  /// ingest sequence number.
  virtual Status Append(const WalRecord& record) = 0;

  /// Appends every row of `raw` (in row order) and then Sync()s — one
  /// durable group commit per chunk.
  virtual Status AppendRaw(const RawDatabase& raw) = 0;

  /// AppendRaw over `chunk.raw` (convenience for callers that already
  /// materialized the chunk).
  Status AppendDataset(const Dataset& chunk) { return AppendRaw(chunk.raw); }

  /// Makes all buffered appends durable (WAL fsync, all partitions).
  virtual Status Sync() = 0;

  /// Flushes the memtable(s) into immutable L0 segments.
  virtual Status Flush() = 0;

  /// Major compaction (every partition).
  virtual Status Compact() = 0;

  /// One leveled compaction step; a partitioned store fans the step out
  /// across partitions and may rebalance (split/merge) afterwards.
  /// Returns true when any partition did work.
  virtual Result<bool> CompactOnce() = 0;

  /// Acquires an MVCC read snapshot (see StorePin). For a partitioned
  /// store the snapshot pins every partition at a consistent vector
  /// epoch under the routing table lock, so a cross-partition read is a
  /// single point-in-time view.
  virtual std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const = 0;

  /// The raw rows behind a pinned snapshot, in global ingest (seq) order:
  /// every in-range segment row plus the pin's memtable rows, NOT
  /// deduplicated (a duplicate (entity, attribute, source) row counts once,
  /// at its lowest seq, when replayed). The same rows regardless of
  /// partitioning. `pin` must have been issued by this store.
  virtual Result<std::vector<SegmentRow>> SnapshotRows(
      const StorePin& pin, const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr,
      RangeScanStats* stats = nullptr) const = 0;

  /// SnapshotRows replayed in order into a RawDatabase (a duplicate row
  /// collapses onto its first, lowest-seq occurrence): the rows a
  /// Dataset is built from, without its tables.
  Result<RawDatabase> ReplaySnapshot(const StorePin& pin,
                                     const std::string* min_entity = nullptr,
                                     const std::string* max_entity = nullptr,
                                     RangeScanStats* stats = nullptr) const {
    LTM_ASSIGN_OR_RETURN(const std::vector<SegmentRow> rows,
                         SnapshotRows(pin, min_entity, max_entity, stats));
    RawDatabase replayed;
    for (const SegmentRow& row : rows) {
      replayed.Add(row.entity, row.attribute, row.source);
    }
    return replayed;
  }

  /// Materializes from a pinned snapshot: ReplaySnapshot as a Dataset —
  /// bit-identical to what a sequential materialize at the pinned epoch
  /// would produce, regardless of partitioning.
  Result<Dataset> MaterializeSnapshot(const StorePin& pin,
                                      const std::string* min_entity = nullptr,
                                      const std::string* max_entity = nullptr,
                                      RangeScanStats* stats = nullptr) const {
    LTM_ASSIGN_OR_RETURN(RawDatabase raw,
                         ReplaySnapshot(pin, min_entity, max_entity, stats));
    return Dataset::FromRaw("truthstore:" + dir(), std::move(raw));
  }

  /// Bloom-only point probe against a pinned snapshot: false means the
  /// fact definitely does not exist at the pin's epoch.
  virtual Result<bool> SnapshotFactMayExist(
      const StorePin& pin, const std::string& entity,
      const std::string& attribute) const = 0;

  /// Full rebuild in global ingest order: pins the whole store, then
  /// MaterializeSnapshot. When `epoch_out` is non-null it receives the
  /// epoch the materialized data corresponds to.
  Result<Dataset> Materialize(uint64_t* epoch_out = nullptr) const {
    return MaterializePinned(nullptr, nullptr, nullptr, epoch_out);
  }

  /// Rebuild restricted to entities in [min_entity, max_entity]: pins
  /// that range, then MaterializeSnapshot.
  Result<Dataset> MaterializeEntityRange(
      const std::string& min_entity, const std::string& max_entity,
      RangeScanStats* stats = nullptr, uint64_t* epoch_out = nullptr) const {
    return MaterializePinned(&min_entity, &max_entity, stats, epoch_out);
  }

  /// In-memory data version: advances on every append and every manifest
  /// commit (summed over partitions, kept monotone across rebalances) —
  /// the one scalar serving keys cached posteriors on and the
  /// RefitScheduler debounces.
  virtual uint64_t epoch() const = 0;

  virtual TruthStoreStats Stats() const = 0;

  /// Number of entity-range partitions (1 for a plain TruthStore).
  virtual size_t num_partitions() const { return 1; }

  /// The registry this store publishes into. Never null.
  virtual obs::MetricsRegistry* metrics() const = 0;

  virtual const std::string& dir() const = 0;

 protected:
  TruthStoreBase() = default;

  /// `pin` as the concrete pin type this store issues, or InvalidArgument
  /// when another store issued it. A store issues exactly one pin type,
  /// so a matching issuer makes the downcast safe.
  template <typename PinT>
  Result<const PinT*> IssuedPin(const StorePin& pin) const {
    if (pin.issuer() != this) {
      return Status::InvalidArgument("pin was not issued by this store");
    }
    return static_cast<const PinT*>(&pin);
  }

 private:
  /// Pins [*min_entity, *max_entity] (a null bound is open) and
  /// materializes from the pin — one pass, never retried: the pin keeps
  /// every segment file it references on disk.
  Result<Dataset> MaterializePinned(const std::string* min_entity,
                                    const std::string* max_entity,
                                    RangeScanStats* stats,
                                    uint64_t* epoch_out) const {
    const std::unique_ptr<StorePin> pin = PinSnapshot(min_entity, max_entity);
    LTM_ASSIGN_OR_RETURN(
        Dataset ds, MaterializeSnapshot(*pin, min_entity, max_entity, stats));
    if (epoch_out != nullptr) *epoch_out = pin->epoch();
    return ds;
  }
};

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_STORE_BASE_H_
