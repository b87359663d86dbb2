#ifndef LTM_STORE_TRUTH_STORE_H_
#define LTM_STORE_TRUTH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/manifest.h"
#include "store/segment.h"
#include "store/store_base.h"
#include "store/wal.h"

namespace ltm {
namespace store {

/// Knobs for a TruthStore instance.
struct TruthStoreOptions {
  /// fsync the WAL after every append. Off by default: appends are
  /// durable at the next Sync()/Flush() (group commit), and a crash loses
  /// at most the unsynced suffix.
  bool sync_every_append = false;

  /// Bloom filter bits per key in each segment (0 disables blooms).
  uint32_t bloom_bits_per_key = 10;
  /// Sharded block cache budget in MiB (0 disables the cache).
  size_t block_cache_mb = 8;

  /// Leveled compaction: byte budget of L1; each deeper level gets 10x
  /// the previous.
  uint64_t level_base_bytes = 4ull << 20;

  /// Label text merged into every `ltm_store_*` metric name this store
  /// registers (e.g. `partition="3"` makes
  /// `ltm_store_flushes_total{partition="3"}`). Empty (the default)
  /// keeps the unlabeled names. The partitioned router labels each child
  /// so one registry exposes per-partition series side by side.
  std::string metrics_label;

  /// Registry the store (and its block cache / serving session) publishes
  /// `ltm_store_*` / `ltm_cache_*` / `ltm_serve_*` metrics into. Null
  /// (the default) gives the store a private registry — instances stay
  /// isolated, which is what tests want. Processes with one exposition
  /// surface (the CLIs, the benches) pass
  /// `&obs::MetricsRegistry::Global()`. Must outlive the store.
  obs::MetricsRegistry* metrics = nullptr;
};

class TruthStore;

/// A ref-counted MVCC read snapshot of the store at one epoch: the
/// committed segment list plus a copy of the memtable rows at pin time.
/// While a pin is alive, compaction defers deleting any segment file the
/// pin references, so reads against the pin never race file removal and
/// never block appends, flushes, or compaction. Dropping the last pin on
/// a superseded segment reclaims its file.
///
/// Obtained from TruthStore::PinEpoch(); read via SnapshotRows() or
/// MaterializeSnapshot(). A pin created with entity bounds only holds the
/// memtable rows inside those bounds — reading a wider range from it
/// would silently miss rows, so keep requests within the pin's bounds
/// (the reads re-apply their own bounds on top).
///
/// Thread-safe for concurrent reads; the handle itself must be destroyed
/// on one thread. Must not outlive the TruthStore that issued it.
class EpochPin : public StorePin {
 public:
  ~EpochPin() override;

  /// Holds a back-reference into the issuing store's refcount table;
  /// duplicating it would double-release.
  EpochPin(EpochPin&&) = delete;
  EpochPin& operator=(EpochPin&&) = delete;

  /// The store epoch this pin captured (for posterior-cache keying).
  uint64_t epoch() const override { return epoch_; }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  const std::vector<WalRecord>& memtable_rows() const {
    return memtable_rows_;
  }

 private:
  friend class TruthStore;
  EpochPin(const TruthStore* store, uint64_t epoch,
           std::vector<SegmentInfo> segments,
           std::vector<WalRecord> memtable_rows);

  uint64_t epoch_;
  std::vector<SegmentInfo> segments_;
  std::vector<WalRecord> memtable_rows_;
};

/// Offline integrity report (see TruthStore::Verify).
struct StoreVerifyReport {
  uint64_t generation = 0;
  size_t segments = 0;
  uint64_t segment_rows = 0;
  uint32_t max_level = 0;
  uint64_t manifest_edits = 0;
  bool manifest_torn_tail = false;
  uint64_t wal_records = 0;
  bool wal_torn_tail = false;
  std::vector<std::string> orphan_files;

  std::string Summary() const;
};

/// A WAL-backed incremental claim store: the durable substrate for the
/// §5.4 deployment story (LTMinc answers online while batch LTM refits
/// periodically). A leveled LSM:
///
///   Append ─► WAL (checksummed records, group-commit fsync)
///          └► memtable (an in-memory RawDatabase delta)
///   Flush  ─► the memtable's rows, each keeping its ingest sequence
///             number, become an immutable block segment at L0
///             (restartable prefix-compressed blocks + block index +
///             bloom filter, see segment.h) + the WAL rotates + one
///             version-edit record appends to the MANIFEST
///   CompactOnce ─► one leveled step: L0 segments (overlapping ranges)
///                  merge into L1; an over-budget level spills one
///                  segment into the next. L1+ entity ranges within a
///                  level are disjoint, so a point read touches at most
///                  one segment per deep level.
///   Compact ─► major: every segment merges into the bottom level.
///
/// Every commit appends one checksummed version-edit record (O(delta),
/// not O(segments)), folding into a fresh snapshot every 32 edits
/// (kManifestSnapshotEvery) via the atomic temp + fsync + rename
/// protocol — so every crash lands on a well-defined state: the committed
/// segment set plus the active WAL's intact record prefix. Open() replays
/// that WAL tail over the newest segment set, truncates any torn WAL or
/// MANIFEST suffix, and removes orphan files from interrupted
/// flushes/compactions.
///
/// Replay order is carried by the rows themselves. One sequencing rule:
/// every record is stamped with its ingest sequence number ("seq") when
/// it is appended, and the seq travels with the row through the WAL, the
/// memtable, flush and compaction. Append() and AppendRaw() take the next
/// value of the store's own counter; the partitioned router instead
/// hands its children records carrying the global seqs it assigned
/// (AppendRecords, reachable only by the router). On Open the counter
/// recovers as the max of the manifest's next_row_seq and every replayed
/// WAL seq + 1, so seqs never repeat across a crash. A duplicate
/// (entity, attribute, source) row keeps its first occurrence's seq.
/// Materialize() sorts the selected rows by seq and re-adds them in
/// order — the exact row order batch ingestion would have seen,
/// regardless of which level compaction moved a row to — so downstream
/// posteriors are bit-identical to a one-shot batch load. Point reads go
/// bloom filter → block index binary search → ONE data block (through the
/// shared block cache); MaterializeEntityRange() additionally skips whole
/// segments via manifest zone stats.
///
/// Thread-safe: appends, flushes, reads, and one background compaction
/// may run concurrently. Not multi-process-safe — one TruthStore instance
/// owns a directory at a time.
class TruthStore : public TruthStoreBase {
 public:
  /// Opens (or initializes) the store at `dir`, creating the directory if
  /// needed, and runs crash recovery as described above.
  static Result<std::unique_ptr<TruthStore>> Open(
      const std::string& dir, TruthStoreOptions options = TruthStoreOptions());

  /// Owns a directory, a WAL appender, and a mutex — copying or moving a
  /// live store could never be correct, so both are compile errors.
  TruthStore(TruthStore&&) = delete;
  TruthStore& operator=(TruthStore&&) = delete;

  /// Appends one observation: WAL first, then the memtable. Records with
  /// observation != 1 are rejected (explicit negative claims are reserved
  /// in the record format but not yet served). Never flushes: callers
  /// decide when the memtable becomes a segment. The record's `seq` is
  /// ignored: the store stamps the next value of its own counter.
  Status Append(const WalRecord& record) override LTM_EXCLUDES(mu_);

  /// Appends every row of `raw` (in row order, each stamped from the
  /// store's counter) and then Sync()s — one durable group commit per
  /// chunk. The ingest fast path: no fact table or claim graph is needed
  /// or built.
  Status AppendRaw(const RawDatabase& raw) override LTM_EXCLUDES(mu_);

  /// Makes all buffered appends durable (WAL fsync).
  Status Sync() override LTM_EXCLUDES(mu_);

  /// Writes the memtable as a new immutable L0 block segment, rotates the
  /// WAL, and appends a manifest edit. No-op on an empty memtable.
  Status Flush() override LTM_EXCLUDES(mu_);

  /// Major compaction: merges every segment into the bottom level
  /// (duplicate (entity, attribute, source) rows collapse to their
  /// first-ingested occurrence), splitting outputs at entity boundaries
  /// near 4 MiB (kSegmentTargetBytes). No-op with fewer than two segments.
  /// Appends may proceed concurrently; segments flushed while the merge
  /// runs survive unmerged, so a caller may run it on a background pool.
  /// At most one compaction at a time — a second concurrent call fails
  /// with FailedPrecondition.
  Status Compact() override LTM_EXCLUDES(mu_);

  /// One leveled compaction step, or nothing: merges all of L0 into L1
  /// once four L0 segments exist (kL0CompactionTrigger), else spills one
  /// segment from the shallowest over-budget level into the next (a
  /// segment with no next-level overlap is relinked without rewriting).
  /// Returns false when no level needed work. Same single-compaction
  /// exclusivity as Compact().
  Result<bool> CompactOnce() override LTM_EXCLUDES(mu_);

  /// Acquires an MVCC read snapshot at the current epoch: copies the
  /// committed segment list (bumping each segment's pin refcount so
  /// compaction defers deleting its file) and the memtable rows
  /// (restricted to [*min_entity, *max_entity] when non-null). Cheap for
  /// point reads — only the matching memtable rows are copied. The pin
  /// must not outlive this store.
  std::unique_ptr<EpochPin> PinEpoch(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const LTM_EXCLUDES(mu_);

  // TruthStoreBase snapshot surface. PinSnapshot is PinEpoch behind the
  // base type; a pin passed back must be one this store issued
  // (InvalidArgument otherwise).
  std::unique_ptr<StorePin> PinSnapshot(
      const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr) const override;

  /// The rows behind a pin: the in-range rows of every zone-overlapping
  /// segment (bloom-skipping segments on point reads, seeking only
  /// index-selected blocks through the block cache) plus the pin's
  /// memtable rows, sorted by ingest seq — the replay order a sequential
  /// materialize at the pin's epoch uses, so posteriors computed from a
  /// pin are bit-identical. Never retries: the pin's refcounts guarantee
  /// every referenced segment file still exists. `min_entity`/`max_entity`
  /// further restrict the read (must be within the pin's own bounds, if
  /// it has them).
  Result<std::vector<SegmentRow>> SnapshotRows(
      const StorePin& pin, const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr,
      RangeScanStats* stats = nullptr) const override;

  /// Bloom-only point probe: can fact (entity, attribute) possibly exist
  /// at the pin's epoch? Checks the pin's memtable rows exactly, then
  /// probes the bloom filter of every zone-overlapping segment — no data
  /// block is read. False means definitely absent (blooms have no false
  /// negatives), so the caller can serve the no-claim prior without
  /// materializing anything; such all-negative probes are counted in
  /// TruthStoreStats::bloom_point_skips.
  Result<bool> SnapshotFactMayExist(const StorePin& pin,
                                    const std::string& entity,
                                    const std::string& attribute)
      const override;

  /// In-memory data version: advances on every append and every manifest
  /// commit.
  uint64_t epoch() const override LTM_EXCLUDES(mu_);

  TruthStoreStats Stats() const override LTM_EXCLUDES(mu_);

  /// Copy of the committed segment list (observability: store_cli
  /// inspect walks it to print per-level layout and bloom geometry).
  std::vector<SegmentInfo> segments() const LTM_EXCLUDES(mu_);

  /// Live EpochPin handles outstanding (observability + tests).
  size_t num_pinned_epochs() const LTM_EXCLUDES(mu_);
  /// Superseded segments whose files are retained for live pins.
  size_t num_deferred_segments() const LTM_EXCLUDES(mu_);

  /// The shared data-block cache (internally thread-safe).
  BlockCache& block_cache() const { return block_cache_; }

  /// The registry this store publishes into: the injected
  /// TruthStoreOptions::metrics, or the store's own private registry.
  /// Serving components layered on the store (ServeSession,
  /// RefitScheduler) register their metrics here so one RenderText()
  /// covers the whole stack. Never null.
  obs::MetricsRegistry* metrics() const override { return metrics_; }

  const std::string& dir() const override { return dir_; }

  /// Offline integrity check of a store directory: manifest readable,
  /// every segment parses with valid checksums end to end and matches its
  /// manifest zone stats, levels >= 1 hold disjoint entity ranges, the
  /// WAL replays (reporting torn tails), and orphan files are listed.
  /// Does not modify anything.
  static Result<StoreVerifyReport> Verify(const std::string& dir);

 private:
  friend class EpochPin;
  friend class PartitionedTruthStore;

  TruthStore(std::string dir, TruthStoreOptions options);

  /// Appends `records` in order under one lock hold, each keeping the
  /// seq its caller assigned (the counter advances past the largest).
  /// Does not sync. The partitioned router's path: it splits a chunk by
  /// entity range and hands each child its slice.
  Status AppendRecords(const std::vector<WalRecord>& records)
      LTM_EXCLUDES(mu_);

  /// The WAL record for `row` of `raw`, stamped with ingest seq `seq` —
  /// the one RawRow-to-record conversion both stores' AppendRaw use.
  static WalRecord RawRowRecord(const RawDatabase& raw, const RawRow& row,
                                uint64_t seq);

  /// The raw rows behind a pin — every in-range segment row plus the
  /// pin's memtable rows, each carrying its ingest seq, sorted by seq.
  /// NOT deduplicated. SnapshotRows behind an issuer check; also the
  /// input of the partitioned store's cross-partition merge and rebalance
  /// copies.
  Result<std::vector<SegmentRow>> CollectPinnedRows(
      const EpochPin& pin, const std::string* min_entity = nullptr,
      const std::string* max_entity = nullptr,
      RangeScanStats* stats = nullptr) const;

  /// EpochPin's destructor: drops the pin's segment references and
  /// deletes any deferred segment file whose last reference this was.
  void ReleasePin(const EpochPin& pin) const LTM_EXCLUDES(mu_);

  /// Appends `record` as stamped (its seq included) to the WAL and the
  /// memtable, advancing next_seq_ past it.
  Status AppendLocked(const WalRecord& record) LTM_REQUIRES(mu_);
  /// Merges `inputs` into `output_level`, commits, and defers or deletes
  /// the superseded files. Runs with the compacting_ flag held; takes and
  /// releases mu_ around its capture and commit phases.
  Status CompactSegmentsInner(const std::vector<SegmentInfo>& inputs,
                              uint32_t output_level) LTM_EXCLUDES(mu_);
  /// Relinks `seg` to `output_level` without rewriting its file.
  Status TrivialMoveInner(const SegmentInfo& seg, uint32_t output_level)
      LTM_EXCLUDES(mu_);
  /// Commits `next` (already validated), appending `edit` or folding the
  /// log into a snapshot per kManifestSnapshotEvery. Returns false for
  /// a clean commit, true when the new state is visible on disk but its
  /// durability degraded (the caller must then keep superseded files so a
  /// power-loss rollback still finds them). Other failures propagate.
  Result<bool> CommitVersionLocked(const Manifest& next,
                                   const VersionEdit& edit) LTM_REQUIRES(mu_);
  /// Cached random-access reader for `seg`, opened on first use.
  Result<std::shared_ptr<BlockSegmentReader>> GetReader(
      const SegmentInfo& seg) const LTM_EXCLUDES(readers_mu_);
  /// Rows in `segs` by their footers (each bounded by its file at Open),
  /// so a full read can reserve once instead of regrowing a vector whose
  /// freed buffers stay resident.
  Result<size_t> FooterRows(const std::vector<SegmentInfo>& segs) const;
  /// Drops the cached reader and every cached block of segment `id`
  /// (called just before its file is deleted).
  void DropSegmentCaches(uint64_t id) const LTM_EXCLUDES(readers_mu_);
  BlockSegmentWriterOptions WriterOptions() const;
  std::string SegmentPath(const SegmentInfo& seg) const;
  std::string WalPath(const std::string& file) const;

  const std::string dir_;
  const TruthStoreOptions options_;

  mutable Mutex mu_;
  Manifest manifest_ LTM_GUARDED_BY(mu_);
  RawDatabase memtable_ LTM_GUARDED_BY(mu_);
  /// The ingest seq of memtable row i (the memtable dedups, so a seq is
  /// recorded only when its Add grew the row count — keeping the FIRST
  /// occurrence's seq, the same rule compaction applies).
  std::vector<uint64_t> memtable_seqs_ LTM_GUARDED_BY(mu_);
  /// The seq Append/AppendRaw stamp next; always above every seq this
  /// store has logged.
  uint64_t next_seq_ LTM_GUARDED_BY(mu_) = 0;
  std::optional<WalWriter> wal_ LTM_GUARDED_BY(mu_);
  uint64_t epoch_ LTM_GUARDED_BY(mu_) = 0;
  uint64_t wal_records_replayed_ LTM_GUARDED_BY(mu_) = 0;
  bool recovered_torn_tail_ LTM_GUARDED_BY(mu_) = false;
  bool compacting_ LTM_GUARDED_BY(mu_) = false;
  size_t edits_since_snapshot_ LTM_GUARDED_BY(mu_) = 0;

  /// MVCC pin state (mutable: pinning is a const read-side operation).
  /// pin_refs_ maps segment id -> number of live pins referencing it;
  /// deferred_segments_ holds segments compacted out of the manifest
  /// whose files must survive until their refcount drops to zero.
  mutable std::unordered_map<uint64_t, uint32_t> pin_refs_
      LTM_GUARDED_BY(mu_);
  mutable size_t live_pins_ LTM_GUARDED_BY(mu_) = 0;
  mutable std::vector<SegmentInfo> deferred_segments_ LTM_GUARDED_BY(mu_);

  /// Open segment readers, keyed by segment id (ids are never reused).
  mutable Mutex readers_mu_;
  mutable std::unordered_map<uint64_t, std::shared_ptr<BlockSegmentReader>>
      readers_ LTM_GUARDED_BY(readers_mu_);

  /// Registry plumbing. owned_metrics_ backs metrics_ when no registry
  /// was injected; both are declared before the block cache so the
  /// registry exists when its constructor registers `ltm_cache_*` metrics.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // never null

  /// `ltm_store_*` metrics, resolved once in the constructor. Counter
  /// increments happen inside the same mu_-held regions that used to
  /// mutate the ad-hoc stats structs, so cross-counter invariants (e.g.
  /// input vs output segment totals) stay consistent under the lock.
  obs::Counter* wal_appends_;
  obs::Counter* wal_syncs_;
  obs::Histogram* wal_append_micros_;
  obs::Histogram* wal_sync_micros_;
  obs::Counter* flushes_;
  obs::Counter* flush_rows_;
  obs::Histogram* flush_micros_;
  obs::Counter* compactions_;
  obs::Counter* compaction_trivial_moves_;
  obs::Counter* compaction_input_segments_;
  obs::Counter* compaction_output_segments_;
  obs::Counter* compaction_bytes_read_;
  obs::Counter* compaction_bytes_written_;
  obs::Counter* compaction_rows_dropped_;
  obs::Histogram* compaction_micros_;
  /// All-negative SnapshotFactMayExist probes (zero blocks read).
  obs::Counter* bloom_point_skips_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* memtable_rows_gauge_;
  obs::Gauge* live_pins_gauge_;

  mutable BlockCache block_cache_;
};

/// Formats a segment filename ("seg-000042.blk") / WAL filename
/// ("wal-000007.log") for `id`.
std::string SegmentFileName(uint64_t id);
std::string WalFileName(uint64_t seq);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_TRUTH_STORE_H_
