// bulk_ingest: writes only. W writer threads (W = nproc − 1) load a movie
// world ten times paper scale into a PartitionedTruthStore with one
// entity-range partition per writer as closed-loop durable group commits,
// while the main thread runs the maintenance a deployment runs: a 20 ms
// ticker that flushes once the memtables are full and takes one leveled
// compaction step per tick. Each step may rebalance: two tiny partitions
// at the top of the keyspace merge on the first tick, and large
// partitions split as the load grows. The store ends far beyond the
// 8 MiB block cache. Loads repeat into fresh stores until the run's time
// is used (at least three); per-load figures are medians.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/partitioned_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBulkMovies = 10 * kPaperMovies;
constexpr size_t kCommitRows = 500;
constexpr int64_t kTickNs = 20'000'000;
/// The ticker flushes once the memtables hold this many rows in total. A
/// flush blocks its partition's writer while it writes a segment, so
/// flushing every few ticks would put the disk's latency into most acks.
constexpr size_t kFlushMemtableRows = 64'000;
/// Library spans kept per thread during a load; a writer records one
/// `wal_sync` per partition its commit touches.
constexpr size_t kRecorderSpansPerThread = 1 << 14;
/// Entities in each of the two small partitions at the top of the
/// keyspace (~40 rows each), which merge on the first maintenance tick.
constexpr size_t kMergeEntities = 8;

struct Plan {
  World world;
  ltm::store::PartitionedStoreOptions options;
  /// Writer w loads the entities in [writer_bounds[w-1], writer_bounds[w]).
  std::vector<std::string> writer_bounds;
  /// Per writer: its entity range's rows, in world row order.
  std::vector<ltm::RawDatabase> writer_rows;
};

Plan MakePlan(const Args& args, unsigned writers) {
  Plan p;
  p.world = MakeWorld(kBulkMovies, args.seed);
  const ltm::RawDatabase& raw = p.world.data.raw;
  std::vector<std::string> names;
  for (size_t e = 0; e < raw.NumEntities(); ++e) {
    names.emplace_back(raw.entities().Get(static_cast<ltm::EntityId>(e)));
  }
  std::sort(names.begin(), names.end());
  for (unsigned b = 1; b < writers; ++b) {
    p.writer_bounds.push_back(names[names.size() * b / writers]);
  }
  // One partition per writer, plus two small ones carved off the top of
  // the last writer's range. Together they stay under the merge
  // threshold, so the first compaction step merges them; no other pair
  // is that small once every writer has acknowledged one commit.
  p.options.initial_boundaries = p.writer_bounds;
  p.options.initial_boundaries.push_back(names[names.size() - 2 * kMergeEntities]);
  p.options.initial_boundaries.push_back(names[names.size() - kMergeEntities]);
  p.options.partitions = p.options.initial_boundaries.size() + 1;
  p.options.merge_threshold_rows = kCommitRows;
  // Splits at a quarter of the world make the router rebalance several
  // times per load.
  p.options.split_threshold_rows = raw.NumRows() / 4;
  p.options.max_partitions = 16;
  p.writer_rows.resize(writers);
  for (const ltm::RawRow& row : raw.rows()) {
    const std::string_view entity = raw.entities().Get(row.entity);
    const auto& bounds = p.writer_bounds;
    const size_t w = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), entity) - bounds.begin());
    p.writer_rows[w].Add(entity, raw.attributes().Get(row.attribute),
                         raw.sources().Get(row.source));
  }
  return p;
}

struct Round {
  double rows_per_s = 0.0;
  /// Time until the last writer's last ack, within the load's wall time.
  double writers_s = 0.0;
  double seconds = 0.0;
  double disk_bytes_per_row = 0.0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  std::vector<double> ack_us;
  /// Each ack less the WAL fsync time inside it.
  std::vector<double> ack_less_sync_us;
  double sync_us_per_commit = 0.0;
  std::vector<double> lateness_us;
  std::vector<double> traced_us, untraced_us;
  SpanLog spans;
  /// Summed over every partition the load created, retired ones included.
  ltm::store::CompactionStats compaction;
};

/// Subtracts from each commit of one writer the WAL fsync time inside it:
/// the library's `wal_sync` spans on the writer's thread (`lane`) that
/// start within the commit. Appends the results to `out`; returns the
/// number of commits in which no fsync was recorded.
uint64_t SubtractSyncs(const LoopResult& part, int64_t start_ns, uint32_t lane,
                       const std::vector<ltm::obs::TraceEvent>& events,
                       int64_t recorder_t0_ns, double* sync_us_total,
                       std::vector<double>* out) {
  const size_t n = part.latency_us.size();
  std::vector<double> sync_us(n, 0.0);
  std::vector<bool> synced(n, false);
  auto end_ns = [&](size_t i) {
    return start_ns + part.offset_ns[i] + static_cast<int64_t>(part.latency_us[i] * 1e3);
  };
  size_t c = 0;
  for (const ltm::obs::TraceEvent& e : events) {  // sorted by start
    if (e.tid != lane || std::strcmp(e.name, "wal_sync") != 0) continue;
    const int64_t at = recorder_t0_ns + static_cast<int64_t>(e.ts_us) * 1000;
    while (c < n && end_ns(c) < at) ++c;
    if (c == n) break;
    sync_us[c] += static_cast<double>(e.dur_us);
    synced[c] = true;
  }
  uint64_t unsynced = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!synced[i]) ++unsynced;
    *sync_us_total += sync_us[i];
    out->push_back(part.latency_us[i] - sync_us[i]);
  }
  return unsynced;
}

/// One full load into a fresh store at `dir`; the store stays open in
/// `*out_store` for the checks.
ltm::Status LoadOnce(const Plan& plan, const std::string& dir, bool trace,
                     ltm::obs::MetricsRegistry* registry, Round* round,
                     std::unique_ptr<ltm::store::PartitionedTruthStore>* out_store,
                     Report* report) {
  ltm::store::PartitionedStoreOptions options = plan.options;
  options.store.metrics = registry;
  LTM_ASSIGN_OR_RETURN(*out_store,
                       ltm::store::PartitionedTruthStore::Open(dir, options));
  ltm::store::PartitionedTruthStore* store = out_store->get();
  const size_t writers = plan.writer_rows.size();
  std::vector<LoopResult> parts(writers);
  std::vector<uint64_t> acked_rows(writers, 0);
  std::vector<uint32_t> lanes(writers, 0);
  std::atomic<size_t> writers_done{0};
  // The WAL fsync inside each commit comes from the library's own
  // `wal_sync` span, so the figure gated below is the store's part of
  // the ack: the shared disk's fsync latency swings several-fold.
  ltm::obs::TraceRecorder& recorder = ltm::obs::TraceRecorder::Global();
  recorder.Enable(kRecorderSpansPerThread);
  const int64_t recorder_t0_ns = NowNs() - static_cast<int64_t>(recorder.NowMicros()) * 1000;
  const int64_t start = NowNs();
  auto writer = [&](size_t w) {
    LoopResult* out = &parts[w];
    lanes[w] = static_cast<uint32_t>(ltm::obs::ThreadIndex());
    const ltm::RawDatabase& rows = plan.writer_rows[w];
    for (size_t begin = 0; begin < rows.NumRows(); begin += kCommitRows) {
      // The batch is built before the clock starts: the ack times the
      // store, not the load generator.
      const ltm::RawDatabase batch =
          RowRange(rows, begin, std::min(rows.NumRows(), begin + kCommitRows));
      const int64_t t0 = NowNs();
      SpanLog* log = TracedWindow(trace, t0 - start) ? &out->spans : nullptr;
      const uint64_t request = log != nullptr ? NextSpanId() : 0;
      ltm::Status st;
      {
        ScopedSpan cycle(log, "ingest.cycle", request);
        ScopedSpan span(log, "store.append", request, cycle.id());
        st = store->AppendRaw(batch);
        if (st.ok()) acked_rows[w] += batch.NumRows();
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      ++out->attempted;
      if (!st.ok()) ++out->failed;
      out->latency_us.push_back(st.ok() ? us : kFailedLatencyUs);
      out->offset_ns.push_back(t0 - start);
      if (trace) (log != nullptr ? out->traced_us : out->untraced_us).push_back(us);
    }
    writers_done.fetch_add(1, std::memory_order_release);
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) threads.emplace_back(writer, w);

  // Maintenance ticker on this thread.
  SpanLog tick_log;
  auto maintain = [&](SpanLog* log) -> ltm::Status {
    const uint64_t request = log != nullptr ? NextSpanId() : 0;
    ScopedSpan cycle(log, "ingest.cycle", request);
    if (store->Stats().memtable_rows >= kFlushMemtableRows) {
      ScopedSpan span(log, "store.flush", request, cycle.id());
      LTM_RETURN_IF_ERROR(store->Flush());
    }
    ScopedSpan span(log, "store.compact", request, cycle.id());
    LTM_ASSIGN_OR_RETURN(const bool worked, store->CompactOnce());
    if (!worked) span.Drop();
    return ltm::Status::OK();
  };
  ltm::Status maintenance;
  for (int64_t tick = 1;
       writers_done.load(std::memory_order_acquire) < writers; ++tick) {
    const int64_t intended = start + tick * kTickNs;
    const int64_t sent = WaitUntil(intended);
    round->lateness_us.push_back(
        static_cast<double>(LatenessNs(intended, sent)) / 1e3);
    SpanLog* log = TracedWindow(trace, intended - start) ? &tick_log : nullptr;
    maintenance = maintain(log);
    if (!maintenance.ok()) break;
  }
  for (std::thread& t : threads) t.join();
  round->writers_s = static_cast<double>(NowNs() - start) / 1e9;
  LTM_RETURN_IF_ERROR(maintenance);
  // Quiesce: flush what is left, then compact until no level needs work.
  {
    SpanLog* log = trace ? &tick_log : nullptr;
    const uint64_t request = log != nullptr ? NextSpanId() : 0;
    ScopedSpan cycle(log, "ingest.cycle", request);
    ScopedSpan span(log, "store.flush", request, cycle.id());
    LTM_RETURN_IF_ERROR(store->Flush());
  }
  LTM_RETURN_IF_ERROR(CompactUntilQuiet(store, nullptr, 0, 0));
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  round->seconds = seconds;
  const std::vector<ltm::obs::TraceEvent> events = recorder.Collect();
  recorder.Disable();
  uint64_t unsynced = 0;
  double sync_us = 0.0;
  for (size_t w = 0; w < writers; ++w) {
    unsynced += SubtractSyncs(parts[w], start, lanes[w], events, recorder_t0_ns,
                              &sync_us, &round->ack_less_sync_us);
  }
  report->Check(unsynced == 0, std::to_string(unsynced) +
                                   " commit(s) without a recorded WAL fsync");

  LoopResult merged = MergeLoopResults(&parts);
  report->AddOps(merged.attempted, merged.failed);
  uint64_t acked = 0;
  for (const uint64_t rows : acked_rows) acked += rows;
  round->rows_per_s = static_cast<double>(acked) / seconds;
  round->disk_bytes_per_row =
      static_cast<double>(DirBytes(dir)) / static_cast<double>(std::max<uint64_t>(1, acked));
  round->sync_us_per_commit =
      sync_us / static_cast<double>(std::max<size_t>(1, merged.latency_us.size()));
  round->ack_us = std::move(merged.latency_us);
  round->traced_us = std::move(merged.traced_us);
  round->untraced_us = std::move(merged.untraced_us);
  round->spans = std::move(merged.spans);
  round->spans.insert(round->spans.end(), tick_log.begin(), tick_log.end());
  // Child stores label their counters with their partition id, and a
  // rebalance retires children, so sum the registry over every id.
  for (uint64_t id = 0; id < 4 * plan.options.max_partitions; ++id) {
    const std::string label = "{partition=\"" + std::to_string(id) + "\"}";
    round->compaction.compactions +=
        registry->CounterValue("ltm_store_compactions_total" + label);
    round->compaction.bytes_written +=
        registry->CounterValue("ltm_store_compaction_bytes_written_total" + label);
  }
  round->splits = registry->CounterValue("ltm_store_partition_splits_total");
  round->merges = registry->CounterValue("ltm_store_partition_merges_total");
  return ltm::Status::OK();
}

/// Reopens the store at `dir` and checks it holds exactly the world's
/// rows: every acknowledged row present, nothing never appended.
void CheckReopened(const Plan& plan, const std::string& dir,
                   std::unique_ptr<ltm::store::PartitionedTruthStore>* store,
                   Report* report) {
  store->reset();
  auto reopened = ltm::store::PartitionedTruthStore::Open(dir, plan.options);
  if (!CheckOk(reopened.status(), "reopen", report)) return;
  *store = std::move(*reopened);
  const ltm::Result<ltm::Dataset> data = (*store)->Materialize();
  if (!CheckOk(data.status(), "Materialize after reopen", report)) return;
  const ltm::RawDatabase& want = plan.world.data.raw;
  const ltm::RawDatabase& got = data->raw;
  uint64_t missing = 0;
  for (const ltm::RawRow& row : want.rows()) {
    const auto e = got.entities().Find(want.entities().Get(row.entity));
    const auto a = got.attributes().Find(want.attributes().Get(row.attribute));
    const auto s = got.sources().Find(want.sources().Get(row.source));
    if (!e || !a || !s || !got.Contains(*e, *a, *s)) ++missing;
  }
  report->Check(missing == 0, std::to_string(missing) +
                                  " acknowledged row(s) missing after reopen");
  // The store is a set of rows, so anything beyond the present world rows
  // was never appended.
  const uint64_t extra = got.NumRows() - (want.NumRows() - missing);
  report->Check(extra == 0, std::to_string(extra) +
                                " row(s) present that were never appended");
}

}  // namespace

void RunBulkIngest(const Args& args, Report* report) {
  const unsigned writers = std::max(1u, Nproc() - 1);
  Plan plan;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) {
    const int64_t t0 = NowNs();
    plan = MakePlan(args, writers);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("bulk_ingest: %zu rows, %u writers into %zu partitions, %zu-row "
              "commits\n",
              plan.world.data.raw.NumRows(), writers, plan.options.partitions,
              kCommitRows);

  std::vector<Round> rounds;
  // Each load publishes into a fresh registry that outlives its store.
  std::unique_ptr<ltm::obs::MetricsRegistry> registry;
  std::unique_ptr<ltm::store::PartitionedTruthStore> store;
  std::string dir;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    store.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = FreshDir(args, "store" + std::to_string(rounds.size()));
    rounds.emplace_back();
    registry = std::make_unique<ltm::obs::MetricsRegistry>();
    if (!CheckOk(LoadOnce(plan, dir, args.trace, registry.get(), &rounds.back(),
                          &store, report),
                 "load", report)) {
      return;
    }
    std::printf("  load %zu: %.0f rows/s (writers %.2fs, quiesced %.2fs), %llu "
                "split(s), %llu merge(s), %.1f B/row\n",
                rounds.size(), rounds.back().rows_per_s, rounds.back().writers_s,
                rounds.back().seconds,
                static_cast<unsigned long long>(rounds.back().splits),
                static_cast<unsigned long long>(rounds.back().merges),
                rounds.back().disk_bytes_per_row);
  } while (NowNs() < deadline || rounds.size() < 3);

  CheckReopened(plan, dir, &store, report);
  const ltm::Result<Serving> serving =
      StartServing(store.get(), plan.world.ltm, 0);
  if (!CheckOk(serving.status(), "fit on the reopened store", report)) return;
  const ltm::Result<double> auc = ServedAuc(*serving, plan.world);
  if (CheckOk(auc.status(), "served AUC", report)) {
    report->Check(*auc >= kFitAucFloor, "fit_auc below the recorded floor");
  }

  // Each per-load figure is the median over the loads.
  auto median = [&](auto field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(static_cast<double>(field(r)));
    return Summarize(&v).p50;
  };
  if (!args.trace) {
    PublishSetup(setup_s, report);
    report->Set("throughput", median([](const Round& r) { return r.rows_per_s; }),
                "1/s");
    std::vector<double> acks;
    for (const Round& r : rounds) acks.insert(acks.end(), r.ack_us.begin(), r.ack_us.end());
    std::vector<double> local;
    for (const Round& r : rounds) {
      local.insert(local.end(), r.ack_less_sync_us.begin(), r.ack_less_sync_us.end());
    }
    std::printf("  group-commit ack: %s\n  ack less WAL fsync: %s\n"
                "  WAL fsync per commit: %.1f us (median over loads)\n",
                FormatSummary(Summarize(&acks), "us").c_str(),
                FormatSummary(Summarize(&local), "us").c_str(),
                median([](const Round& r) { return r.sync_us_per_commit; }));
    for (Round& r : rounds) {
      std::sort(r.ack_less_sync_us.begin(), r.ack_less_sync_us.end());
    }
    report->Set("latency_p50_us", median([](const Round& r) {
                  return NearestRank(r.ack_less_sync_us, 50.0);
                }),
                "us");
    report->Set("disk_bytes_per_row",
                median([](const Round& r) { return r.disk_bytes_per_row; }),
                "B/row");
    report->Set("fit_auc", auc.ok() ? *auc : 0.0, "1");
    report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }
  std::vector<double> lateness, traced, untraced;
  SpanLog spans;
  for (const Round& r : rounds) {
    lateness.insert(lateness.end(), r.lateness_us.begin(), r.lateness_us.end());
    traced.insert(traced.end(), r.traced_us.begin(), r.traced_us.end());
    untraced.insert(untraced.end(), r.untraced_us.begin(), r.untraced_us.end());
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
  }
  PublishLateness(lateness, report);
  PublishOverhead(traced, untraced, report);
  PublishIngestSpans(spans, report);
  ltm::store::CompactionStats compaction;
  compaction.compactions = static_cast<uint64_t>(
      median([](const Round& r) { return r.compaction.compactions; }));
  compaction.bytes_written = static_cast<uint64_t>(
      median([](const Round& r) { return r.compaction.bytes_written; }));
  PublishCompaction(compaction, plan.world.data.raw.NumRows(), report);
  report->Set("store.rebalances",
              median([](const Round& r) { return r.splits + r.merges; }), "count");
  const ltm::serve::ServeStats before = serving->session->Stats();
  SpanLog probe_log;
  ServeProbe(*serving, DistinctEntitySample(AllFacts(plan.world.data), 1000, args.seed + 1),
             &probe_log, report);
  PublishServeCounters(before, serving->session->Stats(), report);
  RefitProbe(*serving, &probe_log, report);
}

}  // namespace perfbench
