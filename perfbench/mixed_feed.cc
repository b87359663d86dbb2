// mixed_feed: the §5.4 deployment. A single-partition store is
// bootstrapped on half the paper-scale world; the other half arrives as a
// finite open-loop feed of small durable group commits at a fixed rate
// (the writer flushes and takes a compaction step every 1,000 rows), so
// the final store is the same in every run. Reads arrive open-loop at a
// fixed rate with Zipf-skewed keys whose hot set fits the posterior
// cache. The session's RefitScheduler refits in the background after
// every epoch advance; each append invalidates cached posteriors and each
// quality install clears the cache.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kFeedRows = 100;
constexpr double kFeedCommitsPerS = 50.0;
constexpr size_t kCompactEveryCommits = 10;
constexpr double kReadRate = 2000.0;
constexpr double kZipfExponent = 1.1;  // Rng::Zipf needs s > 1
constexpr int64_t kPollNs = 10'000'000;
/// Library spans kept per thread while the feed runs; the refit pool
/// thread records ~62 per refit (the refit and its Gibbs sweeps).
constexpr size_t kRecorderSpansPerThread = 1 << 14;

/// One poll of the refit scheduler.
struct Poll {
  int64_t at_ns = 0;
  uint64_t last_fit_epoch = 0;
  bool in_flight = false;
};

}  // namespace

void RunMixedFeed(const Args& args, Report* report) {
  SpanLog setup_log;
  Deployment d;
  const ltm::Result<std::vector<double>> setup_s =
      SetUpDeployment(args, args.trace ? 1 : 5, /*hold_back_feed=*/true,
                      /*commits=*/8, /*refit_debounce_epochs=*/1,
                      args.trace ? &setup_log : nullptr, &d);
  if (!CheckOk(setup_s.status(), "set-up", report)) return;
  ltm::serve::ServeSession* session = d.serving.session.get();
  ltm::store::TruthStore* store = d.store.get();
  const std::vector<ltm::serve::FactRef> facts = AllFacts(d.world.data);

  // The feed's batches and the read keys, fixed before the clock starts.
  std::vector<ltm::RawDatabase> batches;
  for (size_t b = 0; b < d.feed.raw.NumRows(); b += kFeedRows) {
    batches.push_back(
        RowRange(d.feed.raw, b, std::min(d.feed.raw.NumRows(), b + kFeedRows)));
  }
  const double feed_seconds = static_cast<double>(batches.size()) / kFeedCommitsPerS;
  const std::vector<int64_t> feed_schedule =
      UniformSchedule(kFeedCommitsPerS, batches.size());
  const size_t reads = static_cast<size_t>(kReadRate * feed_seconds);
  const std::vector<int64_t> read_schedule =
      PoissonSchedule(kReadRate, reads, args.seed);
  std::vector<size_t> rank_to_fact(facts.size());
  for (size_t i = 0; i < rank_to_fact.size(); ++i) rank_to_fact[i] = i;
  ltm::Rng key_rng(args.seed * 7919 + 2);
  key_rng.Shuffle(&rank_to_fact);
  std::vector<size_t> keys(reads);
  for (size_t& k : keys) k = rank_to_fact[key_rng.Zipf(facts.size(), kZipfExponent)];
  const ltm::store::TruthStoreStats history = store->Stats();
  const uint64_t history_rows = history.segment_rows + history.memtable_rows;
  std::printf("mixed_feed: %llu history rows, feed of %zu rows in %zu commits "
              "at %.0f/s, reads at %.0f/s (Zipf s=%.1f over %zu facts)\n",
              static_cast<unsigned long long>(history_rows), d.feed.raw.NumRows(),
              batches.size(),
              kFeedCommitsPerS, kReadRate, kZipfExponent, facts.size());

  const ltm::serve::ServeStats before = session->Stats();
  std::vector<int64_t> ack_ns(batches.size(), 0);
  std::vector<uint64_t> ack_epoch(batches.size(), 0);
  std::vector<Poll> polls;
  auto poll = [&] {
    const ltm::serve::ServeStats stats = session->Stats();
    polls.push_back(Poll{NowNs(), stats.refit.last_fit_epoch, stats.refit.in_flight});
  };
  LoopResult feed_result, read_result;
  const bool trace = args.trace;
  // Background refits run inside the library, so their busy time comes
  // from its own `refit` span (obs::TraceRecorder), armed for the feed.
  ltm::obs::TraceRecorder& recorder = ltm::obs::TraceRecorder::Global();
  recorder.Enable(kRecorderSpansPerThread);
  const int64_t recorder_t0_ns = NowNs() - static_cast<int64_t>(recorder.NowMicros()) * 1000;
  const int64_t start = NowNs();
  // The writer thread commits the feed and, between commits and after the
  // last one, watches the scheduler until an installed fit covers the
  // whole feed (or a generous limit passes).
  std::thread writer([&] {
    feed_result = RunOpenLoop(feed_schedule, 1, trace, [&](size_t i, SpanLog* log) {
      const uint64_t request = log != nullptr ? NextSpanId() : 0;
      ScopedSpan cycle(log, "ingest.cycle", request);
      {
        ScopedSpan span(log, "store.append", request, cycle.id());
        if (!store->AppendRaw(batches[i]).ok()) return false;
      }
      ack_ns[i] = NowNs();
      ack_epoch[i] = store->epoch();
      (void)session->NotifyIngest();  // a shed trigger is subsumed by the next
      if ((i + 1) % kCompactEveryCommits == 0) {
        {
          ScopedSpan span(log, "store.flush", request, cycle.id());
          if (!store->Flush().ok()) return false;
        }
        ScopedSpan span(log, "store.compact", request, cycle.id());
        const ltm::Result<bool> worked = store->CompactOnce();
        if (!worked.ok()) return false;
        if (!*worked) span.Drop();
      }
      poll();
      return true;
    });
    const int64_t limit = NowNs() + 20'000'000'000;
    do {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
      poll();
    } while ((polls.back().last_fit_epoch < ack_epoch.back() ||
              polls.back().in_flight) &&
             polls.back().at_ns < limit);
  });
  // Reads on this thread.
  read_result = RunOpenLoop(read_schedule, 1, trace,
                            [&](size_t i, SpanLog* log) {
                              ScopedSpan span(log, "serve.query", NextSpanId());
                              return session->Query(facts[keys[i]]).ok();
                            });
  writer.join();
  const ltm::serve::ServeStats after = session->Stats();
  std::vector<ltm::obs::TraceEvent> refits;
  for (const ltm::obs::TraceEvent& e : recorder.Collect()) {
    if (std::strcmp(e.name, "refit") == 0) refits.push_back(e);
  }
  recorder.Disable();
  report->AddOps(feed_result.attempted + read_result.attempted,
                 feed_result.failed + read_result.failed);

  // Freshness: from a commit's ack to the first poll that saw an installed
  // fit covering its epoch.
  std::vector<double> freshness_s;
  size_t p = 0;
  uint64_t stale = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (ack_ns[i] == 0) continue;  // failed commit, already counted
    while (p < polls.size() &&
           (polls[p].at_ns < ack_ns[i] || polls[p].last_fit_epoch < ack_epoch[i])) {
      ++p;
    }
    if (p == polls.size()) {
      ++stale;
      continue;
    }
    freshness_s.push_back(static_cast<double>(polls[p].at_ns - ack_ns[i]) / 1e9);
  }
  report->Check(stale == 0, std::to_string(stale) +
                                " committed batch(es) never covered by an installed fit");
  // Refit throughput: rows fitted per second of refit time, the median
  // over the background refits (one preempted refit moves one sample). A
  // refit fits the history plus every batch acknowledged before it
  // started. The feed's schedule does not enter: only the refits' work.
  const uint64_t completed = after.refit.completed - before.refit.completed;
  report->Check(refits.size() == completed + (after.refit.failed - before.refit.failed),
                "background refits missing from the library's trace (" +
                    std::to_string(refits.size()) + " spans, " +
                    std::to_string(completed) + " completed)");
  std::vector<double> refit_rates;
  double refit_s = 0.0;
  for (const ltm::obs::TraceEvent& e : refits) {
    const int64_t began_ns = recorder_t0_ns + static_cast<int64_t>(e.ts_us) * 1000;
    size_t fed = 0;
    for (size_t i = 0; i < batches.size() && ack_ns[i] != 0 && ack_ns[i] <= began_ns; ++i) {
      fed += batches[i].NumRows();
    }
    const double seconds = static_cast<double>(std::max<uint64_t>(1, e.dur_us)) / 1e6;
    refit_rates.push_back(static_cast<double>(history_rows + fed) / seconds);
    refit_s += seconds;
  }
  const double refit_rows_per_s = Summarize(&refit_rates).p50;

  const Summary fresh = Summarize(&freshness_s);
  std::vector<double> acks = feed_result.latency_us;
  const Summary ack = Summarize(&acks);
  std::vector<double> read_lat = read_result.latency_us;
  const Summary read = Summarize(&read_lat);
  std::printf("  reads (open loop, %.0f/s): %s\n  commit acks (open loop, %.0f/s): %s\n"
              "  freshness: %s\n"
              "  background refits: %llu completed, %llu shed, %.2fs busy, "
              "%.0f rows refit/s\n",
              kReadRate, FormatSummary(read, "us").c_str(), kFeedCommitsPerS,
              FormatSummary(ack, "us").c_str(), FormatSummary(fresh, "s").c_str(),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(after.refit.shed - before.refit.shed),
              refit_s, refit_rows_per_s);

  // The checks need a synchronous refit on a quiet pipeline: retire the
  // session (which drains its refit scheduler) and serve from one without.
  d.serving.session.reset();
  ltm::Result<std::unique_ptr<ltm::serve::ServeSession>> quiet =
      ltm::serve::ServeSession::Create(d.serving.pipeline.get(),
                                       ltm::serve::ServeOptions());
  if (!CheckOk(quiet.status(), "ServeSession without refits", report)) return;
  d.serving.session = std::move(*quiet);
  if (args.trace) {
    PublishServeCounters(before, after, report);
    std::vector<double> lateness = read_result.lateness_us;
    lateness.insert(lateness.end(), feed_result.lateness_us.begin(),
                    feed_result.lateness_us.end());
    PublishLateness(lateness, report);
    PublishOverhead(read_result.traced_us, read_result.untraced_us, report);
    setup_log.insert(setup_log.end(), feed_result.spans.begin(),
                     feed_result.spans.end());
    PublishIngestSpans(setup_log, report);
    PublishCompaction(store->Stats().compaction, d.world.data.raw.NumRows(), report);
    report->Set("store.rebalances", 0.0, "count");
    RefitProbe(d.serving, &setup_log, report);
    ServeProbe(d.serving, DistinctEntitySample(facts, 1000, args.seed + 1),
               &setup_log, report);
  } else {
    CheckOk(d.serving.pipeline->RefitFromStore().status(), "final refit", report);
    CheckOk(d.serving.session->RefreshQuality(), "RefreshQuality", report);
  }
  CheckServedPosteriors(d.serving, DistinctEntitySample(facts, 300, args.seed),
                        report);
  const ltm::Result<double> auc = ServedAuc(d.serving, d.world);
  if (CheckOk(auc.status(), "served AUC", report)) {
    report->Check(*auc >= kFitAucFloor, "fit_auc below the recorded floor");
  }
  if (args.trace) return;
  PublishSetup(*setup_s, report);
  report->Set("throughput", refit_rows_per_s, "1/s");
  // The deployment's user-visible latency is freshness: open-loop read
  // latency here swings several-fold with host CPU steal (a preempted
  // lock holder stalls every read behind it), so it is printed, not gated.
  report->Set("latency_p50_us", fresh.p50 * 1e6, "us");
  report->Set("disk_bytes_per_row",
              static_cast<double>(DirBytes(store->dir())) /
                  static_cast<double>(d.world.data.raw.NumRows()),
              "B/row");
  report->Set("fit_auc", auc.ok() ? *auc : 0.0, "1");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace perfbench
