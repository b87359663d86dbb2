// point_read: reads only, against a quiescent single-partition store
// holding the paper-scale world. Uniform keys over all facts make the
// working set ~5x the 4,096-entry posterior cache, so most reads take the
// serve miss path (pin, zone/bloom probe, block cache, block decode,
// slice build, Eq. 3). Ingest and refit code does not run after set-up.
#include <memory>

#include "common.h"
#include "common/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Offered rate of the open-loop phase: about a quarter of the closed-loop
/// capacity measured when the benchmark was introduced (~55-65k/s on a
/// 4-vCPU VM, Release build). At half capacity queueing amplified the
/// run-to-run drift of a shared machine's CPU speed into the p50.
constexpr double kOpenLoopRate = 15000.0;
/// Figures are medians over windows of this length (harness.h).
constexpr int64_t kWindowNs = 250'000'000;

}  // namespace

void RunPointRead(const Args& args, Report* report) {
  SpanLog setup_log;
  Deployment d;
  const ltm::Result<std::vector<double>> setup_s =
      SetUpDeployment(args, args.trace ? 1 : 5, /*hold_back_feed=*/false,
                      /*commits=*/16, /*refit_debounce_epochs=*/0,
                      args.trace ? &setup_log : nullptr, &d);
  if (!CheckOk(setup_s.status(), "set-up", report)) return;
  ltm::serve::ServeSession* session = d.serving.session.get();
  const std::vector<ltm::serve::FactRef> facts = AllFacts(d.world.data);
  const unsigned clients = std::max(1u, Nproc() - 1);
  std::printf("point_read: %zu facts, %zu rows, %u clients, open loop %.0f/s\n",
              facts.size(), d.world.data.raw.NumRows(), clients, kOpenLoopRate);

  // Uniform keys, one seeded stream per client / per schedule slot.
  std::vector<ltm::Rng> rngs;
  for (unsigned c = 0; c < clients; ++c) {
    rngs.emplace_back(args.seed * 1000 + c);
  }
  auto query = [&](const ltm::serve::FactRef& fact, SpanLog* span_log) {
    ScopedSpan span(span_log, "serve.query", NextSpanId());
    return session->Query(fact).ok();
  };
  // Warm-up fills the block cache and the posterior cache.
  RunClosedLoop(clients, 0.5, false, [&](unsigned c, SpanLog*) {
    return query(facts[rngs[c].UniformInt(facts.size())], nullptr);
  });
  const ltm::serve::ServeStats before = session->Stats();
  const LoopResult closed =
      RunClosedLoop(clients, 0.4 * args.seconds, args.trace,
                    [&](unsigned c, SpanLog* span_log) {
                      return query(facts[rngs[c].UniformInt(facts.size())],
                                   span_log);
                    });
  const size_t count = static_cast<size_t>(kOpenLoopRate * 0.6 * args.seconds);
  const std::vector<int64_t> schedule =
      PoissonSchedule(kOpenLoopRate, count, args.seed);
  std::vector<size_t> keys(count);
  ltm::Rng key_rng(args.seed * 7919 + 1);
  for (size_t& k : keys) k = key_rng.UniformInt(facts.size());
  const LoopResult open = RunOpenLoop(schedule, clients, args.trace,
                                [&](size_t i, SpanLog* span_log) {
                                  return query(facts[keys[i]], span_log);
                                });
  const ltm::serve::ServeStats after = session->Stats();
  report->AddOps(closed.attempted + open.attempted, closed.failed + open.failed);
  std::printf("  closed loop: %u clients, %llu queries in %.2fs\n", clients,
              static_cast<unsigned long long>(closed.attempted), closed.seconds);
  std::vector<double> open_latency = open.latency_us;  // keep `open` aligned
  std::printf("  open loop: %.0f/s offered, %llu queries, %s\n", kOpenLoopRate,
              static_cast<unsigned long long>(open.attempted),
              FormatSummary(Summarize(&open_latency), "us").c_str());

  // Output checks on the quiescent store.
  CheckServedPosteriors(d.serving, DistinctEntitySample(facts, 300, args.seed),
                        report);
  const ltm::Result<double> auc = ServedAuc(d.serving, d.world);
  if (CheckOk(auc.status(), "served AUC", report)) {
    report->Check(*auc >= kFitAucFloor, "fit_auc below the recorded floor");
  }

  if (!args.trace) {
    PublishSetup(*setup_s, report);
    report->Set("throughput", WindowedRate(closed, kWindowNs), "1/s");
    report->Set("latency_p50_us", WindowedPercentile(open, 50.0, kWindowNs), "us");
    report->Set("disk_bytes_per_row",
                static_cast<double>(DirBytes(d.store->dir())) /
                    static_cast<double>(d.world.data.raw.NumRows()),
                "B/row");
    report->Set("fit_auc", auc.ok() ? *auc : 0.0, "1");
    report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }
  PublishServeCounters(before, after, report);
  PublishLateness(open.lateness_us, report);
  std::vector<double> traced = closed.traced_us;
  std::vector<double> untraced = closed.untraced_us;
  traced.insert(traced.end(), open.traced_us.begin(), open.traced_us.end());
  untraced.insert(untraced.end(), open.untraced_us.begin(), open.untraced_us.end());
  PublishOverhead(traced, untraced, report);
  PublishIngestSpans(setup_log, report);
  PublishCompaction(d.store->Stats().compaction, d.world.data.raw.NumRows(), report);
  report->Set("store.rebalances", 0.0, "count");
  ServeProbe(d.serving, DistinctEntitySample(facts, 1000, args.seed + 1),
             &setup_log, report);
  RefitProbe(d.serving, &setup_log, report);
}

}  // namespace perfbench
