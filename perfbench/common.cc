#include "common.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "data/claim_graph.h"
#include "data/claim_table.h"
#include "data/fact_table.h"
#include "eval/roc.h"
#include "serve/fact_scoring.h"
#include "synth/labeling.h"
#include "synth/movie_simulator.h"
#include "truth/ltm.h"

namespace perfbench {

using ltm::Dataset;
using ltm::RawDatabase;
using ltm::Result;
using ltm::Status;
using ltm::serve::FactRef;

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

World MakeWorld(size_t movies, uint64_t seed) {
  World w;
  ltm::synth::MovieSimOptions gen;
  gen.num_movies = movies;
  gen.seed = seed * 0x9e3779b97f4a7c15ULL + 15073;
  w.data = ltm::synth::GenerateMovieDataset(gen);
  w.eval_labels = ltm::synth::LabelsForEntities(
      w.data, ltm::synth::SampleEntities(w.data, 100, seed + 100));
  w.ltm = ltm::LtmOptions::ScaledDefaults(w.data.facts.NumFacts());
  // The deployment's refit schedule: 60 sweeps, one sequential chain
  // (threads=1 keeps every fit, and so fit_auc, deterministic).
  w.ltm.iterations = 60;
  w.ltm.burnin = 15;
  w.ltm.sample_gap = 3;
  w.ltm.threads = 1;
  return w;
}

RawDatabase RowRange(const RawDatabase& raw, size_t begin, size_t end) {
  RawDatabase out;
  for (size_t i = begin; i < end; ++i) {
    const ltm::RawRow& row = raw.rows()[i];
    out.Add(raw.entities().Get(row.entity), raw.attributes().Get(row.attribute),
            raw.sources().Get(row.source));
  }
  return out;
}

std::vector<FactRef> AllFacts(const Dataset& data) {
  std::vector<FactRef> out;
  out.reserve(data.facts.NumFacts());
  for (ltm::FactId f = 0; f < data.facts.NumFacts(); ++f) {
    const ltm::Fact& fact = data.facts.fact(f);
    out.push_back(FactRef{std::string(data.raw.entities().Get(fact.entity)),
                          std::string(data.raw.attributes().Get(fact.attribute))});
  }
  return out;
}

Status CompactUntilQuiet(ltm::store::TruthStoreBase* store, SpanLog* log,
                         uint64_t request, uint64_t parent) {
  for (;;) {
    ScopedSpan span(log, "store.compact", request, parent);
    LTM_ASSIGN_OR_RETURN(const bool worked, store->CompactOnce());
    if (!worked) {
      span.Drop();
      return Status::OK();
    }
  }
}

Status LoadInCommits(ltm::store::TruthStoreBase* store, const RawDatabase& raw,
                     size_t commits, SpanLog* log) {
  const size_t n = raw.NumRows();
  for (size_t c = 0; c < commits; ++c) {
    const uint64_t request = log != nullptr ? NextSpanId() : 0;
    ScopedSpan cycle(log, "ingest.cycle", request);
    const RawDatabase batch = RowRange(raw, n * c / commits, n * (c + 1) / commits);
    {
      ScopedSpan span(log, "store.append", request, cycle.id());
      LTM_RETURN_IF_ERROR(store->AppendRaw(batch));
    }
    {
      ScopedSpan span(log, "store.flush", request, cycle.id());
      LTM_RETURN_IF_ERROR(store->Flush());
    }
    LTM_RETURN_IF_ERROR(CompactUntilQuiet(store, log, request, cycle.id()));
  }
  return Status::OK();
}

Result<Serving> StartServing(ltm::store::TruthStoreBase* store,
                             const ltm::LtmOptions& ltm,
                             uint64_t refit_debounce_epochs) {
  Serving s;
  ltm::ext::StreamingOptions stream;
  stream.ltm = ltm;
  s.pipeline = std::make_unique<ltm::ext::StreamingPipeline>(stream);
  LTM_RETURN_IF_ERROR(s.pipeline->BootstrapFromStore(store));
  ltm::serve::ServeOptions options;
  options.refit_debounce_epochs = refit_debounce_epochs;
  options.refit_queue = 1;
  s.pool = std::make_unique<ltm::ThreadPool>(1);
  LTM_ASSIGN_OR_RETURN(s.session, ltm::serve::ServeSession::Create(
                                      s.pipeline.get(), options, s.pool.get()));
  return s;
}

Result<std::vector<double>> SetUpDeployment(const Args& args, int reps,
                                            bool hold_back_feed, size_t commits,
                                            uint64_t refit_debounce_epochs,
                                            SpanLog* log, Deployment* d) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t t0 = NowNs();
    d->serving = Serving();
    d->store.reset();
    d->world = MakeWorld(kPaperMovies, args.seed);
    Dataset loaded;
    if (hold_back_feed) {
      auto [history, feed] = d->world.data.SplitByEntities(
          ltm::synth::SampleEntities(d->world.data,
                                     d->world.data.raw.NumEntities() / 2,
                                     args.seed + 3));
      loaded = std::move(history);
      d->feed = std::move(feed);
    }
    LTM_ASSIGN_OR_RETURN(d->store,
                         ltm::store::TruthStore::Open(FreshDir(args, "store")));
    LTM_RETURN_IF_ERROR(LoadInCommits(
        d->store.get(), hold_back_feed ? loaded.raw : d->world.data.raw, commits,
        log));
    LTM_ASSIGN_OR_RETURN(d->serving, StartServing(d->store.get(), d->world.ltm,
                                                  refit_debounce_epochs));
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return seconds;
}

std::vector<FactRef> DistinctEntitySample(const std::vector<FactRef>& facts,
                                          size_t count, uint64_t seed) {
  std::vector<size_t> order(facts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  ltm::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<FactRef> out;
  std::unordered_set<std::string> seen;
  for (const size_t i : order) {
    if (out.size() >= count) break;
    if (seen.insert(facts[i].entity).second) out.push_back(facts[i]);
  }
  return out;
}

namespace {

/// The installed quality as the serving layer sees it.
ltm::serve::QualityLookup CurrentLookup(const Serving& serving) {
  return ltm::serve::BuildQualityLookup(serving.pipeline->quality(),
                                        serving.pipeline->cumulative_sources(),
                                        serving.pipeline->options().ltm);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Eq. 3 posterior of `fact` in `slice` (the no-claim prior when absent).
Result<double> ScoreFact(const Dataset& slice, const FactRef& fact,
                         const ltm::serve::QualityLookup& lookup,
                         const ltm::LtmOptions& options) {
  const auto eid = slice.raw.entities().Find(fact.entity);
  const auto aid = slice.raw.attributes().Find(fact.attribute);
  if (!eid.has_value() || !aid.has_value()) return lookup.no_claim_prior;
  const auto f = slice.facts.Find(*eid, *aid);
  if (!f.has_value()) return lookup.no_claim_prior;
  LTM_ASSIGN_OR_RETURN(
      const std::vector<double> probs,
      ltm::serve::ScoreSlice(slice, lookup, options, ltm::RunContext()));
  return probs[*f];
}

}  // namespace

void CheckServedPosteriors(const Serving& serving,
                           const std::vector<FactRef>& sample,
                           Report* report) {
  const ltm::serve::QualityLookup lookup = CurrentLookup(serving);
  const ltm::LtmOptions& options = serving.pipeline->options().ltm;
  ltm::store::TruthStoreBase* store = serving.session->store();
  for (const FactRef& fact : sample) {
    const Result<double> served = serving.session->Query(fact);
    Result<Dataset> slice = store->MaterializeEntityRange(fact.entity, fact.entity);
    Result<double> reference = slice.ok()
                                   ? ScoreFact(*slice, fact, lookup, options)
                                   : Result<double>(slice.status());
    report->Check(served.ok() && reference.ok() && SameBits(*served, *reference),
                  "served posterior of " + fact.entity + "/" + fact.attribute +
                      " differs from the independent Eq. 3 evaluation");
  }
}

Result<double> ServedAuc(const Serving& serving, const World& world) {
  std::vector<double> probs(world.data.facts.NumFacts(), 0.5);
  for (const ltm::FactId f : world.eval_labels.LabeledFacts()) {
    const ltm::Fact& fact = world.data.facts.fact(f);
    const FactRef ref{std::string(world.data.raw.entities().Get(fact.entity)),
                      std::string(world.data.raw.attributes().Get(fact.attribute))};
    LTM_ASSIGN_OR_RETURN(probs[f], serving.session->Query(ref));
  }
  return ltm::AucScore(probs, world.eval_labels);
}

void ServeProbe(const Serving& serving, const std::vector<FactRef>& facts,
                SpanLog* log, Report* report) {
  ltm::serve::ServeSession* session = serving.session.get();
  ltm::store::TruthStoreBase* store = session->store();
  const ltm::LtmOptions& options = serving.pipeline->options().ltm;
  // Each install clears the posterior cache, so the last one leaves every
  // probe fact a miss.
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span(log, "serve.quality_install", NextSpanId());
    CheckOk(session->RefreshQuality(), "RefreshQuality", report);
  }
  const ltm::serve::QualityLookup lookup = CurrentLookup(serving);
  ltm::store::RangeScanStats scan;
  for (const FactRef& fact : facts) {
    const uint64_t request = NextSpanId();
    Result<double> served = ltm::Status::Internal("not run");
    uint64_t parent = 0;
    {
      ScopedSpan span(log, "serve.query_miss", request);
      served = session->Query(fact);
      parent = span.id();
    }
    std::unique_ptr<ltm::store::StorePin> pin;
    {
      ScopedSpan span(log, "store.pin", request, parent);
      pin = store->PinSnapshot(&fact.entity, &fact.entity);
    }
    Result<Dataset> slice = ltm::Status::Internal("not run");
    ltm::store::RangeScanStats one;  // overwritten per call, summed below
    {
      ScopedSpan span(log, "store.point_materialize", request, parent);
      slice = store->MaterializeSnapshot(*pin, &fact.entity, &fact.entity, &one);
    }
    scan.segments_scanned += one.segments_scanned;
    scan.segments_skipped += one.segments_skipped;
    scan.segments_skipped_bloom += one.segments_skipped_bloom;
    scan.blocks_read += one.blocks_read;
    scan.block_cache_hits += one.block_cache_hits;
    Result<double> replayed = ltm::Status::Internal("not run");
    if (slice.ok()) {
      ScopedSpan span(log, "serve.score", request, parent);
      replayed = ScoreFact(*slice, fact, lookup, options);
    }
    report->Check(served.ok() && replayed.ok() && SameBits(*served, *replayed),
                  "serve-miss replay of " + fact.entity + "/" + fact.attribute +
                      " does not reproduce the served posterior");
  }
  for (const FactRef& fact : facts) {
    ScopedSpan span(log, "serve.query_hit", NextSpanId());
    CheckOk(session->Query(fact).status(), "Query (hit)", report);
  }
  auto summary = [&](const char* name) {
    std::vector<double> d = DurationsMicros(*log, name);
    return Summarize(&d);
  };
  const Summary miss = summary("serve.query_miss");
  report->Set("serve.query_miss_p50_us", miss.p50, "us");
  report->Set("serve.query_miss_p99_us", miss.p99, "us");
  report->Set("serve.query_hit_p50_us", summary("serve.query_hit").p50, "us");
  report->Set("serve.score_p50_us", summary("serve.score").p50, "us");
  report->Set("serve.quality_install_p50_us",
              summary("serve.quality_install").p50, "us");
  report->Set("store.pin_p50_us", summary("store.pin").p50, "us");
  report->Set("store.point_materialize_p50_us",
              summary("store.point_materialize").p50, "us");
  Attribution attr = Attribute(*log, "serve.query_miss");
  report->Check(attr.mismatched_requests == 0,
                "serve-miss child spans carry another request id");
  report->Set("serve.self_p50_us", Summarize(&attr.self_micros).p50, "us");
  report->Set("trace.coverage.serve_miss", attr.coverage, "1");
  const double reads = static_cast<double>(std::max<size_t>(1, facts.size()));
  const double segments = static_cast<double>(
      scan.segments_scanned + scan.segments_skipped + scan.segments_skipped_bloom);
  report->Set("store.blocks_per_read",
              static_cast<double>(scan.blocks_read) / reads, "count");
  report->Set("store.block_cache_hit_ratio",
              scan.blocks_read == 0 ? 0.0
                                    : static_cast<double>(scan.block_cache_hits) /
                                          static_cast<double>(scan.blocks_read),
              "1");
  report->Set("store.segments_skipped_ratio",
              segments == 0.0 ? 0.0
                              : static_cast<double>(scan.segments_skipped +
                                                    scan.segments_skipped_bloom) /
                                    segments,
              "1");
}

void RefitProbe(const Serving& serving, SpanLog* log, Report* report) {
  ltm::ext::StreamingPipeline* pipeline = serving.pipeline.get();
  ltm::store::TruthStoreBase* store = pipeline->attached_store();
  const uint64_t request = NextSpanId();
  uint64_t parent = 0;
  {
    ScopedSpan span(log, "ext.refit", request);
    const Result<uint64_t> fit = pipeline->RefitFromStore();
    CheckOk(fit.status(), "RefitFromStore", report);
    parent = span.id();
  }
  CheckOk(serving.session->RefreshQuality(), "RefreshQuality", report);
  // Replay: the same public stages RefitFromStore runs, on the same input.
  Result<Dataset> durable = ltm::Status::Internal("not run");
  {
    ScopedSpan span(log, "store.full_materialize", request, parent);
    durable = store->Materialize();
  }
  if (!CheckOk(durable.status(), "Materialize", report)) return;
  ltm::FactTable facts;
  {
    ScopedSpan span(log, "data.fact_table", request, parent);
    facts = ltm::FactTable::Build(durable->raw);
  }
  ltm::ClaimGraph graph;
  {
    ScopedSpan span(log, "data.claim_graph", request, parent);
    graph = ltm::ClaimGraph::Build(ltm::ClaimTable::Build(durable->raw, facts));
  }
  Result<ltm::TruthResult> fit = ltm::Status::Internal("not run");
  {
    ScopedSpan span(log, "truth.gibbs", request, parent);
    ltm::RunContext ctx;
    ctx.with_quality = true;
    fit = ltm::LatentTruthModel(pipeline->options().ltm).Run(ctx, facts, graph);
  }
  bool same = fit.ok() && fit->quality.has_value();
  if (same) {
    const ltm::SourceQuality& a = pipeline->quality();
    const ltm::SourceQuality& b = *fit->quality;
    same = a.NumSources() == b.NumSources();
    for (size_t s = 0; same && s < a.NumSources(); ++s) {
      same = SameBits(a.sensitivity[s], b.sensitivity[s]) &&
             SameBits(a.specificity[s], b.specificity[s]);
    }
  }
  report->Check(same, "refit replay does not reproduce the installed quality");
  auto one = [&](const char* name) {
    const std::vector<double> d = DurationsMicros(*log, name);
    return d.empty() ? 0.0 : d.back();
  };
  report->Set("ext.refit_us", one("ext.refit"), "us");
  report->Set("store.full_materialize_us", one("store.full_materialize"), "us");
  report->Set("data.fact_table_us", one("data.fact_table"), "us");
  report->Set("data.claim_graph_us", one("data.claim_graph"), "us");
  report->Set("truth.gibbs_sweep_us",
              one("truth.gibbs") / pipeline->options().ltm.iterations, "us");
  const Attribution attr = Attribute(*log, "ext.refit");
  report->Check(attr.mismatched_requests == 0,
                "refit child spans carry another request id");
  report->Set("trace.coverage.refit", attr.coverage, "1");
}

void PublishIngestSpans(const SpanLog& spans, Report* report) {
  auto summary = [&](const char* name) {
    std::vector<double> d = DurationsMicros(spans, name);
    return Summarize(&d);
  };
  const Summary append = summary("store.append");
  report->Set("store.append_p50_us", append.p50, "us");
  report->Set("store.append_p99_us", append.p99, "us");
  report->Set("store.flush_p50_us", summary("store.flush").p50, "us");
  report->Set("store.compact_p50_us", summary("store.compact").p50, "us");
  const Attribution attr = Attribute(spans, "ingest.cycle");
  report->Check(attr.mismatched_requests == 0,
                "ingest child spans carry another request id");
  report->Set("trace.coverage.ingest", attr.coverage, "1");
}

void PublishLateness(std::vector<double> lateness_us, Report* report) {
  report->Set("gen.lateness_p99_us", Summarize(&lateness_us).p99, "us");
}

void PublishOverhead(std::vector<double> traced_us,
                     std::vector<double> untraced_us, Report* report) {
  const double traced = Summarize(&traced_us).p50;
  const double untraced = Summarize(&untraced_us).p50;
  report->Set("trace.overhead", untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
              "1");
}

void PublishCompaction(const ltm::store::CompactionStats& stats, uint64_t rows,
                       Report* report) {
  report->Set("store.compactions", static_cast<double>(stats.compactions),
              "count");
  report->Set("store.compaction_bytes_per_row",
              rows == 0 ? 0.0
                        : static_cast<double>(stats.bytes_written) /
                              static_cast<double>(rows),
              "B/row");
}

void PublishServeCounters(const ltm::serve::ServeStats& before,
                          const ltm::serve::ServeStats& after, Report* report) {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t gets = hits + (after.cache.misses - before.cache.misses);
  report->Set("serve.cache_hit_ratio", ratio(hits, gets), "1");
  report->Set("serve.coalesced_ratio",
              ratio(after.coalesced - before.coalesced,
                    after.queries - before.queries),
              "1");
  report->Set("serve.shed", static_cast<double>(after.shed - before.shed),
              "count");
  const uint64_t shed = after.refit.shed - before.refit.shed;
  const uint64_t completed = after.refit.completed - before.refit.completed;
  report->Set("serve.refit_shed_ratio", ratio(shed, shed + completed), "1");
}

void PublishSetup(std::vector<double> setup_seconds, Report* report) {
  report->Set("setup_s", Summarize(&setup_seconds).p50, "s");
}

std::string FreshDir(const Args& args, const std::string& name) {
  const std::string dir = (std::filesystem::path(args.dir) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

bool CheckOk(const Status& status, const std::string& what, Report* report) {
  return report->Check(status.ok(), what + ": " + status.ToString());
}

}  // namespace perfbench
