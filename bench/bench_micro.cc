// Google-benchmark micro-benchmarks for the hot paths: one collapsed
// Gibbs sweep, claim materialization and graph flattening, the LTMinc
// closed form (Eq. 3), source-quality read-off, the synthetic generators,
// struct-walk vs packed-graph-walk method loops, and snapshot-load vs
// TSV-ingest.
//
// The *Struct benchmarks re-implement the pre-refactor hot loops over the
// 12-byte Claim structs that the methods used to iterate; the *Graph
// benchmarks run the loops the migrated methods use today. Run with
//   --benchmark_filter='Struct|Graph|Tsv|Snapshot'
//   --benchmark_out=BENCH_methods.json
// to emit the substrate-comparison artifact CI checks, and with
//   --benchmark_filter='GibbsSweep' --benchmark_out=BENCH_kernel.json
// to emit the Gibbs kernel comparison CI gates: the memoized one-pass
// sweep must sustain >= 2x the single-thread throughput of the two-pass
// std::log transcription of Eq. 2 (BM_GibbsSweepStdLog), so an
// accidental de-memoization fails the build.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "data/claim_graph.h"
#include "data/claim_table.h"
#include "data/dataset.h"
#include "data/snapshot.h"
#include "data/tsv_io.h"
#include "store/truth_store.h"
#include "store/wal.h"
#include "synth/ltm_process.h"
#include "synth/movie_simulator.h"
#include "truth/gibbs_kernel.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"
#include "truth/ltm_parallel.h"
#include "truth/source_quality.h"

namespace ltm {
namespace {

const synth::LtmProcessData& SharedProcessData(size_t facts) {
  static auto* cache =
      new std::map<size_t, synth::LtmProcessData>();
  auto it = cache->find(facts);
  if (it == cache->end()) {
    synth::LtmProcessOptions gen;
    gen.num_facts = facts;
    gen.num_sources = 20;
    it = cache->emplace(facts, synth::GenerateLtmProcess(gen)).first;
  }
  return it->second;
}

const Dataset& SharedMovieDataset(size_t movies) {
  static auto* cache = new std::map<size_t, Dataset>();
  auto it = cache->find(movies);
  if (it == cache->end()) {
    synth::MovieSimOptions gen;
    gen.num_movies = movies;
    it = cache->emplace(movies, synth::GenerateMovieDataset(gen)).first;
  }
  return it->second;
}

/// The demoted struct-of-claims table for the same movie world — the
/// substrate every method iterated before the columnar refactor.
const ClaimTable& SharedMovieTable(size_t movies) {
  static auto* cache = new std::map<size_t, ClaimTable>();
  auto it = cache->find(movies);
  if (it == cache->end()) {
    const Dataset& ds = SharedMovieDataset(movies);
    it = cache->emplace(movies, ClaimTable::Build(ds.raw, ds.facts)).first;
  }
  return it->second;
}

std::string BenchFilePath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The library's Gibbs sweep: one adjacency pass per fact, every
// log(count + alpha) read from memoized tables (truth/gibbs_kernel.h).
void BM_GibbsSweep(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  LtmGibbs sampler(data.graph, opts);
  for (auto _ : state) {
    sampler.RunSweep();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_GibbsSweep)->Arg(1000)->Arg(10000);

/// Log of the unnormalized Eq. 2 conditional p(t_f = i | t_-f, o),
/// transcribed literally: one adjacency pass per label and two std::log
/// calls per claim. `exclude_self` drops fact f's own claims, which are
/// counted under its current label.
double StdLogConditional(const ClaimGraph& graph, const LtmOptions& opts,
                         const std::vector<int64_t>& counts, FactId f, int i,
                         bool exclude_self) {
  const BetaPrior& alpha = i == 1 ? opts.alpha1 : opts.alpha0;
  const double a[2] = {alpha.neg, alpha.pos};
  double lp = std::log(i == 1 ? opts.beta.pos : opts.beta.neg);
  const int64_t self = exclude_self ? 1 : 0;
  const double alpha_sum = a[0] + a[1];
  for (uint32_t entry : graph.FactClaims(f)) {
    const uint32_t s = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t n_ij = counts[s * 4 + i * 2 + j] - self;
    const int64_t n_i = counts[s * 4 + i * 2] + counts[s * 4 + i * 2 + 1] -
                        self;
    lp += std::log(static_cast<double>(n_ij) + a[j]) -
          std::log(static_cast<double>(n_i) + alpha_sum);
  }
  return lp;
}

// The same sweep with every log computed directly: two StdLogConditional
// passes per fact, four std::log calls per packed entry. It is the
// baseline of CI's kernel gate, which divides its time by
// BM_GibbsSweep's.
void BM_GibbsSweepStdLog(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  const ClaimGraph& graph = data.graph;
  const LtmOptions opts = LtmOptions::ScaledDefaults(graph.NumFacts());
  Rng rng(opts.seed);
  std::vector<uint8_t> truth(graph.NumFacts());
  for (uint8_t& t : truth) t = rng.Bernoulli(0.5) ? 1 : 0;
  std::vector<int64_t> counts(graph.NumSources() * 4);
  RecountClaims(graph, truth, &counts);
  for (auto _ : state) {
    for (FactId f = 0; f < truth.size(); ++f) {
      const int cur = truth[f];
      const int other = 1 - cur;
      const double lp_cur = StdLogConditional(graph, opts, counts, f, cur,
                                              /*exclude_self=*/true);
      const double lp_other = StdLogConditional(graph, opts, counts, f,
                                                other,
                                                /*exclude_self=*/false);
      if (rng.Uniform() < 1.0 / (1.0 + std::exp(lp_cur - lp_other))) {
        truth[f] = static_cast<uint8_t>(other);
        for (uint32_t entry : graph.FactClaims(f)) {
          const uint32_t s = ClaimGraph::PackedId(entry);
          const int j = ClaimGraph::PackedObs(entry);
          --counts[s * 4 + cur * 2 + j];
          ++counts[s * 4 + other * 2 + j];
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumClaims()));
}
BENCHMARK(BM_GibbsSweepStdLog)->Arg(1000)->Arg(10000);

// The same sweep sharded across `threads` shards, so the curve shows the
// throughput a `threads=N` spec actually gets.
void BM_ShardedGibbsSweep(benchmark::State& state) {
  const auto& data = SharedProcessData(10000);
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  opts.threads = static_cast<int>(state.range(0));
  ParallelLtmGibbs sampler(data.graph, opts);
  for (auto _ : state) {
    sampler.RunSweep();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_ShardedGibbsSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ClaimGraphBuild(benchmark::State& state) {
  const ClaimTable& table = SharedMovieTable(state.range(0));
  for (auto _ : state) {
    ClaimGraph graph = ClaimGraph::Build(table);
    benchmark::DoNotOptimize(graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.NumClaims()));
}
BENCHMARK(BM_ClaimGraphBuild)->Arg(1000)->Arg(4000);

void BM_ClaimTableBuild(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(state.range(0));
  for (auto _ : state) {
    ClaimTable table = ClaimTable::Build(ds.raw, ds.facts);
    benchmark::DoNotOptimize(table.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
}
BENCHMARK(BM_ClaimTableBuild)->Arg(1000)->Arg(4000);

// ---------------------------------------------------------------------------
// Struct-walk vs graph-walk: one TruthFinder fixed-point iteration.

constexpr double kTrustCap = 1.0 - 1e-9;
constexpr double kDampening = 0.3;

void BM_TruthFinderIterStruct(benchmark::State& state) {
  const ClaimTable& table = SharedMovieTable(8000);
  std::vector<double> trust(table.NumSources(), 0.8);
  std::vector<double> conf(table.NumFacts(), 0.0);
  std::vector<double> sum(table.NumSources());
  std::vector<size_t> n(table.NumSources());
  for (auto _ : state) {
    for (FactId f = 0; f < table.NumFacts(); ++f) {
      double sigma = 0.0;
      for (const Claim& c : table.ClaimsOfFact(f)) {
        if (!c.observation) continue;
        sigma += -std::log(1.0 - std::min(trust[c.source], kTrustCap));
      }
      conf[f] = Sigmoid(kDampening * sigma);
    }
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(n.begin(), n.end(), 0);
    for (const Claim& c : table.claims()) {
      if (!c.observation) continue;
      sum[c.source] += conf[c.fact];
      ++n[c.source];
    }
    for (SourceId s = 0; s < table.NumSources(); ++s) {
      if (n[s] > 0) trust[s] = sum[s] / static_cast<double>(n[s]);
    }
    benchmark::DoNotOptimize(trust.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.NumClaims()));
}
BENCHMARK(BM_TruthFinderIterStruct);

void BM_TruthFinderIterGraph(benchmark::State& state) {
  const ClaimGraph& graph = SharedMovieDataset(8000).graph;
  std::vector<double> trust(graph.NumSources(), 0.8);
  std::vector<double> weight(graph.NumSources(), 0.0);
  std::vector<double> conf(graph.NumFacts(), 0.0);
  for (auto _ : state) {
    // The migrated method's loop: one log per source, then a pure
    // streaming pass over the packed adjacency.
    for (SourceId s = 0; s < graph.NumSources(); ++s) {
      weight[s] = -std::log(1.0 - std::min(trust[s], kTrustCap));
    }
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      double sigma = 0.0;
      for (uint32_t entry : graph.FactClaims(f)) {
        if (!ClaimGraph::PackedObs(entry)) continue;
        sigma += weight[ClaimGraph::PackedId(entry)];
      }
      conf[f] = Sigmoid(kDampening * sigma);
    }
    for (SourceId s = 0; s < graph.NumSources(); ++s) {
      double sum = 0.0;
      for (uint32_t entry : graph.SourceClaims(s)) {
        if (!ClaimGraph::PackedObs(entry)) continue;
        sum += conf[ClaimGraph::PackedId(entry)];
      }
      const uint32_t n = graph.SourcePositiveCount(s);
      if (n > 0) trust[s] = sum / static_cast<double>(n);
    }
    benchmark::DoNotOptimize(trust.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumClaims()));
}
BENCHMARK(BM_TruthFinderIterGraph);

// ---------------------------------------------------------------------------
// Struct-walk vs graph-walk: voting.

void BM_VotingStruct(benchmark::State& state) {
  const ClaimTable& table = SharedMovieTable(8000);
  std::vector<double> prob(table.NumFacts(), 0.0);
  for (auto _ : state) {
    for (FactId f = 0; f < table.NumFacts(); ++f) {
      auto fact_claims = table.ClaimsOfFact(f);
      if (fact_claims.empty()) continue;
      size_t pos = 0;
      for (const Claim& c : fact_claims) {
        if (c.observation) ++pos;
      }
      prob[f] = static_cast<double>(pos) /
                static_cast<double>(fact_claims.size());
    }
    benchmark::DoNotOptimize(prob.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.NumClaims()));
}
BENCHMARK(BM_VotingStruct);

void BM_VotingGraph(benchmark::State& state) {
  const ClaimGraph& graph = SharedMovieDataset(8000).graph;
  std::vector<double> prob(graph.NumFacts(), 0.0);
  for (auto _ : state) {
    // The migrated method's loop: derived stats only, no adjacency walk.
    for (FactId f = 0; f < graph.NumFacts(); ++f) {
      const uint32_t degree = graph.FactDegree(f);
      if (degree == 0) continue;
      prob[f] = static_cast<double>(graph.FactPositiveCount(f)) /
                static_cast<double>(degree);
    }
    benchmark::DoNotOptimize(prob.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(graph.NumClaims()));
}
BENCHMARK(BM_VotingGraph);

// ---------------------------------------------------------------------------
// Snapshot-load vs TSV-ingest: the repeat-run path the snapshot format
// exists for.

void BM_DatasetIngestTsv(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(4000);
  const std::string path = BenchFilePath("ltm_bench_micro.tsv");
  Status st = WriteRawDatabaseToTsv(ds.raw, path);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto raw = LoadRawDatabaseFromTsv(path);
    if (!raw.ok()) {
      state.SkipWithError(raw.status().ToString().c_str());
      return;
    }
    Dataset loaded = Dataset::FromRaw("bench", std::move(raw).value());
    benchmark::DoNotOptimize(loaded.graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
  std::remove(path.c_str());
}
BENCHMARK(BM_DatasetIngestTsv);

void BM_DatasetLoadSnapshot(benchmark::State& state) {
  const Dataset& ds = SharedMovieDataset(4000);
  const std::string path = BenchFilePath("ltm_bench_micro.snap");
  Status st = ds.SaveSnapshot(path);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = Dataset::LoadSnapshot(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded->graph.NumClaims());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.NumClaims()));
  std::remove(path.c_str());
}
BENCHMARK(BM_DatasetLoadSnapshot);

// ---------------------------------------------------------------------------
// TruthStore ingest and recovery: WAL append throughput (the store's
// write hot path — buffered appends, group-commit fsync excluded) and
// WAL replay (the recovery hot path).

std::vector<store::WalRecord> SampleWalRecords(size_t count) {
  std::vector<store::WalRecord> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    store::WalRecord r;
    r.entity = "movie-" + std::to_string(i % 4096);
    r.attribute = "director-" + std::to_string(i % 512);
    r.source = "source-" + std::to_string(i % 64);
    records.push_back(std::move(r));
  }
  return records;
}

void BM_WalAppend(benchmark::State& state) {
  const std::string path = BenchFilePath("ltm_bench_wal_append.log");
  std::remove(path.c_str());
  auto writer = store::WalWriter::Open(path);
  if (!writer.ok()) {
    state.SkipWithError(writer.status().ToString().c_str());
    return;
  }
  const std::vector<store::WalRecord> records = SampleWalRecords(1024);
  size_t i = 0;
  for (auto _ : state) {
    Status st = writer->Append(records[i++ & 1023]);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  (void)writer->Sync();  // one group commit for the whole run
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppend);

void BM_StoreAppend(benchmark::State& state) {
  const std::string dir = BenchFilePath("ltm_bench_store_append");
  std::filesystem::remove_all(dir);
  auto st = store::TruthStore::Open(dir);
  if (!st.ok()) {
    state.SkipWithError(st.status().ToString().c_str());
    return;
  }
  const std::vector<store::WalRecord> records = SampleWalRecords(1024);
  size_t i = 0;
  for (auto _ : state) {
    Status s = (*st)->Append(records[i++ & 1023]);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  (void)(*st)->Sync();
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreAppend);

void BM_WalReplayRecovery(benchmark::State& state) {
  const size_t num_records = static_cast<size_t>(state.range(0));
  const std::string path = BenchFilePath("ltm_bench_wal_replay.log");
  std::remove(path.c_str());
  {
    auto writer = store::WalWriter::Open(path);
    if (!writer.ok()) {
      state.SkipWithError(writer.status().ToString().c_str());
      return;
    }
    for (const store::WalRecord& r : SampleWalRecords(num_records)) {
      (void)writer->Append(r);
    }
    (void)writer->Sync();
  }
  for (auto _ : state) {
    auto replay = store::ReplayWal(path);
    if (!replay.ok()) {
      state.SkipWithError(replay.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(replay->records.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_records));
  std::remove(path.c_str());
}
BENCHMARK(BM_WalReplayRecovery)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Block-format read path: point lookup vs slice materialization over a
// multi-segment store. Run with --benchmark_filter='StorePoint|StoreSlice'
// for the read-amplification pair; bench_store_read emits the CI-gated
// BENCH_store_read.json variant of the same comparison.

store::TruthStore* SharedReadStore() {
  static auto* cached = []() -> std::unique_ptr<store::TruthStore>* {
    const std::string dir = BenchFilePath("ltm_bench_micro_store_read");
    std::filesystem::remove_all(dir);
    auto opened = store::TruthStore::Open(dir);
    if (!opened.ok()) return new std::unique_ptr<store::TruthStore>();
    // Eight flushed segments over disjoint entity ranges — the shape
    // leveled compaction converges to — so a point read must pick the one
    // covering segment (zone stats + bloom) and then one data block.
    for (int seg = 0; seg < 8; ++seg) {
      RawDatabase batch;
      for (int i = 0; i < 512; ++i) {
        char entity[32];
        std::snprintf(entity, sizeof entity, "movie-%05d", seg * 512 + i);
        for (int s = 0; s < 4; ++s) {
          batch.Add(entity, "director", "source-" + std::to_string(s));
        }
      }
      if (!(*opened)->AppendRaw(batch).ok() || !(*opened)->Flush().ok()) {
        return new std::unique_ptr<store::TruthStore>();
      }
    }
    return new std::unique_ptr<store::TruthStore>(std::move(*opened));
  }();
  return cached->get();
}

void BM_StorePointLookup(benchmark::State& state) {
  store::TruthStore* ts = SharedReadStore();
  if (ts == nullptr) {
    state.SkipWithError("read-store fixture build failed");
    return;
  }
  const std::unique_ptr<store::EpochPin> pin = ts->PinEpoch();
  uint64_t blocks = 0;
  uint64_t disk_bytes = 0;
  uint64_t queries = 0;
  int e = 0;
  for (auto _ : state) {
    char entity[32];
    std::snprintf(entity, sizeof entity, "movie-%05d", e & 4095);
    e += 997;  // prime stride: consecutive lookups land in far-apart blocks
    const std::string key(entity);
    store::RangeScanStats rs;
    auto slice = ts->MaterializeSnapshot(*pin, &key, &key, &rs);
    if (!slice.ok()) {
      state.SkipWithError(slice.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(slice->raw.NumRows());
    blocks += rs.blocks_read;
    disk_bytes += rs.bytes_read;
    ++queries;
  }
  if (queries > 0) {
    state.counters["blocks_per_query"] =
        static_cast<double>(blocks) / static_cast<double>(queries);
    state.counters["disk_bytes_per_query"] =
        static_cast<double>(disk_bytes) / static_cast<double>(queries);
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_StorePointLookup);

void BM_StoreSliceMaterialize(benchmark::State& state) {
  store::TruthStore* ts = SharedReadStore();
  if (ts == nullptr) {
    state.SkipWithError("read-store fixture build failed");
    return;
  }
  const std::string min = "movie-00000";
  const std::string max = "movie-99999";
  uint64_t blocks = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    store::RangeScanStats rs;
    auto slice = ts->MaterializeEntityRange(min, max, &rs);
    if (!slice.ok()) {
      state.SkipWithError(slice.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(slice->raw.NumRows());
    blocks += rs.blocks_read;
    ++queries;
  }
  if (queries > 0) {
    state.counters["blocks_per_query"] =
        static_cast<double>(blocks) / static_cast<double>(queries);
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_StoreSliceMaterialize);

void BM_LtmIncPredict(benchmark::State& state) {
  const auto& data = SharedProcessData(state.range(0));
  LtmOptions opts = LtmOptions::ScaledDefaults(data.graph.NumFacts());
  std::vector<double> p(data.graph.NumFacts(), 0.7);
  SourceQuality quality =
      EstimateSourceQuality(data.graph, p, opts.alpha0, opts.alpha1);
  LtmIncremental inc(quality, opts);
  FactTable facts;
  for (auto _ : state) {
    TruthEstimate est = inc.Score(facts, data.graph);
    benchmark::DoNotOptimize(est.probability.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.graph.NumClaims()));
}
BENCHMARK(BM_LtmIncPredict)->Arg(1000)->Arg(10000);

void BM_SourceQualityReadOff(benchmark::State& state) {
  const auto& data = SharedProcessData(10000);
  std::vector<double> p(data.graph.NumFacts(), 0.6);
  LtmOptions opts;
  for (auto _ : state) {
    SourceQuality q =
        EstimateSourceQuality(data.graph, p, opts.alpha0, opts.alpha1);
    benchmark::DoNotOptimize(q.sensitivity.data());
  }
}
BENCHMARK(BM_SourceQualityReadOff);

void BM_MovieGenerator(benchmark::State& state) {
  for (auto _ : state) {
    synth::MovieSimOptions gen;
    gen.num_movies = state.range(0);
    Dataset ds = synth::GenerateMovieDataset(gen);
    benchmark::DoNotOptimize(ds.graph.NumClaims());
  }
}
BENCHMARK(BM_MovieGenerator)->Arg(1000);

}  // namespace
}  // namespace ltm

BENCHMARK_MAIN();
