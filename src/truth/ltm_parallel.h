#ifndef LTM_TRUTH_LTM_PARALLEL_H_
#define LTM_TRUTH_LTM_PARALLEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/claim_graph.h"
#include "truth/gibbs_kernel.h"
#include "truth/options.h"
#include "truth/truth_method.h"

namespace ltm {

/// Sharded collapsed Gibbs sampler for the Latent Truth Model, the
/// parallel port of LtmGibbs onto the CSR ClaimGraph.
///
/// Facts are partitioned into `options.threads` contiguous shards
/// balanced by claim count (ClaimGraph::PartitionFacts). One sweep runs
/// every shard concurrently on a thread pool:
///
///   - each shard copies the authoritative per-source count matrix,
///     then Gibbs-samples its facts *sequentially against that copy*
///     (in-shard flips are visible immediately, exactly like the
///     sequential sampler; cross-shard flips only at the next sweep);
///   - each shard draws from its own Rng::SplitStream(shard) stream, so
///     results do not depend on thread scheduling;
///   - at the sweep barrier the per-shard count deltas are merged back
///     into the authoritative matrix (integer adds — order-independent).
///
/// This is the standard approximate-collapsed-Gibbs scheme (cf. AD-LDA):
/// with one shard it degenerates to the exact sequential chain, and the
/// single-shard configuration consumes the *identical* RNG stream and
/// floating-point operation sequence as LtmGibbs, so its posteriors are
/// bit-identical (pinned by tests/truth/ltm_parallel_test.cc). With
/// multiple shards the chain differs from the sequential one but remains
/// a valid sampler whose posterior agrees statistically, and is fully
/// deterministic for a fixed (seed, threads) pair.
///
/// Every shard runs the one sweep function LtmGibbs runs
/// (GibbsSweepRange, truth/gibbs_kernel.h) against its own memoized
/// log-count tables, so a single-shard run is bit-identical to LtmGibbs.
class ParallelLtmGibbs {
 public:
  /// `graph` must outlive the sampler. `options.threads` <= 0 resolves to
  /// ThreadPool::HardwareConcurrency(). `pool` (optional) supplies worker
  /// threads; the process-wide ThreadPool::Shared() is used when null.
  /// Mirrors LtmGibbs: the constructor seeds the RNG streams once and
  /// draws an initial assignment; a later Initialize() call continues
  /// the streams. The count matrix is built lazily on first use, so
  /// construction followed by Run() pays a single O(edges) count pass.
  ParallelLtmGibbs(const ClaimGraph& graph, const LtmOptions& options,
                   ThreadPool* pool = nullptr);

  /// References the graph, owns per-shard RNG streams and a mutex; a copy
  /// would alias the pool and fork the streams, so copies and moves are
  /// compile errors.
  ParallelLtmGibbs(const ParallelLtmGibbs&) = delete;
  ParallelLtmGibbs& operator=(const ParallelLtmGibbs&) = delete;
  ParallelLtmGibbs(ParallelLtmGibbs&&) = delete;
  ParallelLtmGibbs& operator=(ParallelLtmGibbs&&) = delete;

  /// Randomly (re-)initializes the truth assignment (shard k draws its
  /// facts from stream k) and clears the accumulator; counts rebuild
  /// lazily on the next sweep.
  void Initialize();

  /// One full sweep over all shards. Returns the number of flips.
  int RunSweep();

  /// RunSweep honoring `stop_check` between shard dispatches (the
  /// RunContext cancellation/deadline hook; must be thread-safe). On a
  /// non-OK status the sweep stops after in-flight shards and the chain
  /// must be considered torn — callers abandon the run, as the wrapper
  /// does. `flips` receives the sweep's flip count on OK.
  Status RunSweep(const std::function<Status()>& stop_check, int* flips);

  /// Adds the current truth assignment into the running posterior mean.
  void AccumulateSample();

  /// Posterior estimate from the accumulated samples; 0.5 prior when no
  /// sample was accumulated yet.
  TruthEstimate PosteriorMean() const;

  /// Full schedule from `options`, like LtmGibbs::Run.
  TruthEstimate Run();

  const std::vector<uint8_t>& truth() const { return truth_; }

  /// Authoritative count n_{s,i,j} (merged, between sweeps).
  int64_t Count(SourceId s, int truth_value, int observation) const {
    EnsureCounts();
    return counts_[s * 4 + truth_value * 2 + observation];
  }

  int num_shards() const { return num_shards_; }
  int num_accumulated_samples() const { return num_samples_; }

 private:
  /// Draws a fresh truth assignment (shard k from stream k) and marks
  /// the count matrix stale; consumes exactly NumFacts draws per stream.
  void DrawInitialTruth();

  /// Recounts n_{s,i,j} from the graph and the current truth vector if a
  /// redraw left them stale. Mutex-guarded so concurrent const Count()
  /// inspections stay race-free (see LtmGibbs::EnsureCounts).
  void EnsureCounts() const LTM_EXCLUDES(counts_mutex_);

  const ClaimGraph& graph_;
  LtmOptions options_;
  ThreadPool* pool_;
  int num_shards_;
  std::vector<uint32_t> shard_bounds_;  // num_shards_+1 fact boundaries

  Rng rng_;                       // single-shard stream (LtmGibbs-identical)
  std::vector<Rng> shard_rngs_;   // per-shard SplitStream engines

  std::vector<uint8_t> truth_;
  // Authoritative n_{s,i,j}; rebuilt lazily after a truth redraw so
  // construction + Run() pays one count pass (see LtmGibbs).
  // As in LtmGibbs: counts_ is covered by the no-concurrent-mutation
  // contract, only the staleness flag is lock-guarded.
  mutable std::vector<int64_t> counts_;
  mutable bool counts_stale_ LTM_GUARDED_BY(counts_mutex_) = true;
  mutable Mutex counts_mutex_;  // guards the lazy build only
  std::vector<std::vector<int64_t>> shard_counts_;  // per-shard local views
  // Memoized log tables: one per shard, never shared across threads
  // (lazy growth is unsynchronized).
  std::vector<LogCountTables> shard_tables_;
  std::vector<int> shard_flips_;
  std::vector<double> truth_sum_;
  int num_samples_ = 0;
  std::array<double, 2> log_beta_;  // log(beta.neg), log(beta.pos)
};

/// The Gibbs shard count `options` asks for: `threads`, with 0 resolving
/// to ThreadPool::HardwareConcurrency(). The one resolution both
/// LatentTruthModel::Run (sequential when 1, sharded above) and
/// ParallelLtmGibbs use.
int ResolveShards(const LtmOptions& options);

/// Runs the sharded sampler under the engine protocol, mirroring
/// LatentTruthModel::Run's sequential loop (observer checks, trace,
/// on_state, progress, §5.3 quality read-off from `quality_graph`).
/// `graph` is what the chain samples (the positive-only projection for
/// LTMpos); `quality_graph` is the full graph the read-off uses. Called
/// by LatentTruthModel::Run when the resolved thread count is > 1;
/// exposed for tests and benchmarks that want to bypass the registry.
Result<TruthResult> RunShardedLtm(const RunContext& ctx,
                                  const std::string& name,
                                  const ClaimGraph& quality_graph,
                                  const ClaimGraph& graph,
                                  const LtmOptions& options);

}  // namespace ltm

#endif  // LTM_TRUTH_LTM_PARALLEL_H_
