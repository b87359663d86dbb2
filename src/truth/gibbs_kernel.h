#ifndef LTM_TRUTH_GIBBS_KERNEL_H_
#define LTM_TRUTH_GIBBS_KERNEL_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/claim_graph.h"
#include "truth/options.h"

namespace ltm {

/// Memoized transcendental tables for the Gibbs kernel: the Eq. 2
/// conditional depends on the per-source counts n_{s,i,j} only through
/// log(n + alpha_{i,j}) and log(n_{s,i,0} + n_{s,i,1} + alpha_i0 +
/// alpha_i1), and the counts are small non-negative integers (bounded by
/// the busiest source's claim count). So each distinct argument is
/// log()'d once and every later sweep reads it back from a lazily-grown
/// table — the precompute-the-transcendentals idiom of large-scale
/// collapsed Gibbs/LDA samplers. Every entry is std::log of exactly the
/// argument a direct evaluation would compute, so memoizing changes no
/// bit of the chain.
///
/// Tables are keyed by the truth label i (and observation j for the
/// numerator family) because the Beta pseudo-counts differ per (i, j).
/// One instance serves one chain (or one shard: growth is not
/// synchronized — give concurrent shards their own instance).
class LogCountTables {
 public:
  /// Per-table memoization cap. Counts at or beyond the cap (a source
  /// with > 64k claims) fall back to a direct std::log of the identical
  /// argument — same value to the bit, so behavior is unaffected — which
  /// bounds each table at 512 KB and the eager Grow fill at 64k logs no
  /// matter how prolific the busiest source is (tables are duplicated
  /// per shard, so an uncapped build would multiply by thread count).
  static constexpr size_t kMaxEntries = 1 << 16;

  LogCountTables() = default;

  /// (Re-)binds the tables to a prior configuration and drops any
  /// memoized entries. Label i = 0 uses alpha0 and i = 1 uses alpha1;
  /// observation j = 0 takes the prior's `neg` count and j = 1 its `pos`.
  void Reset(const BetaPrior& alpha0, const BetaPrior& alpha1);

  /// log(n + alpha[i][j]); n >= 0.
  double LogNum(int i, int j, int64_t n) {
    const size_t idx = static_cast<size_t>(n);
    if (idx >= kMaxEntries) {
      return std::log(static_cast<double>(n) + alpha_[i][j]);
    }
    std::vector<double>& t = num_[i][j];
    if (idx >= t.size()) Grow(&t, alpha_[i][j], idx);
    return t[idx];
  }

  /// log(n + alpha[i][0] + alpha[i][1]); n >= 0.
  double LogDen(int i, int64_t n) {
    const size_t idx = static_cast<size_t>(n);
    if (idx >= kMaxEntries) {
      return std::log(static_cast<double>(n) + alpha_sum_[i]);
    }
    std::vector<double>& t = den_[i];
    if (idx >= t.size()) Grow(&t, alpha_sum_[i], idx);
    return t[idx];
  }

 private:
  /// Extends `t` so index `needed` exists (callers guarantee `needed` is
  /// below kMaxEntries), filling log(k + offset). Doubling growth keeps
  /// the amortized cost per distinct count O(1).
  static void Grow(std::vector<double>* t, double offset, size_t needed);

  std::array<std::array<std::vector<double>, 2>, 2> num_;
  std::array<std::vector<double>, 2> den_;
  std::array<std::array<double, 2>, 2> alpha_{};
  std::array<double, 2> alpha_sum_{};
};

/// The per-fact Gibbs update (paper Eq. 2): the probability that fact f
/// flips from its current label `cur`,
///
///   p_flip = 1 / (1 + exp(lp_cur - lp_other)),
///
/// where lp_i = log beta_i + sum over f's claims of
/// log(n_{s,i,j} + alpha_{i,j}) - log(n_{s,i,+} + alpha_i0 + alpha_i1),
/// with fact f's own claims excluded from the cur-side counts (they are
/// always counted under cur, so n - 1 never goes negative).
///
/// One walk over f's packed adjacency keeps the two sums apart, and each
/// adds its terms in the order of a separate per-label pass; every log
/// comes from `tables`. The result therefore equals, bit for bit, the
/// two-pass std::log transcription of Eq. 2 (pinned by
/// tests/truth/ltm_kernel_test.cc).
///
/// `counts` is the n_{s,i,j} matrix flattened s*4 + i*2 + j — the
/// authoritative matrix of a sequential chain or a shard's private copy.
/// `log_beta[i]` is log(beta_i) of the truth prior.
double FlipProbability(const ClaimGraph& graph, FactId f, int cur,
                       const std::vector<int64_t>& counts,
                       const std::array<double, 2>& log_beta,
                       LogCountTables* tables);

/// One Gibbs pass over facts [begin, end): per fact, evaluate
/// FlipProbability, draw one uniform from `rng`, and on a flip update
/// `truth` and `counts` in place. Returns the flip count. LtmGibbs and
/// every ParallelLtmGibbs shard run their sweeps through this single
/// function, so a single-shard chain is bit-identical to the sequential
/// one by construction rather than by keeping two loop copies in sync.
int GibbsSweepRange(const ClaimGraph& graph, FactId begin, FactId end,
                    std::vector<uint8_t>* truth,
                    std::vector<int64_t>* counts,
                    const std::array<double, 2>& log_beta,
                    LogCountTables* tables, Rng* rng);

/// Rebuilds the flattened n_{s,i,j} count matrix (s*4 + i*2 + j, the
/// layout the kernel indexes) from the graph and a truth assignment.
/// `counts` must already be sized NumSources()*4; it is zeroed first.
/// Shared by both samplers' lazy count builds so the packing layout
/// cannot drift between the sequential and sharded chains.
void RecountClaims(const ClaimGraph& graph,
                   const std::vector<uint8_t>& truth,
                   std::vector<int64_t>* counts);

}  // namespace ltm

#endif  // LTM_TRUTH_GIBBS_KERNEL_H_
