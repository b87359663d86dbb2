// Tests for the Gibbs kernel (truth/gibbs_kernel.h): the one-pass sweep
// that fuses the two Eq. 2 log-conditionals into a single adjacency walk
// and reads every log(count + alpha) from memoized tables. The exact
// oracle pins its per-fact flip probability, bit for bit, to a two-pass
// std::log transcription of Eq. 2 through several sweeps. The rest pin
// the statistical contract: marginals match the exact enumeration oracle
// on small instances, the counts invariant holds sweep by sweep, and both
// samplers (including the sharded thread-pool path the TSan leg covers)
// run the same chain for a fixed (seed, threads) pair.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "synth/ltm_process.h"
#include "test_util.h"
#include "truth/exact_inference.h"
#include "truth/gibbs_kernel.h"
#include "truth/ltm.h"
#include "truth/ltm_parallel.h"
#include "truth/registry.h"

namespace ltm {
namespace {

LtmOptions TinyOptions(uint64_t seed = 5) {
  LtmOptions opts;
  opts.alpha0 = BetaPrior{1.0, 10.0};
  opts.alpha1 = BetaPrior{2.0, 2.0};
  opts.beta = BetaPrior{1.0, 1.0};
  opts.iterations = 4000;
  opts.burnin = 500;
  opts.sample_gap = 1;
  opts.seed = seed;
  return opts;
}

ClaimGraph RandomTinyClaims(uint64_t seed, size_t num_facts,
                            size_t num_sources) {
  Rng rng(seed);
  std::vector<Claim> claims;
  for (FactId f = 0; f < num_facts; ++f) {
    for (SourceId s = 0; s < num_sources; ++s) {
      if (rng.Bernoulli(0.3)) continue;
      claims.push_back(Claim{f, s, rng.Bernoulli(0.5)});
    }
  }
  return ClaimGraph::FromClaims(std::move(claims), num_facts, num_sources);
}

/// Log of the unnormalized Eq. 2 conditional p(t_f = i | t_-f, o),
/// transcribed literally: one adjacency pass per label and two std::log
/// calls per claim. `alpha[i][j]` is the pseudo-count of label i and
/// observation j; `exclude_self` drops fact f's own claims, which are
/// counted under its current label.
double TwoPassLogConditional(const ClaimGraph& graph,
                             const std::vector<int64_t>& counts,
                             const std::array<std::array<double, 2>, 2>& alpha,
                             const BetaPrior& beta, FactId f, int i,
                             bool exclude_self) {
  double lp = std::log(i == 1 ? beta.pos : beta.neg);
  const int64_t self = exclude_self ? 1 : 0;
  const double alpha_sum = alpha[i][0] + alpha[i][1];
  for (uint32_t entry : graph.FactClaims(f)) {
    const uint32_t cs = ClaimGraph::PackedId(entry);
    const int j = ClaimGraph::PackedObs(entry);
    const int64_t n_ij = counts[cs * 4 + i * 2 + j] - self;
    const int64_t n_i =
        counts[cs * 4 + i * 2] + counts[cs * 4 + i * 2 + 1] - self;
    lp += std::log(static_cast<double>(n_ij) + alpha[i][j]) -
          std::log(static_cast<double>(n_i) + alpha_sum);
  }
  return lp;
}

// ---------------------------------------------------------------------------
// The exact oracle: memoizing and fusing the two passes changes no bit.

TEST(GibbsKernelTest, FlipProbabilityEqualsTwoPassStdLogExactly) {
  for (uint64_t seed : {3u, 11u, 47u, 90u}) {
    // Enough facts per source that counts cross several table-growth
    // boundaries, and fractional priors like ScaledDefaults produces.
    ClaimGraph graph = RandomTinyClaims(seed, 400, 6);
    Rng prior_rng(seed + 1000);
    LtmOptions opts;
    opts.alpha0 = BetaPrior{prior_rng.Uniform(0.5, 50.0),
                            prior_rng.Uniform(50.0, 5000.0)};
    opts.alpha1 = BetaPrior{prior_rng.Uniform(0.5, 80.0),
                            prior_rng.Uniform(0.5, 80.0)};
    opts.beta = BetaPrior{prior_rng.Uniform(0.5, 20.0),
                          prior_rng.Uniform(0.5, 20.0)};
    opts.seed = seed;
    opts.threads = 1;
    const std::array<std::array<double, 2>, 2> alpha{
        {{opts.alpha0.neg, opts.alpha0.pos},
         {opts.alpha1.neg, opts.alpha1.pos}}};
    const std::array<double, 2> log_beta{std::log(opts.beta.neg),
                                         std::log(opts.beta.pos)};
    LogCountTables tables;
    tables.Reset(opts.alpha0, opts.alpha1);

    // The oracle chain replays LtmGibbs's stream: the initial draw from
    // Rng(seed), then one uniform per fact per sweep.
    LtmGibbs sampler(graph, opts);
    Rng rng(opts.seed);
    std::vector<uint8_t> truth(graph.NumFacts());
    for (uint8_t& t : truth) t = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<int64_t> counts(graph.NumSources() * 4);
    RecountClaims(graph, truth, &counts);

    for (int sweep = 0; sweep < 6; ++sweep) {
      for (FactId f = 0; f < graph.NumFacts(); ++f) {
        const int cur = truth[f];
        const int other = 1 - cur;
        const double lp_cur = TwoPassLogConditional(
            graph, counts, alpha, opts.beta, f, cur, /*exclude_self=*/true);
        const double lp_other = TwoPassLogConditional(
            graph, counts, alpha, opts.beta, f, other,
            /*exclude_self=*/false);
        const double expected = 1.0 / (1.0 + std::exp(lp_cur - lp_other));
        const double actual =
            FlipProbability(graph, f, cur, counts, log_beta, &tables);
        EXPECT_EQ(actual, expected)
            << "seed " << seed << " sweep " << sweep << " fact " << f;
        if (rng.Uniform() < expected) {
          truth[f] = static_cast<uint8_t>(other);
          for (uint32_t entry : graph.FactClaims(f)) {
            const uint32_t s = ClaimGraph::PackedId(entry);
            const int j = ClaimGraph::PackedObs(entry);
            --counts[s * 4 + cur * 2 + j];
            ++counts[s * 4 + other * 2 + j];
          }
        }
      }
      // The library chain takes the same flips, sweep by sweep.
      sampler.RunSweep();
      ASSERT_EQ(sampler.truth(), truth) << "seed " << seed << " sweep "
                                        << sweep;
    }
  }
}

// ---------------------------------------------------------------------------
// Counts invariant.

class FusedCountsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedCountsTest, CountsStayConsistentWithTruth) {
  RawDatabase raw = testing::RandomRaw(GetParam());
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(ClaimTable::Build(raw, facts));
  LtmOptions opts = TinyOptions(GetParam());
  opts.iterations = 20;
  opts.burnin = 5;
  LtmGibbs sampler(claims, opts);

  for (int sweep = 0; sweep < 5; ++sweep) {
    sampler.RunSweep();
    std::vector<int64_t> recount(claims.NumSources() * 4, 0);
    for (FactId f = 0; f < claims.NumFacts(); ++f) {
      const int i = sampler.truth()[f];
      for (uint32_t entry : claims.FactClaims(f)) {
        ++recount[ClaimGraph::PackedId(entry) * 4 + i * 2 +
                  ClaimGraph::PackedObs(entry)];
      }
    }
    for (SourceId s = 0; s < claims.NumSources(); ++s) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          ASSERT_EQ(sampler.Count(s, i, j), recount[s * 4 + i * 2 + j])
              << "s=" << s << " i=" << i << " j=" << j << " sweep=" << sweep;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedCountsTest,
                         ::testing::Values(3, 17, 29, 61));

// ---------------------------------------------------------------------------
// Exact-marginal equivalence: the chain converges to the enumerated
// posterior (the enumeration oracle knows nothing about the kernel).

class FusedVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedVsExactTest, PosteriorMeansMatchEnumeration) {
  ClaimGraph claims = RandomTinyClaims(GetParam(), 7, 3);
  LtmOptions opts = TinyOptions(GetParam() * 31 + 7);
  auto exact = ExactPosterior(claims, opts);
  ASSERT_TRUE(exact.ok());

  TruthEstimate est = LtmGibbs(claims, opts).Run();
  for (FactId f = 0; f < claims.NumFacts(); ++f) {
    EXPECT_NEAR(est.probability[f], (*exact)[f], 0.05)
        << "fact " << f << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedVsExactTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 42, 99));

// ---------------------------------------------------------------------------
// Sampler parity: both samplers run the same sweep function, and the
// sharded path stays deterministic and statistically sound.

TEST(GibbsKernelTest, FusedSingleShardBitIdenticalAcrossSamplers) {
  RawDatabase raw = testing::RandomRaw(55);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(ClaimTable::Build(raw, facts));
  LtmOptions opts = TinyOptions(7);
  opts.iterations = 120;
  opts.burnin = 20;
  opts.sample_gap = 2;
  opts.threads = 1;

  TruthEstimate sequential = LtmGibbs(claims, opts).Run();
  TruthEstimate sharded = ParallelLtmGibbs(claims, opts).Run();
  EXPECT_EQ(sequential.probability, sharded.probability);

  // The registry route (threads=1) lands on the same chain.
  auto method = CreateMethod("LTM(threads=1)", opts);
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  TruthEstimate via_registry = (*method)->Score(facts, claims);
  EXPECT_EQ(via_registry.probability, sequential.probability);
}

TEST(GibbsKernelTest, FusedShardedDeterministicForSeed) {
  RawDatabase raw = testing::RandomRaw(71);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(ClaimTable::Build(raw, facts));
  LtmOptions opts = TinyOptions(7);
  opts.iterations = 60;
  opts.burnin = 10;
  opts.sample_gap = 2;
  opts.threads = 4;

  TruthEstimate ea = ParallelLtmGibbs(claims, opts).Run();
  TruthEstimate eb = ParallelLtmGibbs(claims, opts).Run();
  EXPECT_EQ(ea.probability, eb.probability);
}

TEST(GibbsKernelTest, FusedShardedRecoversTruthOnGoodSyntheticData) {
  synth::LtmProcessOptions gen;
  gen.num_facts = 800;
  gen.num_sources = 16;
  gen.alpha0 = BetaPrior{10.0, 90.0};
  gen.alpha1 = BetaPrior{90.0, 10.0};
  gen.seed = 21;
  synth::LtmProcessData data = synth::GenerateLtmProcess(gen);

  LtmOptions opts;
  opts.alpha0 = BetaPrior{10.0, 1000.0};
  opts.iterations = 100;
  opts.burnin = 20;
  opts.sample_gap = 4;
  opts.threads = 4;
  LatentTruthModel model(opts);
  TruthEstimate est = model.Score(data.facts, data.graph);
  PointMetrics m = EvaluateAtThreshold(est.probability, data.truth, 0.5);
  EXPECT_GT(m.accuracy(), 0.95) << m.confusion.ToString();
}

// Const inspection stays race-free under the lazy count build: two
// threads reading Count() right after construction (the only window
// where the build hasn't happened yet) must not race — the guarantee
// eager construction used to give, now held by the EnsureCounts guard.
// Runs under the TSan CI leg.
TEST(GibbsKernelTest, ConcurrentCountReadsAfterConstructionAreSafe) {
  RawDatabase raw = testing::RandomRaw(41);
  FactTable facts = FactTable::Build(raw);
  ClaimGraph claims = ClaimGraph::Build(ClaimTable::Build(raw, facts));
  LtmOptions opts = TinyOptions();
  opts.iterations = 10;
  opts.burnin = 2;

  const LtmGibbs sequential(claims, opts);
  opts.threads = 2;
  const ParallelLtmGibbs sharded(claims, opts);
  auto reader = [&] {
    int64_t total = 0;
    for (SourceId s = 0; s < claims.NumSources(); ++s) {
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          total += sequential.Count(s, i, j) + sharded.Count(s, i, j);
        }
      }
    }
    // Each sampler's counts sum to the claim count.
    EXPECT_EQ(total, 2 * static_cast<int64_t>(claims.NumClaims()));
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
}

// ---------------------------------------------------------------------------
// The memo tables themselves.

TEST(LogCountTablesTest, MatchesStdLogAcrossGrowth) {
  LogCountTables tables;
  const std::array<std::array<double, 2>, 2> alpha{
      {{10000.0, 100.0}, {50.0, 50.0}}};
  tables.Reset(BetaPrior{alpha[0][1], alpha[0][0]},
               BetaPrior{alpha[1][1], alpha[1][0]});
  for (int i = 0; i < 2; ++i) {
    const double alpha_sum = alpha[i][0] + alpha[i][1];
    // Probe out of order, past several growth boundaries, and across the
    // memoization cap (where the direct-std::log fallback takes over);
    // every answer must be the exact std::log of the same argument.
    const int64_t cap = static_cast<int64_t>(LogCountTables::kMaxEntries);
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1000},
                      int64_t{63}, int64_t{64}, int64_t{65}, int64_t{4097},
                      cap - 1, cap, cap + 1, cap * 16, int64_t{2},
                      int64_t{0}}) {
      for (int j = 0; j < 2; ++j) {
        EXPECT_EQ(tables.LogNum(i, j, n),
                  std::log(static_cast<double>(n) + alpha[i][j]))
            << "i=" << i << " j=" << j << " n=" << n;
      }
      EXPECT_EQ(tables.LogDen(i, n),
                std::log(static_cast<double>(n) + alpha_sum))
          << "i=" << i << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace ltm
