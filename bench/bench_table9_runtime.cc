// Reproduces paper Table 9: wall-clock runtime of every method versus the
// number of entities (3k/6k/9k/12k/15k movies), averaged over several
// runs. Iterative methods run a fixed 100 iterations for fairness, as in
// the paper; LTMinc reuses pre-learned source quality.
//
// Additionally runs a thread-scaling sweep of the sharded LTM sampler
// (threads = 1/2/4/8) on the full-scale movie world — the same dataset
// bench_fig6_scalability's largest point uses — and writes the result to
// BENCH_scaling.json for the CI benchmark artifact.
//
// Flags (for the CI smoke job):
//   --scaling-only        skip Table 9, run only the scaling sweep
//   --movies N            shrink the movie world (default 15073)
//   --iterations N        Gibbs sweeps per run (default 100)
//   --repeats N           timed repeats per configuration (default 3)
//   --out FILE            JSON output path (default BENCH_scaling.json)

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "eval/table_printer.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"
#include "truth/registry.h"

namespace ltm {
namespace bench {
namespace {

constexpr int kRepeats = 3;

double TimeMethod(TruthMethod* method, const Dataset& data) {
  double total = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    WallTimer timer;
    TruthEstimate est = method->Score(data.facts, data.graph);
    total += timer.ElapsedSeconds();
    if (est.probability.size() != data.facts.NumFacts()) return -1.0;
  }
  return total / kRepeats;
}

struct ScalingConfig {
  bool scaling_only = false;
  size_t movies = 15073;
  int iterations = 100;
  int repeats = kRepeats;
  std::string out = "BENCH_scaling.json";
};

/// Times `LTM(threads=N)` for each N on the full dataset and writes the
/// sweep as JSON. Returns false when the output file cannot be written.
bool RunScalingSweep(const BenchDataset& full, const ScalingConfig& cfg) {
  PrintHeader("Thread scaling: sharded LTM on the full movie world");
  std::printf("facts=%zu claims=%zu sources=%zu hardware_threads=%d\n\n",
              full.data.facts.NumFacts(), full.data.graph.NumClaims(),
              full.data.graph.NumSources(),
              ThreadPool::HardwareConcurrency());

  LtmOptions opts = full.ltm_options;
  opts.iterations = cfg.iterations;
  opts.burnin = std::min(opts.burnin, cfg.iterations / 2);
  opts.sample_gap = 1;

  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<double> seconds;
  TablePrinter table({"Threads", "Runtime (s)", "Speedup vs 1"});
  for (int threads : thread_counts) {
    opts.threads = threads;
    LatentTruthModel model(opts);
    model.Score(full.data.facts, full.data.graph);  // warm-up
    double total = 0.0;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      WallTimer timer;
      model.Score(full.data.facts, full.data.graph);
      total += timer.ElapsedSeconds();
    }
    seconds.push_back(total / cfg.repeats);
    table.AddRow({std::to_string(threads), FormatDouble(seconds.back(), 4),
                  FormatDouble(seconds.front() / seconds.back(), 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: near-linear up to the physical core count; the\n"
      "acceptance bar is >= 2x at threads=4 on a 4-core runner.\n");

  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"ltm_thread_scaling\",\n"
               "  \"dataset\": {\"movies\": %zu, \"facts\": %zu, "
               "\"claims\": %zu, \"sources\": %zu},\n"
               "  \"iterations\": %d,\n"
               "  \"repeats\": %d,\n"
               "  \"hardware_threads\": %d,\n"
               "  \"results\": [",
               cfg.movies, full.data.facts.NumFacts(),
               full.data.graph.NumClaims(), full.data.graph.NumSources(),
               cfg.iterations, cfg.repeats,
               ThreadPool::HardwareConcurrency());
  for (size_t i = 0; i < seconds.size(); ++i) {
    std::fprintf(f, "%s\n    {\"threads\": %d, \"seconds\": %.6f, "
                    "\"speedup\": %.4f}",
                 i == 0 ? "" : ",", thread_counts[i], seconds[i],
                 seconds[0] / seconds[i]);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.out.c_str());
  return true;
}

bool Run(const ScalingConfig& cfg) {
  // Subsets are carved from one full-scale world so claim distributions
  // match across sizes.
  BenchDataset full = MakeMovieBench(cfg.movies);
  if (cfg.scaling_only) {
    return RunScalingSweep(full, cfg);
  }
  const std::vector<size_t> sizes{3000, 6000, 9000, 12000, 15073};

  std::vector<Dataset> subsets;
  for (size_t n : sizes) {
    // Subset keeps entities with id < bound; entity ids follow movie
    // generation order, so this matches "first n movies".
    subsets.push_back(full.data.Subset(full.data.raw.NumEntities() * n /
                                       sizes.back()));
  }

  // Source quality for LTMinc, learned once on the full data.
  LtmOptions opts = full.ltm_options;
  opts.iterations = 100;
  opts.burnin = 20;
  opts.sample_gap = 4;
  LatentTruthModel model(opts);
  SourceQuality quality;
  model.RunWithQuality(full.data.graph, &quality);

  PrintHeader("Table 9: runtimes (seconds) vs #entities on the movie data");
  std::vector<std::string> header{"Method"};
  for (size_t i = 0; i < sizes.size(); ++i) {
    header.push_back(std::to_string(sizes[i] / 1000) + "k");
  }
  TablePrinter table(header);

  // Order as in the paper: cheap streaming methods first, LTM last.
  std::vector<std::string> order{"Voting",           "AvgLog",
                                 "HubAuthority",     "PooledInvestment",
                                 "TruthFinder",      "Investment",
                                 "3-Estimates",      "LTM"};

  {
    std::vector<double> times;
    for (const Dataset& sub : subsets) {
      LtmIncremental inc(quality, opts);
      times.push_back(TimeMethod(&inc, sub));
    }
    table.AddRow("LTMinc", times, 4);
  }
  for (const std::string& name : order) {
    auto method = CreateMethod(name, opts);
    std::vector<double> times;
    for (const Dataset& sub : subsets) {
      times.push_back(TimeMethod(method->get(), sub));
    }
    table.AddRow(name, times, 4);
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): all methods scale linearly; Voting and\n"
      "LTMinc are the cheapest; LTM costs a small constant factor (3-5x)\n"
      "over the simpler iterative baselines.\n");

  return RunScalingSweep(full, cfg);
}

}  // namespace
}  // namespace bench
}  // namespace ltm

int main(int argc, char** argv) {
  ltm::bench::ScalingConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(arg, "--scaling-only") == 0) {
      cfg.scaling_only = true;
    } else if (std::strcmp(arg, "--movies") == 0) {
      const long movies = std::atol(next());
      if (movies <= 0) {
        std::fprintf(stderr, "--movies must be > 0\n");
        return 2;
      }
      cfg.movies = static_cast<size_t>(movies);
    } else if (std::strcmp(arg, "--iterations") == 0) {
      cfg.iterations = std::atoi(next());
    } else if (std::strcmp(arg, "--repeats") == 0) {
      cfg.repeats = std::atoi(next());
    } else if (std::strcmp(arg, "--out") == 0) {
      cfg.out = next();
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --scaling-only, --movies N, "
                   "--iterations N, --repeats N, --out FILE)\n",
                   arg);
      return 2;
    }
  }
  if (cfg.iterations <= 0 || cfg.repeats <= 0 || cfg.out.empty()) {
    std::fprintf(stderr,
                 "iterations and repeats must be > 0; --out needs a path\n");
    return 2;
  }
  return ltm::bench::Run(cfg) ? 0 : 1;
}
