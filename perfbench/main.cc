// The end-to-end benchmark program:
//   perfbench --workload point_read|bulk_ingest|mixed_feed --seed N
//             --seconds S --trace 0|1 [--dir DIR] [--commit ID]
// Prints the run's environment, every metric by name with its unit, and
// as its last line one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Must match BENCHMARK.json.
const char* const kEndToEnd[] = {
    "setup_s",          "throughput", "latency_p50_us",
    "disk_bytes_per_row", "fit_auc",    "peak_rss_mb",
};

const char* const kPerLayer[] = {
    "serve.query_miss_p50_us",   "serve.query_miss_p99_us",
    "serve.query_hit_p50_us",    "serve.cache_hit_ratio",
    "serve.score_p50_us",        "serve.self_p50_us",
    "serve.quality_install_p50_us", "serve.refit_shed_ratio",
    "serve.coalesced_ratio",     "serve.shed",
    "store.pin_p50_us",          "store.point_materialize_p50_us",
    "store.blocks_per_read",     "store.block_cache_hit_ratio",
    "store.segments_skipped_ratio", "store.append_p50_us",
    "store.append_p99_us",       "store.flush_p50_us",
    "store.compact_p50_us",      "store.compactions",
    "store.compaction_bytes_per_row", "store.rebalances",
    "store.full_materialize_us", "ext.refit_us",
    "data.fact_table_us",        "data.claim_graph_us",
    "truth.gibbs_sweep_us",      "gen.lateness_p99_us",
    "trace.coverage.serve_miss", "trace.coverage.refit",
    "trace.coverage.ingest",     "trace.overhead",
};

/// Owns the run's scratch directory; removes it on every return path.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

 private:
  std::string path_;
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "point_read|bulk_ingest|mixed_feed --seed N --seconds S "
               "--trace 0|1 [--dir DIR] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        return Usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "point_read") run = RunPointRead;
  if (args.workload == "bulk_ingest") run = RunBulkIngest;
  if (args.workload == "mixed_feed") run = RunMixedFeed;
  if (run == nullptr) return Usage("unknown --workload");
  if (args.dir.empty()) {
    args.dir = ".bench_build/runs/perfbench-" + std::to_string(NowNs());
  }
  // The library logs every refit and rebalance at Info; keep stdout for
  // the benchmark's own lines.
  ltm::SetLogLevel(ltm::LogLevel::kWarning);

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  std::printf("env: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
              "\"%s\", \"asserts\": %s, \"commit\": \"%s\", \"workload\": "
              "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              Nproc(), kCompiler, PERFBENCH_BUILD_TYPE,
              asserts ? "true" : "false", commit.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (!release || asserts) {
    std::printf("WARNING: not an optimized Release build; timings are not "
                "comparable\n");
  }

  Report report;
  {
    ScopedDir scratch(args.dir);
    run(args, &report);
  }
  // Every listed metric, and only those, finite.
  std::set<std::string> expected;
  if (args.trace) {
    expected.insert(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    expected.insert(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const std::string& name : expected) {
    report.Check(report.Has(name) && std::isfinite(report.Get(name)),
                 "metric " + name + " was not measured");
  }
  report.Check(report.Count() == expected.size(),
               "the run reported metrics outside its list");
  std::printf("%s: %llu operation(s) attempted, %llu failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  std::printf("%s", report.Text().c_str());
  for (const std::string& failure : report.failures()) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
