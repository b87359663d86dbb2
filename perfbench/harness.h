// Measurement helpers for the end-to-end benchmark: nearest-rank
// percentiles, in-memory trace spans with self time and coverage, the
// open-loop send schedule, and the result record. Independent of the
// library so they can be unit-tested alone (tests/harness_test.cc).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// ceil(p/100 * n), 1-based. `p` in (0, 100]. 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double p);

/// A timing summary: the sample count, p50, p90, p99, and the highest of
/// {50, 90, 99, 99.9, 99.99} that still has at least ten samples beyond
/// its rank (`tail_pct` 0 when even the median has fewer).
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Sorts `samples` in place and summarizes them.
Summary Summarize(std::vector<double>* samples);

/// "n=... p50=... p90=... p99.9=..." with the supported tail, for logs.
std::string FormatSummary(const Summary& s, const char* unit);

// ---------------------------------------------------------------------------
// Trace spans

/// One timed call. `parent` is the id of the span that caused it (0 for
/// a root); spans of one request share `request`. `name` points at a
/// string literal.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Process-wide span/request id source.
uint64_t NextSpanId();

/// Spans recorded by one thread; merged after the thread joins. A null
/// log means "not tracing" everywhere it is accepted.
using SpanLog = std::vector<Span>;

/// Times a scope into `log` (no clock read when `log` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  /// Records nothing for this scope (e.g. a call that turned out a no-op).
  void Drop() { log_ = nullptr; }

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t request_;
  uint64_t parent_;
  int64_t start_ns_ = 0;
};

/// Durations (microseconds) of every span called `name`.
std::vector<double> DurationsMicros(const SpanLog& spans,
                                    const std::string& name);

/// Parent-relative attribution of spans called `parent_name`. A child
/// names its parent by id; it may run inside the parent (a nested call)
/// or after it (a replay of the parent's sub-calls on the same input), so
/// children are not clipped to the parent's interval.
struct Attribution {
  /// Σ child time ÷ Σ parent time, where overlapping children of one
  /// parent count once.
  double coverage = 0.0;
  /// Per-parent self time: duration minus the children's union (may be
  /// negative when a replay runs slower than the call it replays).
  std::vector<double> self_micros;
  /// Children whose request id differs from their parent's (a tracing
  /// bug; callers treat it as a failed check).
  size_t mismatched_requests = 0;
};

Attribution Attribute(const SpanLog& spans, const std::string& parent_name);

// ---------------------------------------------------------------------------
// Open-loop schedule

/// Intended send times (ns offsets from the phase start) of an open-loop
/// stream, fixed before the phase runs.
std::vector<int64_t> UniformSchedule(double rate_per_s, size_t count);
/// Poisson arrivals at `rate_per_s`, drawn from `seed` (SplitMix64 +
/// inverse-CDF exponential gaps).
std::vector<int64_t> PoissonSchedule(double rate_per_s, size_t count,
                                     uint64_t seed);

/// How late a send went out: actual − intended, floored at 0.
inline int64_t LatenessNs(int64_t intended_ns, int64_t actual_ns) {
  return actual_ns > intended_ns ? actual_ns - intended_ns : 0;
}

/// Blocks until `deadline_ns` (NowNs clock): sleeps while far away, then
/// spins the last stretch. Returns the time it actually returned.
int64_t WaitUntil(int64_t deadline_ns);

// ---------------------------------------------------------------------------
// Load loops

/// Latency recorded for a request that failed or was shed: it misses any
/// latency limit (1000 s).
constexpr double kFailedLatencyUs = 1e9;

/// Whether a request due at `offset_ns` into a phase is traced: tracing
/// alternates with untraced 250 ms windows so one traced run also yields
/// the tracing overhead.
inline bool TracedWindow(bool trace, int64_t offset_ns) {
  return trace && (offset_ns / 250'000'000) % 2 == 0;
}

/// Per-request outcome of a load loop.
struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
  /// Open loop: completion − intended send. Closed loop: service time.
  std::vector<double> latency_us;
  /// Open loop: intended send; closed loop: send. Ns from the phase start,
  /// aligned with latency_us.
  std::vector<int64_t> offset_ns;
  /// Open loop only: actual − intended send.
  std::vector<double> lateness_us;
  /// Latencies of requests in traced / untraced windows (trace runs only).
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  SpanLog spans;
};

/// Concatenates per-thread results (counts summed, vectors appended).
LoopResult MergeLoopResults(std::vector<LoopResult>* parts);

/// Splits a loop's requests into consecutive windows of `window_ns` by
/// offset and returns the median over the complete windows of each
/// window's nearest-rank `pct` latency. A transient stall on a shared
/// machine then moves one window, not the run's figure.
double WindowedPercentile(const LoopResult& r, double pct, int64_t window_ns);

/// Median over complete windows of successful requests per second.
double WindowedRate(const LoopResult& r, int64_t window_ns);

/// Open loop: `workers` threads take the next request in `schedule` (ns
/// offsets), wait for its intended send time, and run `op(i, log)`
/// (returns success; `log` is null outside traced windows). Latency is
/// measured from the intended send, so a stall counts against every
/// request queued behind it.
template <typename Op>
LoopResult RunOpenLoop(const std::vector<int64_t>& schedule, unsigned workers,
                       bool trace, Op op) {
  std::atomic<size_t> next{0};
  std::vector<LoopResult> parts(workers);
  const int64_t start = NowNs() + 1'000'000;
  auto body = [&](LoopResult* out) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) return;
      const int64_t intended = start + schedule[i];
      const int64_t sent = WaitUntil(intended);
      const bool traced = TracedWindow(trace, schedule[i]);
      const bool ok = op(i, traced ? &out->spans : nullptr);
      const double us = static_cast<double>(NowNs() - intended) / 1e3;
      ++out->attempted;
      if (!ok) ++out->failed;
      out->latency_us.push_back(ok ? us : kFailedLatencyUs);
      out->offset_ns.push_back(schedule[i]);
      out->lateness_us.push_back(
          static_cast<double>(LatenessNs(intended, sent)) / 1e3);
      if (trace) (traced ? out->traced_us : out->untraced_us).push_back(us);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned w = 1; w < workers; ++w) threads.emplace_back(body, &parts[w]);
  body(&parts[0]);
  for (std::thread& t : threads) t.join();
  LoopResult out = MergeLoopResults(&parts);
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

/// Closed loop: `clients` threads each run `op(client, log)` back to back
/// for `seconds`; each request's latency is its service time.
template <typename Op>
LoopResult RunClosedLoop(unsigned clients, double seconds, bool trace, Op op) {
  std::atomic<bool> stop{false};
  std::vector<LoopResult> parts(clients);
  const int64_t start = NowNs();
  auto body = [&](unsigned client, LoopResult* out) {
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t t0 = NowNs();
      const bool traced = TracedWindow(trace, t0 - start);
      const bool ok = op(client, traced ? &out->spans : nullptr);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      ++out->attempted;
      if (!ok) ++out->failed;
      out->latency_us.push_back(ok ? us : kFailedLatencyUs);
      out->offset_ns.push_back(t0 - start);
      if (trace) (traced ? out->traced_us : out->untraced_us).push_back(us);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back(body, c, &parts[c]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  LoopResult out = MergeLoopResults(&parts);
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

// ---------------------------------------------------------------------------
// Result record

/// Metrics by name with their units, plus operation counts and the
/// correctness verdict; rendered as the benchmark's last output line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one output check as an operation; a failed check is a failed
  /// operation. Any failed operation makes the run incorrect. Returns `ok`.
  bool Check(bool ok, const std::string& what);
  void AddOps(uint64_t attempted, uint64_t failed);

  bool correct() const { return failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  size_t Count() const { return metrics_.size(); }
  double Get(const std::string& name) const;

  /// "name = value unit" lines for every metric, in name order.
  std::string Text() const;
  /// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string Json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMiB();

/// Total bytes of regular files under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
