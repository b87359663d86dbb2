#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Summary s;
  s.count = samples->size();
  if (s.count == 0) return s;
  s.p50 = NearestRank(*samples, 50.0);
  s.p90 = NearestRank(*samples, 90.0);
  s.p99 = NearestRank(*samples, 99.0);
  const double n = static_cast<double>(s.count);
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const size_t rank =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(pct / 100.0 * n)));
    if (s.count - std::min(rank, s.count) < 10) break;
    s.tail_pct = pct;
    s.tail = (*samples)[rank - 1];
  }
  return s;
}

std::string FormatSummary(const Summary& s, const char* unit) {
  char buf[192];
  int n = std::snprintf(buf, sizeof buf, "n=%zu p50=%.3f%s", s.count, s.p50, unit);
  if (s.tail_pct >= 90.0) {
    n += std::snprintf(buf + n, sizeof buf - n, " p90=%.3f%s", s.p90, unit);
  }
  if (s.tail_pct > 90.0) {
    std::snprintf(buf + n, sizeof buf - n, " p%g=%.3f%s", s.tail_pct, s.tail, unit);
  }
  return buf;
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t request,
                       uint64_t parent)
    : log_(log), name_(name), request_(request), parent_(parent) {
  if (log_ == nullptr) return;
  id_ = NextSpanId();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  const int64_t end = NowNs();
  log_->push_back(Span{id_, parent_, request_, name_, start_ns_, end});
}

std::vector<double> DurationsMicros(const SpanLog& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.micros());
  }
  return out;
}

Attribution Attribute(const SpanLog& spans, const std::string& parent_name) {
  Attribution out;
  std::unordered_map<uint64_t, const Span*> parents;
  for (const Span& s : spans) {
    if (parent_name == s.name) parents.emplace(s.id, &s);
  }
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = parents.find(s.parent);
    if (it == parents.end()) continue;
    if (s.request != it->second->request) ++out.mismatched_requests;
    if (s.end_ns > s.start_ns) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  int64_t parent_total = 0;
  int64_t covered_total = 0;
  // Walk parents in recording order so self_micros is deterministic.
  for (const Span& s : spans) {
    if (parent_name != s.name) continue;
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_lo = iv.front().first;
      int64_t run_hi = iv.front().second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > run_hi) {
          covered += run_hi - run_lo;
          run_lo = iv[i].first;
          run_hi = iv[i].second;
        } else {
          run_hi = std::max(run_hi, iv[i].second);
        }
      }
      covered += run_hi - run_lo;
    }
    parent_total += duration;
    covered_total += covered;
    out.self_micros.push_back(static_cast<double>(duration - covered) / 1e3);
  }
  out.coverage = parent_total > 0 ? static_cast<double>(covered_total) /
                                        static_cast<double>(parent_total)
                                  : 0.0;
  return out;
}

std::vector<int64_t> UniformSchedule(double rate_per_s, size_t count) {
  std::vector<int64_t> out(count);
  const double gap_ns = 1e9 / rate_per_s;
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<int64_t>(gap_ns * static_cast<double>(i));
  }
  return out;
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, size_t count,
                                     uint64_t seed) {
  std::vector<int64_t> out(count);
  uint64_t state = seed;
  double t_ns = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // SplitMix64 -> uniform in (0, 1].
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u = (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
    out[i] = static_cast<int64_t>(t_ns);
    t_ns += -std::log(u) * 1e9 / rate_per_s;
  }
  return out;
}

int64_t WaitUntil(int64_t deadline_ns) {
#ifdef __linux__
  // Without the default 50 us timer slack a sleep ends close to its target.
  thread_local const bool precise = prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0;
  (void)precise;
#endif
  // Wake-ups on a busy shared machine still run late by tens of
  // microseconds, so the last stretch is spun. A 20 us spin let that
  // lateness into point_read's open-loop p50 (run-to-run spread 0.09-0.24
  // against 0.07-0.15 with this value).
  constexpr int64_t kSpinNs = 200'000;
  int64_t now = NowNs();
  while (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
    now = NowNs();
  }
  while (now < deadline_ns) now = NowNs();
  return now;
}

LoopResult MergeLoopResults(std::vector<LoopResult>* parts) {
  LoopResult out;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (LoopResult& p : *parts) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    append(&out.latency_us, p.latency_us);
    out.offset_ns.insert(out.offset_ns.end(), p.offset_ns.begin(),
                         p.offset_ns.end());
    append(&out.lateness_us, p.lateness_us);
    append(&out.traced_us, p.traced_us);
    append(&out.untraced_us, p.untraced_us);
    out.spans.insert(out.spans.end(), p.spans.begin(), p.spans.end());
  }
  return out;
}

namespace {

/// Latencies grouped by window; only windows that end before the last
/// request's offset are complete.
std::vector<std::vector<double>> Windows(const LoopResult& r,
                                         int64_t window_ns) {
  int64_t last = 0;
  for (const int64_t o : r.offset_ns) last = std::max(last, o);
  const size_t complete = static_cast<size_t>(last / window_ns);
  std::vector<std::vector<double>> windows(complete);
  for (size_t i = 0; i < r.offset_ns.size(); ++i) {
    const size_t w = static_cast<size_t>(r.offset_ns[i] / window_ns);
    if (w < complete) windows[w].push_back(r.latency_us[i]);
  }
  return windows;
}

}  // namespace

double WindowedPercentile(const LoopResult& r, double pct, int64_t window_ns) {
  std::vector<double> per_window;
  for (std::vector<double>& w : Windows(r, window_ns)) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(NearestRank(w, pct));
  }
  return Summarize(&per_window).p50;
}

double WindowedRate(const LoopResult& r, int64_t window_ns) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : Windows(r, window_ns)) {
    // A failed request returns fast; it must not raise the rate.
    const auto ok = std::count_if(w.begin(), w.end(), [](double us) {
      return us != kFailedLatencyUs;
    });
    per_window.push_back(static_cast<double>(ok) * 1e9 /
                         static_cast<double>(window_ns));
  }
  return Summarize(&per_window).p50;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

void Report::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string Report::Text() const {
  std::string out;
  char buf[256];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-36s %.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    // Non-finite values are not JSON; they print as 0 (main() fails the
    // run's checks for them).
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
