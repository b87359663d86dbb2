// Tests for the benchmark's measurement helpers.
#include "harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRankTest, PicksTheCeilingRank) {
  std::vector<double> v = OneTo(10);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(NearestRank(v, 50.0), 5.0);
  EXPECT_EQ(NearestRank(v, 51.0), 6.0);
  EXPECT_EQ(NearestRank(v, 90.0), 9.0);
  EXPECT_EQ(NearestRank(v, 99.0), 10.0);
  EXPECT_EQ(NearestRank(v, 100.0), 10.0);
  EXPECT_EQ(NearestRank(v, 0.001), 1.0);
  EXPECT_EQ(NearestRank({}, 50.0), 0.0);
}

TEST(SummarizeTest, ReportsCountMedianAndSupportedTail) {
  std::vector<double> v = OneTo(1000);
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p90, 900.0);
  EXPECT_EQ(s.p99, 990.0);
  // p99 leaves 10 samples beyond it; p99.9 would leave only 1.
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(SummarizeTest, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> small = OneTo(19);
  EXPECT_EQ(Summarize(&small).tail_pct, 0.0);  // median leaves 9 beyond
  std::vector<double> twenty = OneTo(20);
  const Summary s = Summarize(&twenty);
  EXPECT_EQ(s.tail_pct, 50.0);
  EXPECT_EQ(s.tail, 10.0);
  std::vector<double> big = OneTo(100000);
  EXPECT_EQ(Summarize(&big).tail_pct, 99.99);
  EXPECT_NE(FormatSummary(Summarize(&big), "us").find("p99.99="),
            std::string::npos);
  EXPECT_EQ(FormatSummary(Summarize(&twenty), "s"), "n=20 p50=10.000s");
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t request, const char* name,
              int64_t start, int64_t end) {
  return Span{id, parent, request, name, start, end};
}

TEST(AttributeTest, SelfTimeAndCoverageOfNestedChildren) {
  SpanLog spans = {
      MakeSpan(1, 0, 7, "parent", 0, 100),
      MakeSpan(2, 1, 7, "a", 10, 30),
      MakeSpan(3, 1, 7, "b", 40, 70),
      MakeSpan(4, 0, 8, "parent", 200, 250),
      MakeSpan(5, 4, 8, "a", 200, 250),
      MakeSpan(6, 0, 9, "other", 0, 1000),  // not a parent of interest
      MakeSpan(7, 6, 9, "c", 0, 1000),
  };
  const Attribution a = Attribute(spans, "parent");
  ASSERT_EQ(a.self_micros.size(), 2u);
  EXPECT_DOUBLE_EQ(a.self_micros[0], 50.0 / 1e3);
  EXPECT_DOUBLE_EQ(a.self_micros[1], 0.0);
  EXPECT_DOUBLE_EQ(a.coverage, (50.0 + 50.0) / 150.0);
  EXPECT_EQ(a.mismatched_requests, 0u);
}

TEST(AttributeTest, OverlappingChildrenCountOnce) {
  SpanLog spans = {
      MakeSpan(1, 0, 1, "parent", 0, 100),
      MakeSpan(2, 1, 1, "a", 0, 60),
      MakeSpan(3, 1, 1, "b", 40, 80),  // overlaps a by 20
  };
  const Attribution a = Attribute(spans, "parent");
  EXPECT_DOUBLE_EQ(a.coverage, 0.8);
  EXPECT_DOUBLE_EQ(a.self_micros[0], 20.0 / 1e3);
}

TEST(AttributeTest, ReplayedChildrenAfterTheParentStillCount) {
  // A replay runs the parent's sub-calls after it returns.
  SpanLog spans = {
      MakeSpan(1, 0, 3, "parent", 0, 100),
      MakeSpan(2, 1, 3, "pin", 100, 110),
      MakeSpan(3, 1, 3, "materialize", 110, 190),
  };
  const Attribution a = Attribute(spans, "parent");
  EXPECT_DOUBLE_EQ(a.coverage, 0.9);
  EXPECT_DOUBLE_EQ(a.self_micros[0], 10.0 / 1e3);
}

TEST(AttributeTest, FlagsChildrenOfAnotherRequest) {
  SpanLog spans = {
      MakeSpan(1, 0, 3, "parent", 0, 100),
      MakeSpan(2, 1, 4, "child", 10, 20),
  };
  EXPECT_EQ(Attribute(spans, "parent").mismatched_requests, 1u);
}

TEST(AttributeTest, NoParentsMeansZeroCoverage) {
  EXPECT_EQ(Attribute({}, "parent").coverage, 0.0);
}

TEST(ScopedSpanTest, RecordsOnlyWhenTracing) {
  SpanLog log;
  uint64_t parent = 0;
  {
    ScopedSpan outer(&log, "outer", 42);
    parent = outer.id();
    ScopedSpan inner(&log, "inner", 42, outer.id());
  }
  { ScopedSpan off(nullptr, "off", 1); }
  ASSERT_EQ(log.size(), 2u);
  EXPECT_STREQ(log[0].name, "inner");
  EXPECT_EQ(log[0].parent, parent);
  EXPECT_EQ(log[1].request, 42u);
  EXPECT_LE(log[1].start_ns, log[0].start_ns);
  EXPECT_GE(log[1].end_ns, log[0].end_ns);
}

TEST(ScheduleTest, UniformSpacing) {
  const std::vector<int64_t> s = UniformSchedule(1000.0, 4);
  EXPECT_EQ(s, (std::vector<int64_t>{0, 1'000'000, 2'000'000, 3'000'000}));
}

TEST(ScheduleTest, PoissonIsSeededAndHasTheOfferedRate) {
  const std::vector<int64_t> a = PoissonSchedule(10000.0, 20000, 5);
  EXPECT_EQ(a, PoissonSchedule(10000.0, 20000, 5));
  EXPECT_NE(a, PoissonSchedule(10000.0, 20000, 6));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.front(), 0);
  const double rate = 20000.0 / (static_cast<double>(a.back()) / 1e9);
  EXPECT_NEAR(rate, 10000.0, 300.0);
}

TEST(LatenessTest, MeasuredFromTheIntendedSend) {
  EXPECT_EQ(LatenessNs(100, 250), 150);
  EXPECT_EQ(LatenessNs(100, 100), 0);
  EXPECT_EQ(LatenessNs(100, 90), 0);  // early sends are not negative lateness
}

TEST(LatenessTest, OpenLoopTimesFromTheScheduleNotTheSend) {
  // One worker and a request that stalls 20 ms: the requests queued behind
  // it go out late, and their latency includes that wait.
  const std::vector<int64_t> schedule = UniformSchedule(1000.0, 5);  // 1 ms apart
  const LoopResult r = RunOpenLoop(schedule, 1, false, [](size_t i, SpanLog*) {
    if (i == 0) {
      const int64_t until = NowNs() + 20'000'000;
      while (NowNs() < until) {
      }
    }
    return true;
  });
  ASSERT_EQ(r.attempted, 5u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_LT(r.lateness_us[0], 1000.0);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_GT(r.lateness_us[i], 15000.0) << i;
    EXPECT_GE(r.latency_us[i], r.lateness_us[i]) << i;
  }
}

TEST(LoopTest, FailedRequestsMissEveryLimit) {
  const LoopResult r = RunOpenLoop(UniformSchedule(1e5, 10), 2, false,
                                   [](size_t i, SpanLog*) { return i % 2 == 0; });
  EXPECT_EQ(r.attempted, 10u);
  EXPECT_EQ(r.failed, 5u);
  size_t missed = 0;
  for (double us : r.latency_us) missed += us == kFailedLatencyUs;
  EXPECT_EQ(missed, 5u);
}

TEST(LoopTest, ClosedLoopTracesAlternateWindows) {
  EXPECT_TRUE(TracedWindow(true, 0));
  EXPECT_FALSE(TracedWindow(true, 300'000'000));
  EXPECT_TRUE(TracedWindow(true, 500'000'000));
  EXPECT_FALSE(TracedWindow(false, 0));
  std::atomic<int> calls{0};
  const LoopResult r = RunClosedLoop(2, 0.6, true, [&](unsigned, SpanLog* log) {
    ScopedSpan span(log, "op", 1);
    ++calls;
    return true;
  });
  EXPECT_EQ(r.attempted, static_cast<uint64_t>(calls.load()));
  EXPECT_FALSE(r.traced_us.empty());
  EXPECT_FALSE(r.untraced_us.empty());
  EXPECT_EQ(r.spans.size(), r.traced_us.size());
}

TEST(WindowTest, MediansOverCompleteWindowsDiscountOneStall) {
  LoopResult r;
  // Four 1 ms windows of ten requests, the second with a 100x stall, and
  // one request opening an incomplete fifth window.
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) {
      r.offset_ns.push_back(w * 1'000'000 + i * 100'000);
      r.latency_us.push_back(w == 1 ? 1000.0 + i : 10.0 + i);
    }
  }
  r.offset_ns.push_back(4'000'000);
  r.latency_us.push_back(1e6);
  // Per-window p50s are 14, 1004, 14, 14.
  EXPECT_EQ(WindowedPercentile(r, 50.0, 1'000'000), 14.0);
  EXPECT_EQ(WindowedPercentile(r, 90.0, 1'000'000), 18.0);
  EXPECT_EQ(WindowedRate(r, 1'000'000), 10.0 * 1000.0);
  EXPECT_EQ(WindowedPercentile(LoopResult(), 50.0, 1'000'000), 0.0);
}

TEST(WindowTest, FailedRequestsDoNotCountTowardTheRate) {
  LoopResult r;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 10; ++i) {
      r.offset_ns.push_back(w * 1'000'000 + i * 100'000);
      r.latency_us.push_back(i < 4 ? kFailedLatencyUs : 10.0);
    }
  }
  r.offset_ns.push_back(3'000'000);
  r.latency_us.push_back(10.0);
  EXPECT_EQ(WindowedRate(r, 1'000'000), 6.0 * 1000.0);
}

TEST(ReportTest, JsonHasExactlyTheContractKeys) {
  Report r;
  r.Set("b_metric", 1.25, "ms");
  r.Set("a_metric", 3.0, "count");
  r.AddOps(10, 0);
  EXPECT_TRUE(r.Check(true, "fine"));
  EXPECT_EQ(r.Json(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": "
            "{\"a_metric\": {\"value\": 3, \"unit\": \"count\"}, \"b_metric\": "
            "{\"value\": 1.25, \"unit\": \"ms\"}}}");
  EXPECT_FALSE(r.Check(false, "broken"));
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.failed(), 1u);
}

TEST(ReportTest, AFailedOperationMakesTheRunIncorrect) {
  Report r;
  r.AddOps(10, 1);
  EXPECT_FALSE(r.correct());
  EXPECT_TRUE(r.failures().empty());
}

}  // namespace
}  // namespace perfbench
