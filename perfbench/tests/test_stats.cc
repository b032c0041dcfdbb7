// Unit tests for the benchmark's own arithmetic (perfbench/src/stats.h):
// percentiles and their sample support, the open-loop schedule, curve
// rates and virtual delays, the waterfall, the /proc/stat steal reading,
// and the gate that fails a run.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  const Percentile p50 = PercentileOf(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 2.5);
  EXPECT_EQ(p50.samples, 4u);
  EXPECT_EQ(p50.beyond, 2u);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 1.0).value, 4.0);
}

TEST(Percentile, EmptySampleIsZeroAndUnsupported) {
  std::vector<double> v;
  const Percentile p = PercentileOf(v, 0.99);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_DOUBLE_EQ(p.value, 0.0);
  EXPECT_FALSE(p.supported());
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // p99 of 1..1000 is 990.01: ten samples (991..1000) lie beyond it.
  std::vector<double> v = Range(1000);
  const Percentile p = PercentileOf(v, 0.99);
  EXPECT_NEAR(p.value, 990.01, 1e-9);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.supported());
  // With 900 samples the p99 is 891.01 and only nine lie beyond it.
  std::vector<double> w = Range(900);
  const Percentile q = PercentileOf(w, 0.99);
  EXPECT_NEAR(q.value, 891.01, 1e-9);
  EXPECT_EQ(q.beyond, 9u);
  EXPECT_FALSE(q.supported());
}

TEST(Percentile, TiesAreNotCountedBeyond) {
  std::vector<double> v(100, 5.0);
  const Percentile p = PercentileOf(v, 0.99);
  EXPECT_DOUBLE_EQ(p.value, 5.0);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(MachineTicks, ParsesTheMachineAndPerCpuLines) {
  MachineTicks t;
  int cpu = 0;
  ASSERT_TRUE(ParseCpuLine("cpu  100 2 30 800 4 0 6 58 7 0\n", &cpu, &t));
  EXPECT_EQ(cpu, -1);
  EXPECT_EQ(t.total, 1000u);  // guest columns are not added again
  EXPECT_EQ(t.idle, 804u);
  EXPECT_EQ(t.steal, 58u);
  ASSERT_TRUE(ParseCpuLine("cpu3 1 2 3 4 5 6 7 8 0 0", &cpu, &t));
  EXPECT_EQ(cpu, 3);
  EXPECT_EQ(t.steal, 8u);
  EXPECT_FALSE(ParseCpuLine("cpu  1 2 3 4", &cpu, &t));  // no steal column
  EXPECT_FALSE(ParseCpuLine("intr 1 2 3 4 5 6 7 8", &cpu, &t));
}

TEST(MachineTicks, StealShareIsTheStolenPartOfTheWindow) {
  const MachineTicks a{1000, 500, 10};
  const MachineTicks b{1400, 700, 30};
  EXPECT_DOUBLE_EQ(StealShare(a, b), 0.05);
  EXPECT_DOUBLE_EQ(StealShare(a, a), 0.0);
}

TEST(MachineTicks, ForeignShareIsBusyTimeNotSpentByTheBenchmark) {
  // 400 ticks pass: 200 idle, 20 stolen, 180 busy; the benchmark spent
  // 1.2 s at 100 ticks/s of them.
  const MachineTicks a{1000, 500, 10};
  const MachineTicks b{1400, 700, 30};
  EXPECT_DOUBLE_EQ(ForeignShare(a, b, 1.2, 100.0), 0.15);
  EXPECT_DOUBLE_EQ(ForeignShare(a, b, 5.0, 100.0), 0.0);  // never negative
  EXPECT_DOUBLE_EQ(ForeignShare(a, a, 0.0, 100.0), 0.0);
}

TEST(GroupedMedian, InterpolatesInsideTheMiddleBin) {
  std::vector<double> a = {3, 1, 2, 2};
  EXPECT_DOUBLE_EQ(GroupedMedian(a), 2.0);  // 1.5 + (2 - 1) / 2
  std::vector<double> b = {2, 2, 2, 3};
  EXPECT_NEAR(GroupedMedian(b), 1.5 + 2.0 / 3.0, 1e-12);
  std::vector<double> c = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(GroupedMedian(c), 2.5);  // matches the plain median
  std::vector<double> d = {1, 2, 3};
  EXPECT_DOUBLE_EQ(GroupedMedian(d), 2.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(GroupedMedian(empty), 0.0);
}

TEST(StallSpans, CoverTheStolenTicksBeforeEachGrowth) {
  constexpr std::int64_t kTick = 10;
  const std::vector<StealSample> samples = {
      {100, {5, 7}}, {102, {5, 7}},  // nothing stolen
      {104, {5, 9}},                 // CPU 1 lost 2 ticks
      {106, {6, 9}},                 // CPU 0 lost 1 tick: overlaps
      {300, {6, 9}}, {302, {6, 10}},
  };
  const std::vector<Span> spans = StallSpans(samples, kTick);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].lo_ns, 102 - 3 * kTick);
  EXPECT_EQ(spans[0].hi_ns, 106);
  EXPECT_EQ(spans[1].lo_ns, 300 - 2 * kTick);
  EXPECT_EQ(spans[1].hi_ns, 302);
  EXPECT_TRUE(StallSpans({{0, {1}}}, kTick).empty());
}

TEST(StallSpans, OverlapsFindsAnyContact) {
  const std::vector<Span> spans = {{10, 20}, {40, 50}};
  EXPECT_FALSE(Overlaps(spans, 0, 9));
  EXPECT_TRUE(Overlaps(spans, 0, 10));
  EXPECT_TRUE(Overlaps(spans, 15, 16));
  EXPECT_TRUE(Overlaps(spans, 20, 30));
  EXPECT_FALSE(Overlaps(spans, 21, 39));
  EXPECT_TRUE(Overlaps(spans, 21, 60));
  EXPECT_FALSE(Overlaps(spans, 51, 60));
  EXPECT_FALSE(Overlaps({}, 0, 100));
}

TEST(Median, OfOddAndEvenSets) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheSystem) {
  const OpenLoopSchedule s(1'000'000, 200000.0);  // 5 us apart
  EXPECT_EQ(s.due_ns(0), 1'000'000);
  EXPECT_EQ(s.due_ns(1), 1'005'000);
  EXPECT_EQ(s.due_ns(200000), 1'000'000 + 1'000'000'000);
  EXPECT_EQ(s.due_count(999'999), 0u);
  EXPECT_EQ(s.due_count(1'000'000), 1u);  // tuple 0 is due at start
  EXPECT_EQ(s.due_count(1'004'999), 1u);
  EXPECT_EQ(s.due_count(1'005'000), 2u);
}

TEST(OpenLoopSchedule, LatenessCountsFromTheDueTime) {
  const OpenLoopSchedule s(0, 1000.0);  // 1 ms apart
  // A generator stalled for 10 ms sends tuples 0..10 at t = 10 ms: each is
  // late by the time since *its own* due time, not since the last send.
  EXPECT_EQ(s.due_count(10'000'000), 11u);
  EXPECT_EQ(s.lateness_ns(0, 10'000'000), 10'000'000);
  EXPECT_EQ(s.lateness_ns(5, 10'000'000), 5'000'000);
  EXPECT_EQ(s.lateness_ns(10, 10'000'000), 0);
}

TEST(OpenLoopSchedule, DueCountAgreesWithDueTimesAtOddRates) {
  const OpenLoopSchedule s(123, 3.0e5 / 7.0);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(s.due_count(s.due_ns(k)), k + 1) << k;
    EXPECT_EQ(s.due_count(s.due_ns(k) - 1), k) << k;
  }
}

TEST(Curves, WindowRateUsesFirstPointsPastEachBound) {
  const std::vector<CurvePoint> c = {
      {0.0, 0}, {1.0, 100}, {2.0, 300}, {3.0, 500}, {4.0, 600}};
  // First point >= 150 is (2, 300); first >= 450 is (3, 500).
  EXPECT_DOUBLE_EQ(WindowRate(c, 150, 450), 200.0);
  EXPECT_DOUBLE_EQ(WindowRate(c, 150, 10000), 0.0);  // never reached
}

TEST(Curves, CrossingTimeAndValueAtInterpolate) {
  const std::vector<CurvePoint> c = {{1.0, 10}, {2.0, 30}, {4.0, 30},
                                     {5.0, 50}};
  EXPECT_DOUBLE_EQ(CrossingTime(c, 20), 1.5);
  EXPECT_DOUBLE_EQ(CrossingTime(c, 5), 1.0);
  EXPECT_DOUBLE_EQ(CrossingTime(c, 40), 4.5);
  EXPECT_LT(CrossingTime(c, 51), 0.0);
  EXPECT_DOUBLE_EQ(ValueAt(c, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(ValueAt(c, 1.5), 20.0);
  EXPECT_DOUBLE_EQ(ValueAt(c, 3.0), 30.0);
  EXPECT_DOUBLE_EQ(ValueAt(c, 9.0), 50.0);
  EXPECT_DOUBLE_EQ(ValueAt({}, 1.0), 0.0);
}

TEST(Curves, VirtualDelayIsTheHorizontalGapInsideTheWindow) {
  // Output trails input by exactly 0.5 s at the same rate.
  std::vector<CurvePoint> in;
  std::vector<CurvePoint> out;
  for (int i = 0; i <= 10; ++i) {
    in.push_back({i * 1.0, i * 100.0});
    out.push_back({i * 1.0 + 0.5, i * 100.0});
  }
  const std::vector<double> d = VirtualDelays(in, out, 2.0, 6.0);
  ASSERT_EQ(d.size(), 5u);  // inputs at t = 2..6
  for (double x : d) EXPECT_NEAR(x, 0.5, 1e-12);
}

TEST(Waterfall, SumsLayerCostsAgainstEndToEnd) {
  const Waterfall w = BuildWaterfall(
      {{"codec", 50.0, 2.0}, {"switch", 200.0, 0.5}, {"acker", 40.0, 0.0}},
      400.0);
  ASSERT_EQ(w.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(w.rows[0].ns_per_unit, 100.0);
  EXPECT_DOUBLE_EQ(w.rows[1].ns_per_unit, 100.0);
  EXPECT_DOUBLE_EQ(w.rows[2].ns_per_unit, 0.0);
  EXPECT_DOUBLE_EQ(w.rows[0].share, 0.25);
  EXPECT_DOUBLE_EQ(w.attributed_ns, 200.0);
  EXPECT_DOUBLE_EQ(w.unattributed_share, 0.5);
}

TEST(Waterfall, OverAttributionShowsAsNegativeGap) {
  const Waterfall w = BuildWaterfall({{"a", 300.0, 1.0}}, 200.0);
  EXPECT_DOUBLE_EQ(w.unattributed_share, -0.5);
  EXPECT_DOUBLE_EQ(BuildWaterfall({{"a", 1.0, 1.0}}, 0.0).unattributed_share,
                   0.0);
}

TEST(Gate, ExactZeroFailsTheRun) {
  RunChecks c;
  c.exact = false;
  EXPECT_EQ(GateFailures(c).size(), 1u);
  c.exact = true;
  EXPECT_TRUE(GateFailures(c).empty());
}

TEST(Gate, GeneratorLagBeyondItsLimitFailsOpenLoopRuns) {
  RunChecks c;
  c.exact = true;
  c.open_loop = true;
  c.generator_lag_limit_ms = 5.0;
  c.generator_lag_p99_ms = 4.99;
  EXPECT_TRUE(GateFailures(c).empty());
  c.generator_lag_p99_ms = 5.01;
  EXPECT_EQ(GateFailures(c).size(), 1u);
  c.exact = false;
  EXPECT_EQ(GateFailures(c).size(), 2u);
  // Closed-loop workloads have no schedule to fall behind.
  c.exact = true;
  c.open_loop = false;
  EXPECT_TRUE(GateFailures(c).empty());
}

}  // namespace
}  // namespace perfbench
