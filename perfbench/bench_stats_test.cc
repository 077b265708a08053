// Tests of the benchmark's own helpers: tail percentiles with enough
// samples beyond them, the geometric mean, self-time subtraction, and the
// open-loop schedule.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_stats.h"
#include "spans.h"

namespace qc::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(BenchStats, GeomeanOfPositiveValues) {
  EXPECT_DOUBLE_EQ(Geomean({4}), 4);
  EXPECT_NEAR(Geomean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(Geomean({2, 8, 4}), 4, 1e-12);
}

TEST(BenchStats, GeomeanUndefinedIsZero) {
  EXPECT_EQ(Geomean({}), 0);
  EXPECT_EQ(Geomean({1, 0, 3}), 0);
  EXPECT_EQ(Geomean({1, -2}), 0);
}

TEST(BenchStats, TailPercentileNeedsTenBeyond) {
  double v = -1;
  // 1000 samples: p99 is rank 990 with exactly 10 samples above it.
  ASSERT_TRUE(TailPercentile(OneTo(1000), 99, 10, &v));
  EXPECT_DOUBLE_EQ(v, 990);
  // 999 samples: rank 990 leaves 9 beyond, too few.
  v = -1;
  EXPECT_FALSE(TailPercentile(OneTo(999), 99, 10, &v));
  EXPECT_EQ(v, -1);
  // p98 is reachable from 500 samples.
  ASSERT_TRUE(TailPercentile(OneTo(500), 98, 10, &v));
  EXPECT_DOUBLE_EQ(v, 490);
  EXPECT_FALSE(TailPercentile(OneTo(499), 98, 10, &v));
}

TEST(BenchStats, TailPercentileNearestRank) {
  double v = 0;
  ASSERT_TRUE(TailPercentile({5, 1, 4, 2, 3}, 50, 0, &v));
  EXPECT_DOUBLE_EQ(v, 3);
  ASSERT_TRUE(TailPercentile({5, 1, 4, 2, 3}, 99, 0, &v));
  EXPECT_DOUBLE_EQ(v, 5);
  EXPECT_FALSE(TailPercentile({}, 50, 0, &v));
  EXPECT_FALSE(TailPercentile({1, 2}, 0, 0, &v));
  EXPECT_FALSE(TailPercentile({1, 2}, 100, 0, &v));
}

TEST(BenchStats, GeomeanOfMediansSkipsEmptyQueries) {
  PerQuery pq = {{1, 9, 2}, {}, {8, 8}};
  EXPECT_NEAR(GeomeanOfMedians(pq), 4, 1e-12);  // sqrt(2 * 8)
}

TEST(BenchStats, GeomeanOfTailsPerQuery) {
  // Each query's p90 needs 100 samples for 10 beyond it.
  PerQuery pq = {OneTo(100), {}, OneTo(200)};
  double v = 0;
  ASSERT_TRUE(GeomeanOfTails(pq, 90, 10, &v));
  EXPECT_NEAR(v, std::sqrt(90.0 * 180.0), 1e-9);
  // One short query: reported, with its maximum standing in.
  pq.push_back(OneTo(99));
  EXPECT_FALSE(GeomeanOfTails(pq, 90, 10, &v));
  EXPECT_NEAR(v, std::cbrt(90.0 * 180.0 * 99.0), 1e-9);
}

Span MakeSpan(int64_t lo, int64_t hi, int parent) {
  Span s;
  s.start_ns = lo;
  s.end_ns = hi;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> s = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                         MakeSpan(40, 90, 0), MakeSpan(50, 60, 2)};
  std::vector<int64_t> self = SelfTimesNs(s);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, SelfTimeCountsOverlapOnceAndClips) {
  // Children overlapping each other (another thread's work) and one that
  // runs past its parent's end.
  std::vector<Span> s = {MakeSpan(0, 100, -1), MakeSpan(10, 50, 0),
                         MakeSpan(30, 70, 0), MakeSpan(90, 150, 0)};
  std::vector<int64_t> self = SelfTimesNs(s);
  EXPECT_EQ(self[0], 100 - 60 - 10);
}

TEST(Spans, SelfTimeRollupByLayer) {
  std::vector<Span> s = {MakeSpan(0, 100, -1), MakeSpan(0, 40, 0),
                         MakeSpan(200, 260, -1)};
  s[0].layer = "op";
  s[1].layer = "exec";
  s[2].layer = "exec";
  s[2].op = 7;
  auto all = SelfTimeByLayer(s, [](const Span&) { return true; });
  EXPECT_EQ(all["op"], 60);
  EXPECT_EQ(all["exec"], 100);
  auto only7 = SelfTimeByLayer(s, [](const Span& x) { return x.op == 7; });
  EXPECT_EQ(only7.count("op"), 0u);
  EXPECT_EQ(only7["exec"], 60);
}

TEST(OpenLoop, ScheduleIsSeededAndOrdered) {
  std::vector<Tenant> mix = {{{1, 6}, 1.0}, {{9}, 3.0}};
  std::vector<Arrival> a = OpenLoopSchedule(200, 20, mix, 5);
  std::vector<Arrival> b = OpenLoopSchedule(200, 20, mix, 5);
  std::vector<Arrival> c = OpenLoopSchedule(200, 20, mix, 6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns;
  }
  EXPECT_TRUE(differs);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].due_ns, a[i - 1].due_ns);
  }
  EXPECT_LT(a.back().due_ns, static_cast<int64_t>(20e9));
}

TEST(OpenLoop, ScheduleHitsRateAndShares) {
  std::vector<Tenant> mix = {{{1, 6}, 1.0}, {{9}, 3.0}};
  std::vector<Arrival> a = OpenLoopSchedule(200, 50, mix, 42);
  // 50 s at 200/s: 10000 arrivals, give or take the last gap's jitter and
  // the sum of 10000 bounded gaps (sd about 29 gaps).
  EXPECT_NEAR(static_cast<double>(a.size()), 10000, 150);
  for (size_t i = 1; i < a.size(); ++i) {
    const int64_t gap = a[i].due_ns - a[i - 1].due_ns;
    EXPECT_GE(gap, 2500000 - 1);  // 0.5 / 200 s
    EXPECT_LE(gap, 7500000 + 1);  // 1.5 / 200 s
  }
  size_t heavy = 0;
  for (const Arrival& x : a) {
    if (x.tenant == 1) {
      ++heavy;
      EXPECT_EQ(x.query, 9);
    } else {
      EXPECT_TRUE(x.query == 1 || x.query == 6);
    }
  }
  EXPECT_NEAR(static_cast<double>(heavy) / a.size(), 0.75, 0.03);
}

TEST(OpenLoop, DegenerateInputsGiveEmptySchedule) {
  std::vector<Tenant> mix = {{{1}, 1.0}};
  EXPECT_TRUE(OpenLoopSchedule(0, 10, mix, 1).empty());
  EXPECT_TRUE(OpenLoopSchedule(10, 0, mix, 1).empty());
  EXPECT_TRUE(OpenLoopSchedule(10, 10, {}, 1).empty());
}

TEST(Shuffle, SeededShuffleIsAPermutation) {
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(3);
  SeededShuffle(&v, &rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  std::vector<int> w = {1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng2(3);
  SeededShuffle(&w, &rng2);
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace qc::perfbench
