// Tests of the benchmark's own statistics: percentile selection against
// exact sorted samples, the ten-samples-beyond rule for tail percentiles,
// the fastest repetition of replayed operations, and the traced split
// adding up to the span it splits.

#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace perfbench {
namespace {

std::vector<int64_t> Shuffled(int64_t n, uint64_t seed) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1);  // 1..n: the k-th smallest is k
  std::shuffle(v.begin(), v.end(), std::mt19937_64(seed));
  return v;
}

TEST(Percentile, NearestRankOnExactSortedSamples) {
  for (int64_t n : {1, 2, 3, 10, 99, 100, 101, 1000, 1234}) {
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      std::vector<int64_t> v = Shuffled(n, static_cast<uint64_t>(n));
      std::vector<int64_t> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      const size_t rank = static_cast<size_t>(
          std::max<double>(1, std::ceil(q * static_cast<double>(n) - 1e-9)));
      EXPECT_EQ(Percentile(&v, q), sorted[rank - 1]) << "n=" << n << " q=" << q;
    }
  }
}

TEST(Percentile, ExactQuantileBoundariesDoNotRoundUp) {
  // 0.9 * 100 is 90.00000000000001 in binary floating point; the 90th
  // sample, not the 91st, is the p90 of 100 samples.
  EXPECT_EQ(NearestRank(100, 0.9), 90u);
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(NearestRank(10, 0.5), 5u);
  EXPECT_EQ(NearestRank(11, 0.5), 6u);
  EXPECT_EQ(NearestRank(1, 0.99), 1u);
  std::vector<int64_t> v = Shuffled(100, 7);
  EXPECT_EQ(Percentile(&v, 0.9), 90);
}

TEST(Percentile, MedianIsTheLowerMiddle) {
  EXPECT_EQ(Median(std::vector<double>{3, 1, 2}), 2);
  EXPECT_EQ(Median(std::vector<double>{4, 1, 3, 2}), 2);
  EXPECT_EQ(Median(std::vector<double>{5}), 5);
}

TEST(Percentile, RejectsEmptyInputAndBadQuantiles) {
  std::vector<int64_t> empty;
  EXPECT_THROW(Percentile(&empty, 0.5), std::invalid_argument);
  EXPECT_THROW(NearestRank(10, 0.0), std::invalid_argument);
  EXPECT_THROW(NearestRank(10, 1.5), std::invalid_argument);
}

TEST(TailRule, TenSamplesBeyondTheTail) {
  // p90 needs 100 samples (ranks 91..100 lie beyond rank 90).
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_FALSE(TailSupported(99, 0.9));
  // p95 needs 200, p99 needs 1000.
  EXPECT_TRUE(TailSupported(200, 0.95));
  EXPECT_FALSE(TailSupported(199, 0.95));
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_FALSE(TailSupported(0, 0.5));
}

TEST(TailRule, TailPercentileRefusesShortRuns) {
  std::vector<int64_t> v = Shuffled(99, 3);
  EXPECT_THROW(TailPercentile(v, 0.9, "p90"), std::runtime_error);
  v = Shuffled(100, 3);
  EXPECT_EQ(TailPercentile(v, 0.9, "p90"), 90);
  // Exactly ten samples lie beyond the reported value.
  const int64_t p = TailPercentile(v, 0.9, "p90");
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](int64_t x) { return x > p; }),
            10);
}

TEST(FastestRepetition, KeepsEachOperationsFastestTime) {
  FastestRepetition f;
  f.BeginRepetition();
  for (double v : {5.0, 1.0, 9.0}) f.Add(v);
  f.BeginRepetition();
  for (double v : {4.0, 2.0, 10.0}) f.Add(v);
  f.BeginRepetition();
  for (double v : {6.0, 3.0, 7.0}) f.Add(v);
  EXPECT_EQ(f.values(), (std::vector<double>{4.0, 1.0, 7.0}));
  EXPECT_EQ(f.repetitions(), 3);
}

TEST(FastestRepetition, RepetitionsMustReplayTheSameOperations) {
  FastestRepetition f;
  EXPECT_THROW(f.Add(1), std::logic_error);
  f.BeginRepetition();
  f.Add(1);
  f.Add(2);
  f.BeginRepetition();
  f.Add(1);
  EXPECT_THROW(f.BeginRepetition(), std::runtime_error);  // one short
  FastestRepetition g;
  g.BeginRepetition();
  g.Add(1);
  g.BeginRepetition();
  g.Add(1);
  EXPECT_THROW(g.Add(2), std::runtime_error);  // one too many
}

int64_t Sum(const SpanSplit& s) {
  int64_t t = 0;
  for (const auto& [label, self] : s.self_by_label) t += self;
  return t;
}

TEST(SpanSplit, TickPhasesPlusGapEqualTheTickSpan) {
  // tick [0, 100): plan [2, 12), execute [12, 70) holding two refresh
  // attempts, finalize [71, 95) holding a checkpoint; the rest is untraced.
  const Span tick{"perfbench/tick", 0, 100};
  std::vector<Span> spans = {
      {"sched/tick.plan", 2, 10},     {"sched/tick.execute", 12, 58},
      {"refresh/attempt", 13, 20},    {"exec/op", 14, 5},
      {"refresh/attempt", 40, 25},    {"sched/tick.finalize", 71, 24},
      {"persist/checkpoint", 80, 10},
  };
  const SpanSplit s = SplitSpan(tick, spans);
  EXPECT_EQ(s.total, tick.dur);
  EXPECT_EQ(Sum(s), tick.dur);
  EXPECT_EQ(s.SelfOf("sched/tick.plan"), 10);
  EXPECT_EQ(s.SelfOf("sched/tick.execute"), 58 - 20 - 25);
  EXPECT_EQ(s.SelfOf("refresh/attempt"), (20 - 5) + 25);
  EXPECT_EQ(s.SelfOf("exec/op"), 5);
  EXPECT_EQ(s.SelfOf("sched/tick.finalize"), 24 - 10);
  EXPECT_EQ(s.SelfOf("persist/checkpoint"), 10);
  // Untraced gaps: [0,2), [70,71), [95,100).
  EXPECT_EQ(s.SelfOf("perfbench/tick"), 2 + 1 + 5);
}

TEST(SpanSplit, RoundingOverlapsStillAddUp) {
  // Microsecond rounding lets a child poke past its parent and a sibling
  // start before the previous one ends; the split must still partition the
  // root exactly.
  const Span tick{"root", 100, 50};
  std::vector<Span> spans = {
      {"a", 100, 30}, {"b", 129, 22},  // overlaps a, ends past the root
      {"c", 101, 31},                  // child of a, pokes past a's end
      {"d", 140, 0},                   // zero-length
      {"e", 90, 5},                    // starts before the root: ignored
  };
  const SpanSplit s = SplitSpan(tick, spans);
  EXPECT_EQ(s.total, 50);
  EXPECT_EQ(Sum(s), 50);
  for (const auto& [label, self] : s.self_by_label) {
    EXPECT_GE(self, 0) << label;
  }
  EXPECT_EQ(s.SelfOf("e"), 0);
}

TEST(SpanSplit, RandomNestedTreesAddUp) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Span root{"root", 0, 1000};
    std::vector<Span> spans;
    // Random properly nested intervals, then jittered by +-1 to mimic
    // rounding.
    std::function<void(int64_t, int64_t, int)> gen = [&](int64_t lo,
                                                         int64_t hi, int d) {
      int64_t cur = lo;
      while (cur < hi && d < 4) {
        const int64_t start = cur + static_cast<int64_t>(rng() % 20);
        const int64_t len = 1 + static_cast<int64_t>(rng() % 200);
        if (start + len > hi) break;
        const int64_t jitter = static_cast<int64_t>(rng() % 3) - 1;
        spans.push_back({"l" + std::to_string(d), start, len + jitter});
        gen(start, start + len, d + 1);
        cur = start + len;
      }
    };
    gen(0, 1000, 0);
    const SpanSplit s = SplitSpan(root, spans);
    ASSERT_EQ(s.total, 1000);
    ASSERT_EQ(Sum(s), 1000);
    for (const auto& [label, self] : s.self_by_label) ASSERT_GE(self, 0);
  }
}

TEST(RefreshSplit, ProfileRootPlusUnattributedEqualsTheSpan) {
  for (int64_t span : {0, 1, 1000, 123456789}) {
    for (int64_t root : {int64_t{0}, span / 3, span, span + 5, int64_t{-4}}) {
      const RefreshSplit r = SplitRefresh(span, root);
      EXPECT_EQ(r.profile_ns + r.unattributed_ns, span);
      EXPECT_GE(r.profile_ns, 0);
      EXPECT_GE(r.unattributed_ns, 0);
    }
  }
  const RefreshSplit r = SplitRefresh(100, 60);
  EXPECT_EQ(r.profile_ns, 60);
  EXPECT_EQ(r.unattributed_ns, 40);
}

}  // namespace
}  // namespace perfbench
