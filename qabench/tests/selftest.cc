// Self-tests for the benchmark's own arithmetic: the percentile rule, the
// per-seed determinism of the load schedules, and span self time.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "../src/schedule.h"
#include "../src/stats.h"
#include "../src/trace.h"

namespace qabench {
namespace {

TEST(PercentileRule, HighestLadderStepWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(1000000), 99.9);
}

TEST(PercentileRule, NearestRankQuantile) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  EXPECT_EQ(Quantile(v, 0.5), 500.0);
  EXPECT_EQ(Quantile(v, 0.99), 990.0);  // ten samples (991..1000) beyond
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Quantile(v, 1.0), 1000.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);

  Summary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.tail_pct, 0.0);  // too few samples for any tail
  EXPECT_EQ(s.tail, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);

  std::vector<double> big(v.rbegin(), v.rend());
  Summary b = Summarize(big);
  EXPECT_EQ(b.tail_pct, 99.0);
  EXPECT_EQ(b.tail, 990.0);
  EXPECT_EQ(b.At(90), 900.0);
}

TEST(PercentileRule, MedianOfSmallSamples) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Schedule, PoissonIsAPureFunctionOfTheSeed) {
  auto a = PoissonSchedule(5000, 400.0, 7);
  auto b = PoissonSchedule(5000, 400.0, 7);
  auto c = PoissonSchedule(5000, 400.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 5000u);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
  // 5000 arrivals at 400/s span ~12.5 s; the mean gap is within 5%.
  double mean_gap_us = static_cast<double>(a.back()) / 5000.0;
  EXPECT_NEAR(mean_gap_us, 2500.0, 125.0);
}

TEST(Schedule, ZipfAndPermutationAreSeeded) {
  EXPECT_EQ(ZipfDraws(1000, 32, 1.1, 3), ZipfDraws(1000, 32, 1.1, 3));
  EXPECT_NE(ZipfDraws(1000, 32, 1.1, 3), ZipfDraws(1000, 32, 1.1, 4));
  auto draws = ZipfDraws(20000, 32, 1.1, 5);
  size_t head = 0;
  for (size_t d : draws) {
    ASSERT_LT(d, 32u);
    if (d == 0) ++head;
  }
  EXPECT_GT(head, draws.size() / 6);  // rank 0 carries ~24% of the mass

  auto p = Permutation(100, 9);
  EXPECT_EQ(p, Permutation(100, 9));
  EXPECT_NE(p, Permutation(100, 10));
  std::vector<size_t> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanSelfTime, NestedChildrenAreSubtractedOnce) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70)
  std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 40),
                             MakeSpan(1, 15, 25), MakeSpan(0, 50, 70)};
  auto self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  int64_t total = 0;
  for (int64_t s : self) total += s;
  EXPECT_EQ(total, 100);  // self times of a tree sum to the root
}

TEST(SpanSelfTime, OverlappingChildrenCountTheirUnion) {
  // Two children overlapping on [30,40), one poking past the parent end.
  std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 20, 40),
                             MakeSpan(0, 30, 60), MakeSpan(0, 90, 120)};
  auto self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // union [20,60) + clipped [90,100)
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(SpanSelfTime, RecorderNestsOnItsOwnThreadOnly) {
  SpanRecorder recorder;
  { ScopedSpan ignored(SpanName::kAsk); }  // not attached: not recorded
  EXPECT_TRUE(recorder.spans().empty());
  recorder.Attach();
  recorder.set_request(4);
  {
    ScopedSpan root(SpanName::kAsk);
    { ScopedSpan child(SpanName::kUnderstand); }
    { ScopedSpan child(SpanName::kTopK); }
  }
  recorder.Detach();
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, 0);
  EXPECT_EQ(recorder.spans()[2].request, 4u);
  auto self = SelfTimesNs(recorder.spans());
  const Span& root = recorder.spans()[0];
  EXPECT_EQ(self[0] + self[1] + self[2], root.end_ns - root.start_ns);
}

}  // namespace
}  // namespace qabench
