#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <set>

#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

namespace kmsg {
namespace {

// --- Fifo ---

TEST(FifoTest, MatchesADequeThroughWrapsAndGrowth) {
  // Property: seeded runs of pushes and pops read the same as std::deque,
  // through every index, as the ring wraps and doubles.
  Fifo<std::uint64_t> q;
  std::deque<std::uint64_t> ref;
  Rng rng(11);
  std::size_t most = 0;
  for (int step = 0; step < 20'000; ++step) {
    if (ref.empty() || rng.next_bool(0.55)) {
      const std::uint64_t v = rng.next();
      q.push_back(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(q.front(), ref.front());
      q.pop_front();
      ref.pop_front();
    }
    most = std::max(most, ref.size());
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q[q.size() - 1], ref.back());
      const std::size_t i = rng.next_below(ref.size());
      ASSERT_EQ(q[i], ref[i]) << "step " << step;
    }
  }
  const Fifo<std::uint64_t>& cq = q;
  ASSERT_TRUE(std::equal(cq.begin(), cq.end(), ref.begin(), ref.end()));
  // The capacity is the smallest power of two (at least 16) that held the
  // deepest queue, and draining keeps it.
  EXPECT_EQ(q.capacity(), std::max<std::size_t>(16, std::bit_ceil(most)));
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
}

TEST(FifoTest, SortedQueueSearchesWithUpperBound) {
  Fifo<int> q;
  for (int i = 0; i < 40; ++i) q.push_back(2 * i);
  for (int i = 0; i < 25; ++i) q.pop_front();  // the front wraps past 0
  for (int i = 40; i < 50; ++i) q.push_back(2 * i);
  const Fifo<int>& cq = q;
  for (int v = 49; v < 100; ++v) {
    const auto it = std::upper_bound(cq.begin(), cq.end(), v);
    ASSERT_EQ(it - cq.begin(), std::max(0, v / 2 - 24)) << v;
    if (it != cq.end()) {
      ASSERT_GT(*it, v);
    }
  }
}

TEST(FifoTest, DestroysWhatItPopsAndHolds) {
  const auto token = std::make_shared<int>(7);
  {
    Fifo<std::shared_ptr<int>> q;
    for (int i = 0; i < 20; ++i) q.push_back(token);
    EXPECT_EQ(token.use_count(), 21);
    q.pop_front();
    EXPECT_EQ(token.use_count(), 20);
    // A push that grows the ring may copy one of its own elements.
    while (q.size() < q.capacity()) q.push_back(q.front());
    q.push_back(q.front());
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(q.size()));
    EXPECT_EQ(q[q.size() - 1], token);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- Duration / TimePoint ---

TEST(DurationTest, ConstructorsAndAccessors) {
  EXPECT_EQ(Duration::nanos(1500).as_nanos(), 1500);
  EXPECT_EQ(Duration::micros(2).as_nanos(), 2000);
  EXPECT_EQ(Duration::millis(3).as_nanos(), 3'000'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(1.5).as_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::millis(250).as_millis(), 250.0);
}

TEST(DurationTest, Arithmetic) {
  const auto a = Duration::millis(10);
  const auto b = Duration::millis(4);
  EXPECT_EQ((a + b).as_nanos(), Duration::millis(14).as_nanos());
  EXPECT_EQ((a - b).as_nanos(), Duration::millis(6).as_nanos());
  EXPECT_EQ((a * 3).as_nanos(), Duration::millis(30).as_nanos());
  EXPECT_EQ((a / 2).as_nanos(), Duration::millis(5).as_nanos());
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ(a.scaled(0.5).as_nanos(), Duration::millis(5).as_nanos());
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_EQ(Duration::zero(), Duration::nanos(0));
  EXPECT_GT(Duration::max(), Duration::seconds(1e9));
}

TEST(TimePointTest, Arithmetic) {
  const auto t = TimePoint::from_nanos(1000);
  EXPECT_EQ((t + Duration::nanos(500)).as_nanos(), 1500);
  EXPECT_EQ((t - Duration::nanos(500)).as_nanos(), 500);
  EXPECT_EQ((t + Duration::nanos(500)) - t, Duration::nanos(500));
  EXPECT_LT(t, t + Duration::nanos(1));
}

TEST(TimePointTest, ToString) {
  EXPECT_EQ(to_string(Duration::nanos(12)), "12ns");
  EXPECT_EQ(to_string(Duration::micros(12)), "12.0us");
  EXPECT_EQ(to_string(Duration::millis(12)), "12.00ms");
  EXPECT_EQ(to_string(Duration::seconds(1.25)), "1.250s");
}

TEST(SteadyClockTest, Monotonic) {
  SteadyClock clock;
  const auto a = clock.now();
  const auto b = clock.now();
  EXPECT_LE(a, b);
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NextInInclusiveRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream should not reproduce the parent's continuation.
  Rng b(5);
  b.next();  // advance to match a's state post-split
  EXPECT_NE(child.next(), b.next());
}

TEST(RngTest, GaussianMoments) {
  Rng r(17);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

// --- RunningStats ---

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-6);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStatsTest, RseDropsWithSamples) {
  RunningStats s;
  Rng r(3);
  for (int i = 0; i < 4; ++i) s.add(100.0 + r.next_gaussian());
  const double rse4 = s.rse();
  for (int i = 0; i < 96; ++i) s.add(100.0 + r.next_gaussian());
  EXPECT_LT(s.rse(), rse4);
  EXPECT_LT(s.rse(), 0.01);
}

TEST(RunningStatsTest, Ci95MatchesTTable) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  // stddev = sqrt(2.5), stderr = sqrt(0.5), t(4) = 2.776.
  EXPECT_NEAR(s.ci95_halfwidth(), 2.776 * std::sqrt(0.5), 1e-9);
}

TEST(RunningStatsTest, Clear) {
  RunningStats s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

// --- SampleSet ---

TEST(SampleSetTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(75), 75.25, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(SampleSetTest, MeanAndStddev) {
  SampleSet s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(4.571428571), 1e-6);
}

TEST(SampleSetTest, EmptySafe) {
  SampleSet s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

// --- Histogram ---

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // clamped to bin 0
  h.add(15.0);  // clamped to bin 9
  h.add(5.0);   // bin 5
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
  EXPECT_NEAR(h.bin_center(9), 9.5, 1e-12);
}

TEST(HistogramTest, InvalidArgsThrow) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(TQuantileTest, KnownValues) {
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_quantile_975(9), 2.262, 1e-3);
  EXPECT_NEAR(t_quantile_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_quantile_975(1000), 1.960, 1e-3);
}

}  // namespace
}  // namespace kmsg
