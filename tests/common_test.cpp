// Unit tests for the common substrate: ids, time helpers, intervals, RNG,
// statistics and the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/crc32c.h"
#include "common/ids.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time_types.h"

namespace driftsync {
namespace {

// ---------------------------------------------------------------- crc32c

// The standard check value, and extension: a CRC computed in pieces, at
// every split point, equals the CRC of the whole.
TEST(Crc32cTest, CheckValueAndExtension) {
  const std::string text = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  EXPECT_EQ(crc32c(0, bytes), 0xE3069283U);
  EXPECT_EQ(crc32c_by_table(0, bytes), 0xE3069283U);
  EXPECT_EQ(crc32c(0, {}), 0U);
  EXPECT_EQ(crc32c_by_table(0, {}), 0U);
  std::vector<std::uint8_t> long_input(100);
  for (std::size_t i = 0; i < long_input.size(); ++i) {
    long_input[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t whole = crc32c(0, long_input);
  for (std::size_t cut = 0; cut <= long_input.size(); ++cut) {
    const std::span<const std::uint8_t> all(long_input);
    EXPECT_EQ(crc32c(crc32c(0, all.first(cut)), all.subspan(cut)), whole);
  }
}

// crc32c() takes SSE4.2's instruction where the CPU has it, and the table
// elsewhere: the table, called directly, must agree with it on every
// length, alignment and starting value, so a machine without the
// instruction computes the same log.
TEST(Crc32cTest, TableAgreesWithDispatch) {
  Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(600);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  for (std::size_t n = 0; n <= 64; ++n) {
    for (std::size_t at = 0; at < 8; ++at) {
      const auto start = static_cast<std::uint32_t>(rng.next_u64());
      const std::span<const std::uint8_t> bytes(buf.data() + at, n);
      EXPECT_EQ(crc32c(start, bytes), crc32c_by_table(start, bytes))
          << "length " << n << ", offset " << at;
    }
  }
  const std::span<const std::uint8_t> all(buf);
  EXPECT_EQ(crc32c(7, all), crc32c_by_table(7, all));
}

// ------------------------------------------------------------------- ids

TEST(EventIdTest, PackUnpackRoundTrip) {
  const EventId id{42, 17};
  EXPECT_EQ(EventId::unpack(id.pack()), id);
}

TEST(EventIdTest, PackUnpackExtremes) {
  const EventId id{0xfffffffe, 0xffffffff};
  EXPECT_EQ(EventId::unpack(id.pack()), id);
}

TEST(EventIdTest, OrderingByProcThenSeq) {
  EXPECT_LT((EventId{1, 9}), (EventId{2, 0}));
  EXPECT_LT((EventId{1, 3}), (EventId{1, 4}));
}

TEST(EventIdTest, InvalidIsNotValid) {
  EXPECT_FALSE(kInvalidEvent.valid());
  EXPECT_TRUE((EventId{0, 0}).valid());
}

TEST(EventIdTest, HashSpreads) {
  std::unordered_set<std::size_t> hashes;
  std::hash<EventId> h;
  for (ProcId p = 0; p < 32; ++p) {
    for (std::uint32_t s = 0; s < 32; ++s) hashes.insert(h(EventId{p, s}));
  }
  EXPECT_EQ(hashes.size(), 32u * 32u);  // no collisions on this tiny set
}

// ------------------------------------------------------------ time_types

TEST(TimeCloseTest, ExactAndRelative) {
  EXPECT_TRUE(time_close(1.0, 1.0));
  EXPECT_TRUE(time_close(1e12, 1e12 * (1 + 1e-12)));
  EXPECT_FALSE(time_close(1.0, 1.001));
}

TEST(TimeCloseTest, Infinities) {
  EXPECT_TRUE(time_close(kNoBound, kNoBound));
  EXPECT_TRUE(time_close(kNegInf, kNegInf));
  EXPECT_FALSE(time_close(kNoBound, kNegInf));
  EXPECT_FALSE(time_close(kNoBound, 1e300));
}

// --------------------------------------------------------------- interval

TEST(IntervalTest, EverythingContainsAll) {
  const Interval all = Interval::everything();
  EXPECT_TRUE(all.contains(0.0));
  EXPECT_TRUE(all.contains(-1e308));
  EXPECT_FALSE(all.bounded());
  EXPECT_FALSE(all.empty());
}

TEST(IntervalTest, PointInterval) {
  const Interval p = Interval::point(3.5);
  EXPECT_TRUE(p.contains(3.5));
  EXPECT_FALSE(p.contains(3.5000001));
  EXPECT_DOUBLE_EQ(p.width(), 0.0);
}

TEST(IntervalTest, EmptyDetection) {
  EXPECT_TRUE((Interval{2.0, 1.0}).empty());
  EXPECT_FALSE((Interval{1.0, 1.0}).empty());
}

TEST(IntervalTest, IntersectOverlap) {
  const Interval a{0.0, 5.0};
  const Interval b{3.0, 9.0};
  EXPECT_EQ(a.intersect(b), (Interval{3.0, 5.0}));
}

TEST(IntervalTest, IntersectDisjointIsEmpty) {
  EXPECT_TRUE((Interval{0.0, 1.0}).intersect(Interval{2.0, 3.0}).empty());
}

TEST(IntervalTest, MinkowskiSumAndShift) {
  const Interval a{1.0, 2.0};
  const Interval b{10.0, 20.0};
  EXPECT_EQ(a + b, (Interval{11.0, 22.0}));
  EXPECT_EQ(a + 5.0, (Interval{6.0, 7.0}));
}

TEST(IntervalTest, ContainsInterval) {
  EXPECT_TRUE((Interval{0.0, 10.0}).contains(Interval{2.0, 3.0}));
  EXPECT_FALSE((Interval{0.0, 10.0}).contains(Interval{2.0, 11.0}));
}

TEST(IntervalTest, WidthOfUnbounded) {
  EXPECT_TRUE(std::isinf(Interval::everything().width()));
}

TEST(IntervalTest, IntervalsClose) {
  EXPECT_TRUE(intervals_close(Interval{1.0, 2.0},
                              Interval{1.0 + 1e-12, 2.0 - 1e-12}));
  EXPECT_FALSE(intervals_close(Interval{1.0, 2.0}, Interval{1.0, 2.1}));
  EXPECT_TRUE(intervals_close(Interval::everything(),
                              Interval::everything()));
}

// -------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIndexInRange) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++counts[k];
  }
  for (const int c : counts) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, FlipProbability) {
  Rng rng(13);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.flip(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, SplitIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  Rng parent2(5);
  parent2.split();
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());  // parent deterministic
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ------------------------------------------------------------------ stats

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
}

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats s;
  for (const double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStatsTest, Variance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(PercentileTest, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.35), 3.5);
}

TEST(PercentileTest, ClampsOutOfRangeQ) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 3.0);
}

TEST(PercentileTest, EmptyInputIsACallerBug) {
  EXPECT_THROW(percentile({}, 0.5), std::logic_error);
  EXPECT_THROW(percentile({1.0}, std::nan("")), std::logic_error);
}

/// Independent reference: sort, split the fractional position q*(n-1) into
/// integer part and remainder with floor, and blend the two neighbors.
double percentile_reference(std::vector<double> v, double q) {
  q = std::max(0.0, std::min(1.0, q));
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - std::floor(pos);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

/// Property test: random samples and quantiles agree with the reference,
/// the result is monotone in q, and always lies within [min, max].
TEST(PercentileTest, MatchesReferenceOnRandomInputs) {
  Rng rng(2026);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(40);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1e6, 1e6);
    double prev = -std::numeric_limits<double>::infinity();
    for (const double q :
         {-0.2, 0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.7}) {
      const double got = percentile(v, q);
      EXPECT_NEAR(got, percentile_reference(v, q), 1e-6)
          << "n=" << n << " q=" << q;
      EXPECT_GE(got + 1e-9, prev) << "not monotone in q at q=" << q;
      prev = got;
      EXPECT_GE(got, *std::min_element(v.begin(), v.end()));
      EXPECT_LE(got, *std::max_element(v.begin(), v.end()));
    }
  }
}

TEST(LinearFitTest, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LinearFitTest, RejectsDegenerate) {
  EXPECT_THROW(linear_fit({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(linear_fit({1.0, 1.0}, {2.0, 3.0}), std::invalid_argument);
}

TEST(LogLogFitTest, RecoverExponent) {
  std::vector<double> x, y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // y = 3 x^2
  }
  const LinearFit f = loglog_fit(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
}

TEST(LogLogFitTest, RejectsNonPositive) {
  EXPECT_THROW(loglog_fit({1.0, -2.0}, {1.0, 2.0}), std::invalid_argument);
}

// ------------------------------------------------------------------ table

TEST(TableTest, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(1.5, 2), "1.50");
  EXPECT_EQ(Table::num(std::size_t{42}), "42");
  EXPECT_EQ(Table::num(kNoBound), "inf");
}


TEST(TableTest, CsvOutput) {
  Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(),
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",\"he said \"\"hi\"\"\"\n");
}

}  // namespace
}  // namespace driftsync
