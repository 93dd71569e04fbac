#include "snipr/sim/time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "snipr/sim/rng.hpp"

namespace snipr::sim {
namespace {

TEST(Duration, NamedConstructorsAgree) {
  EXPECT_EQ(Duration::seconds(1).count(), 1'000'000);
  EXPECT_EQ(Duration::milliseconds(1).count(), 1'000);
  EXPECT_EQ(Duration::microseconds(7).count(), 7);
  EXPECT_EQ(Duration::minutes(1), Duration::seconds(60));
  EXPECT_EQ(Duration::hours(1), Duration::seconds(3600));
  EXPECT_EQ(Duration::hours(24), Duration::seconds(86400));
}

TEST(Duration, DoubleSecondsRoundsToMicroseconds) {
  EXPECT_EQ(Duration::seconds(0.0000005).count(), 1);   // rounds up
  EXPECT_EQ(Duration::seconds(0.0000004).count(), 0);   // rounds down
  EXPECT_EQ(Duration::seconds(2.5).count(), 2'500'000);
  EXPECT_EQ(Duration::seconds(-1.25).count(), -1'250'000);
}

TEST(Duration, RoundsExactlyLikeLlround) {
  // The scalar product by a double and seconds(double) round half away
  // from zero as std::llround does: random magnitudes across the clock's
  // range and past it, every value k + 0.5 with its neighbours one ulp
  // either side, the exactness edges 2^52, 2^53 and 2^62, and the
  // values std::llround itself handles (±inf, NaN).
  const auto expect_llround = [](double y) {
    ASSERT_EQ((Duration::microseconds(1) * y).count(), std::llround(y)) << y;
    ASSERT_EQ(Duration::seconds(y).count(), std::llround(y * 1e6)) << y;
  };
  Rng rng{2011};
  std::vector<double> values{0.0, -0.0, 0.5, -0.5, 0x1p52, 0x1p53, 0x1p62,
                             0x1p63, -0x1p62, 1e300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min()};
  for (int i = 0; i < 200'000; ++i) {
    const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    values.push_back(sign * std::ldexp(rng.uniform(1.0, 2.0),
                                       static_cast<int>(rng.uniform_int(90)) -
                                           24));
    const double whole = std::floor(std::ldexp(
        rng.uniform(), static_cast<int>(rng.uniform_int(52))));
    values.push_back(sign * (whole + 0.5));
  }
  for (const double base : std::vector<double>(values)) {
    values.push_back(std::nextafter(base, std::numeric_limits<double>::max()));
    values.push_back(
        std::nextafter(base, -std::numeric_limits<double>::max()));
  }
  for (const double y : values) {
    expect_llround(y);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Duration, ToSecondsIsInverseOfSeconds) {
  EXPECT_DOUBLE_EQ(Duration::seconds(86400).to_seconds(), 86400.0);
  EXPECT_DOUBLE_EQ(Duration::microseconds(1).to_seconds(), 1e-6);
}

TEST(Duration, ArithmeticAndComparison) {
  const Duration a = Duration::seconds(3);
  const Duration b = Duration::seconds(2);
  EXPECT_EQ(a + b, Duration::seconds(5));
  EXPECT_EQ(a - b, Duration::seconds(1));
  EXPECT_EQ(-b, Duration::seconds(-2));
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
  EXPECT_TRUE((a - a).is_zero());
  EXPECT_LT(b - a, Duration::zero());
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::seconds(1);
  d += Duration::seconds(2);
  EXPECT_EQ(d, Duration::seconds(3));
  d -= Duration::seconds(5);
  EXPECT_EQ(d, Duration::seconds(-2));
}

TEST(Duration, ScalarMultiplyAndDivide) {
  const Duration d = Duration::seconds(10);
  EXPECT_EQ(d * 3, Duration::seconds(30));
  EXPECT_EQ(d / 4, Duration::seconds(2.5));
  EXPECT_EQ(d * 0.5, Duration::seconds(5));
  EXPECT_EQ(0.1 * d, Duration::seconds(1));
}

TEST(Duration, RatioOperator) {
  EXPECT_DOUBLE_EQ(Duration::seconds(1) / Duration::seconds(4), 0.25);
  EXPECT_DOUBLE_EQ(Duration::hours(24) / Duration::hours(24), 1.0);
}

TEST(Duration, StreamOutput) {
  std::ostringstream os;
  os << Duration::seconds(2.5);
  EXPECT_EQ(os.str(), "2.5s");
}

TEST(TimePoint, OriginAndOffsets) {
  const TimePoint t0 = TimePoint::zero();
  EXPECT_EQ(t0.count(), 0);
  const TimePoint t1 = t0 + Duration::seconds(5);
  EXPECT_EQ(t1 - TimePoint::zero(), Duration::seconds(5));
  EXPECT_EQ(t1 - t0, Duration::seconds(5));
  EXPECT_EQ(t1 - Duration::seconds(5), t0);
}

TEST(TimePoint, AtConstructsFromDuration) {
  const TimePoint t = TimePoint::at(Duration::hours(2));
  EXPECT_EQ(t.to_seconds(), 7200.0);
}

TEST(TimePoint, ComparisonAndCompound) {
  TimePoint t = TimePoint::zero();
  t += Duration::seconds(10);
  EXPECT_GT(t, TimePoint::zero());
  t -= Duration::seconds(10);
  EXPECT_EQ(t, TimePoint::zero());
  EXPECT_LT(TimePoint::zero(), TimePoint::max());
}

TEST(TimePoint, CommutativeAdd) {
  EXPECT_EQ(Duration::seconds(1) + TimePoint::zero(),
            TimePoint::zero() + Duration::seconds(1));
}

TEST(TimePoint, DayScaleArithmeticStaysExact) {
  // Two weeks of microsecond ticks: integer arithmetic must be exact.
  TimePoint t = TimePoint::zero();
  for (int day = 0; day < 14; ++day) t += Duration::hours(24);
  EXPECT_EQ(t.count(), 14LL * 86400 * 1'000'000);
}

}  // namespace
}  // namespace snipr::sim
