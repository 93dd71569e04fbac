#include "snipr/stats/online_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace snipr::stats {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  const OnlineStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);          // population
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SnapshotRestoreRoundTripsExactly) {
  OnlineStats s;
  for (const double x : {2.5, -1.25, 7.75, 0.5}) s.add(x);
  OnlineStats restored;
  restored.restore(s.snapshot());
  EXPECT_EQ(restored.count(), s.count());
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
  EXPECT_EQ(restored.min(), s.min());
  EXPECT_EQ(restored.max(), s.max());
  // Continuing after restore is bit-identical to never snapshotting.
  s.add(11.0);
  restored.add(11.0);
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.variance(), s.variance());
}

TEST(OnlineStats, NumericallyStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: huge mean, tiny variance.
  OnlineStats s;
  const double base = 1e9;
  for (const double x : {base + 1.0, base + 2.0, base + 3.0}) s.add(x);
  EXPECT_NEAR(s.mean(), base + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-6);
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, MinMaxTrackNegatives) {
  OnlineStats s;
  s.add(-5.0);
  s.add(3.0);
  s.add(-10.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

}  // namespace
}  // namespace snipr::stats
