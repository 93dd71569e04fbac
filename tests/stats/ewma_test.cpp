#include "snipr/stats/ewma.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace snipr::stats {
namespace {

/// The estimate; NaN (equal to nothing) before any data.
double value(const Ewma& e) { return e.value_or(std::nan("")); }

TEST(Ewma, RejectsBadWeights) {
  EXPECT_THROW(Ewma{0.0}, std::invalid_argument);
  EXPECT_THROW(Ewma{-0.1}, std::invalid_argument);
  EXPECT_THROW(Ewma{1.1}, std::invalid_argument);
  EXPECT_NO_THROW(Ewma{1.0});
}

TEST(Ewma, FirstSampleInitialisesMean) {
  Ewma e{0.1};
  EXPECT_FALSE(e.has_value());
  e.add(7.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(value(e), 7.0);
}

TEST(Ewma, FallbackWithoutData) {
  const Ewma e{0.1};
  EXPECT_DOUBLE_EQ(e.value_or(3.0), 3.0);
}

TEST(Ewma, PriorSeedsEstimate) {
  Ewma e{0.5, 10.0};
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(value(e), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(value(e), 15.0);  // 10 + 0.5*(20-10)
}

TEST(Ewma, UpdateFormula) {
  Ewma e{0.1};
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(value(e), 1.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(value(e), 1.9);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e{0.1, 100.0};
  for (int i = 0; i < 500; ++i) e.add(2.0);
  EXPECT_NEAR(value(e), 2.0, 1e-9);
}

TEST(Ewma, SmallWeightFiltersNoise) {
  // Alternating noise around 5: the estimate must stay near 5 much more
  // tightly than the raw samples swing.
  Ewma e{0.05, 5.0};
  for (int i = 0; i < 1000; ++i) e.add(i % 2 == 0 ? 4.0 : 6.0);
  EXPECT_NEAR(value(e), 5.0, 0.1);
}

TEST(Ewma, WeightOneTracksLastSample) {
  Ewma e{1.0};
  e.add(1.0);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(value(e), 42.0);
}

TEST(Ewma, CountsSamples) {
  Ewma e{0.2};
  EXPECT_EQ(e.count(), 0U);
  e.add(1.0);
  e.add(2.0);
  EXPECT_EQ(e.count(), 2U);
}

}  // namespace
}  // namespace snipr::stats
