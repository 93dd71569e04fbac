#include "snipr/stats/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "snipr/sim/rng.hpp"

namespace snipr::stats {
namespace {

TEST(QuantileSketch, EmptySketchReportsZero) {
  const QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
}

TEST(QuantileSketch, RespectsRelativeErrorBound) {
  // Log-normal-ish spread over four decades: every reported quantile
  // must be within the configured relative error of the exact
  // nearest-rank answer.
  constexpr double kEps = 0.01;
  QuantileSketch sketch{kEps};
  std::vector<double> samples;
  sim::Rng rng{11};
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.uniform(std::log(0.01), std::log(100.0)));
    samples.push_back(v);
    sketch.add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double exact = samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
    const double approx = sketch.quantile(q);
    EXPECT_NEAR(approx, exact, exact * kEps * 1.0001) << "q=" << q;
  }
}

TEST(QuantileSketch, NonPositivesLandInTheZeroBucket) {
  QuantileSketch sketch;
  sketch.add(0.0);
  sketch.add(-3.5);
  sketch.add(1.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_EQ(sketch.quantile(0.4), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 1.0, 0.01);
}

TEST(QuantileSketch, SnapshotRoundTripsExactly) {
  QuantileSketch sketch{0.02};
  sim::Rng rng{17};
  for (int i = 0; i < 1000; ++i) sketch.add(rng.uniform(0.0, 50.0));
  const QuantileSketch restored{sketch.snapshot()};
  EXPECT_EQ(restored.count(), sketch.count());
  EXPECT_EQ(restored.relative_error(), sketch.relative_error());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(restored.quantile(q), sketch.quantile(q)) << "q=" << q;
  }
}

}  // namespace
}  // namespace snipr::stats
