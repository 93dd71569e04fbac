#include "snipr/stats/histogram.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace snipr::stats {
namespace {

/// Row `bin` of h.render(width) -- "[lo, hi) <bar> <mass>" -- the form
/// in which the shipped programs show a bin's mass.
std::string row(const Histogram& h, std::size_t bin, std::size_t width = 2) {
  std::istringstream rows{h.render(width)};
  std::string line;
  for (std::size_t i = 0; i <= bin; ++i) std::getline(rows, line);
  return line;
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW((Histogram{1.0, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW((Histogram{2.0, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW((Histogram{0.0, 1.0, 0}), std::invalid_argument);
}

TEST(Histogram, BinEdges) {
  const Histogram h{0.0, 24.0, 24};
  EXPECT_EQ(h.bin_count(), 24U);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(23), 23.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(23), 24.0);
  EXPECT_THROW((void)h.bin_lo(24), std::out_of_range);
}

TEST(Histogram, SamplesLandInCorrectBins) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.0);    // bin 0 (inclusive low edge)
  h.add(0.999);  // bin 0
  h.add(5.0);    // bin 5
  h.add(9.999);  // bin 9
  EXPECT_EQ(row(h, 0), "[0, 1) ## 2");
  EXPECT_EQ(row(h, 5), "[5, 6) # 1");
  EXPECT_EQ(row(h, 9), "[9, 10) # 1");
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, UnderflowAndOverflow) {
  Histogram h{0.0, 1.0, 2};
  h.add(-0.5);
  h.add(1.0);  // hi edge is exclusive -> overflow
  h.add(2.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5, 3.0);
  h.add(1.5, 1.0);
  EXPECT_EQ(row(h, 0, 3), "[0, 1) ### 3");
  EXPECT_EQ(row(h, 1, 3), "[1, 2) # 1");
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, SampleExactlyAtHiIsOverflowNotLastBin) {
  Histogram h{0.0, 10.0, 10};
  h.add(10.0);  // == hi: [lo, hi) excludes it
  EXPECT_EQ(row(h, 9), "[9, 10)  0");
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  h.add(9.9999999);  // just inside stays in the last bin
  EXPECT_EQ(row(h, 9), "[9, 10) ## 1");
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
}

TEST(Histogram, SampleOneUlpBelowHiIsTheLastBin) {
  // The tightest [lo, hi) boundary pair: hi itself overflows, the
  // largest representable double below hi lands in the last bin — even
  // when (sample - lo) / bin_width rounds up to the bin count (the
  // index clamp exists for exactly this).
  Histogram h{0.0, 10.0, 10};
  h.add(std::nextafter(10.0, 0.0));
  EXPECT_EQ(row(h, 9), "[9, 10) ## 1");
  EXPECT_DOUBLE_EQ(h.overflow(), 0.0);

  // Same pair on an offset range with a width that is not a power of
  // two, where the quotient actually rounds.
  Histogram odd{1.0, 2.0, 7};
  odd.add(std::nextafter(2.0, 1.0));
  odd.add(2.0);
  EXPECT_EQ(row(odd, 6), "[1.85714, 2) ## 1");
  EXPECT_DOUBLE_EQ(odd.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(odd.underflow(), 0.0);

  // lo itself is inclusive — the mirror boundary.
  Histogram lo_edge{1.0, 2.0, 7};
  lo_edge.add(1.0);
  EXPECT_EQ(row(lo_edge, 0), "[1, 1.14286) ## 1");
  EXPECT_DOUBLE_EQ(lo_edge.underflow(), 0.0);
}

TEST(Histogram, ZeroWeightAddsChangeNothing) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5, 0.0);
  h.add(-1.0, 0.0);
  h.add(5.0, 0.0);
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  EXPECT_EQ(row(h, 0), "[0, 1)  0");
  EXPECT_DOUBLE_EQ(h.underflow(), 0.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 0.0);
}

TEST(Histogram, RenderContainsOneRowPerBin) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("[0, 1)"), std::string::npos);
  EXPECT_NE(out.find("[1, 2)"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

}  // namespace
}  // namespace snipr::stats
