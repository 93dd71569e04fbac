#include "snipr/trace/demand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

namespace snipr::trace {
namespace {

TEST(CommuterDemand, HasTwentyFourHours) {
  EXPECT_EQ(commuter_demand().size(), 24U);
}

TEST(CommuterDemand, PeaksAtRequestedHours) {
  const HourlyWeights w = commuter_demand(7, 17, 8.0);
  for (std::size_t h = 0; h < 24; ++h) {
    EXPECT_LE(w[h], w[7] + 1e-9) << "hour " << h;
  }
  // Evening peak is a local maximum too.
  EXPECT_GT(w[17], w[14]);
  EXPECT_GT(w[17], w[21]);
}

TEST(CommuterDemand, OvernightIsBase) {
  const HourlyWeights w = commuter_demand(7, 17, 8.0);
  EXPECT_LT(w[2], w[12]);          // night below midday shoulder
  EXPECT_GT(w[7] / w[2], 4.0);     // pronounced peak-to-base ratio
}

TEST(CommuterDemand, Validation) {
  EXPECT_THROW(commuter_demand(24, 17), std::invalid_argument);
  EXPECT_THROW(commuter_demand(7, 25), std::invalid_argument);
  EXPECT_THROW(commuter_demand(7, 17, 1.0), std::invalid_argument);
}

TEST(DemandToProfile, ApportionsContactsByWeight) {
  const HourlyWeights w = commuter_demand(7, 17, 8.0);
  const auto profile = demand_to_profile(w, 880.0);
  // Total expected contacts per epoch must equal the requested count.
  EXPECT_NEAR(profile.expected_contacts_per_epoch(), 880.0, 1e-6);
  // The peak hour gets more contacts than the night.
  EXPECT_GT(profile.expected_contacts(7), profile.expected_contacts(2));
}

TEST(DemandToProfile, ZeroWeightBecomesDeadSlot) {
  HourlyWeights w(24, 1.0);
  w[3] = 0.0;
  const auto profile = demand_to_profile(w, 230.0);
  EXPECT_DOUBLE_EQ(profile.arrival_rate(3), 0.0);
  EXPECT_NEAR(profile.expected_contacts_per_epoch(), 230.0, 1e-6);
}

TEST(DemandToProfile, Validation) {
  EXPECT_THROW(demand_to_profile(HourlyWeights(23, 1.0), 100.0),
               std::invalid_argument);
  EXPECT_THROW(demand_to_profile(HourlyWeights(24, 1.0), 0.0),
               std::invalid_argument);
  EXPECT_THROW(demand_to_profile(HourlyWeights(24, 0.0), 100.0),
               std::invalid_argument);
}

TEST(DemandHistogram, ModeAtPeak) {
  const HourlyWeights w = commuter_demand(8, 18, 6.0);
  // Each weight is its hour's bin mass (WeightsAreBinMasses), so the
  // histogram's mode is the heaviest hour.
  EXPECT_EQ(demand_histogram(w).bin_count(), 24U);
  EXPECT_EQ(std::max_element(w.begin(), w.end()) - w.begin(), 8);
}

TEST(DemandHistogram, WeightsAreBinMasses) {
  HourlyWeights w(24, 0.0);
  w[5] = 2.0;
  w[6] = 1.0;
  const auto h = demand_histogram(w);
  const std::string rows = h.render(2);
  EXPECT_NE(rows.find("\n[5, 6) ## 2\n"), std::string::npos);
  EXPECT_NE(rows.find("\n[6, 7) # 1\n"), std::string::npos);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(DemandHistogram, Validation) {
  EXPECT_THROW(demand_histogram(HourlyWeights(12, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::trace
