#include "snipr/energy/energy_model.hpp"

#include <gtest/gtest.h>

namespace snipr::energy {
namespace {

using sim::Duration;

TEST(EnergyModel, TelosbDefaults) {
  const EnergyModel m{};
  EXPECT_DOUBLE_EQ(m.voltage_v, 3.0);
  // Listening draws ~18.8 mA at 3 V.
  EXPECT_NEAR(m.power_w(RadioState::kListen), 0.0564, 1e-6);
  EXPECT_LT(m.power_w(RadioState::kTx), m.power_w(RadioState::kListen));
  EXPECT_LT(m.power_w(RadioState::kOff), 1e-4);
}

TEST(EnergyModel, EnergyScalesWithTime) {
  const EnergyModel m;
  const double one = m.energy_j(RadioState::kTx, Duration::seconds(1));
  const double ten = m.energy_j(RadioState::kTx, Duration::seconds(10));
  EXPECT_NEAR(ten, 10.0 * one, 1e-12);
}

TEST(EnergyMeter, EnergyMatchesHandComputation) {
  const EnergyModel model;
  EnergyMeter m;
  EXPECT_EQ(m.energy_j(), 0.0);
  m.accumulate(RadioState::kTx, Duration::seconds(2));
  m.accumulate(RadioState::kListen, Duration::seconds(1));
  m.accumulate(RadioState::kTx, Duration::seconds(1));
  const double expected = model.power_w(RadioState::kTx) * 3.0 +
                          model.power_w(RadioState::kListen) * 1.0;
  EXPECT_NEAR(m.energy_j(), expected, 1e-12);
}

}  // namespace
}  // namespace snipr::energy
