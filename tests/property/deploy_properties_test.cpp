#include <gtest/gtest.h>

#include <algorithm>

#include "snipr/deploy/road_contacts.hpp"

/// Geometry invariants of the road-contact builder over randomised
/// vehicle flows and node placements.

namespace snipr::deploy {
namespace {

using sim::Duration;

struct FlowCase {
  const char* name;
  double mean_speed;
  double speed_sigma;
  std::uint64_t seed;
};

void PrintTo(const FlowCase& c, std::ostream* os) { *os << c.name; }

class RoadGeometry : public ::testing::TestWithParam<FlowCase> {
 protected:
  std::vector<VehicleEntry> make_vehicles() const {
    const FlowCase& c = GetParam();
    VehicleFlow flow;
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        c.mean_speed, c.speed_sigma, 0.5);
    sim::Rng rng{c.seed};
    return materialize_vehicles(flow, Duration::hours(24) * 3, rng);
  }
};

TEST_P(RoadGeometry, SchedulesAreAlwaysValidAndOrdered) {
  const auto vehicles = make_vehicles();
  const std::vector<double> positions{0.0, 50.0, 777.0, 3000.0, 9999.0};
  // ContactSchedule construction itself enforces sortedness/no-overlap.
  const auto schedules = build_road_schedules(positions, 10.0, vehicles);
  EXPECT_EQ(schedules.size(), positions.size());
  for (const auto& s : schedules) {
    EXPECT_FALSE(s.empty());
  }
}

TEST_P(RoadGeometry, CapacityConservedAcrossNodes) {
  // Without merging losses, every node sees each vehicle for 2R/v; total
  // capacity per node differs only by merge-overlaps (which reduce it).
  const auto vehicles = make_vehicles();
  double ideal = 0.0;
  for (const VehicleEntry& v : vehicles) ideal += 20.0 / v.speed_mps;

  const auto schedules =
      build_road_schedules({500.0, 8000.0}, 10.0, vehicles);
  for (const auto& s : schedules) {
    double cap = 0.0;
    for (const contact::Contact& c : s.contacts()) cap += c.length.to_seconds();
    EXPECT_LE(cap, ideal + 1e-6);
    EXPECT_GT(cap, ideal * 0.8);  // merging loses little at sparse flows
  }
}

TEST_P(RoadGeometry, DownstreamArrivalsMatchTravelTime) {
  // With per-vehicle constant speed, the node at x sees a vehicle entering
  // at t from t + (x − R)/v. Fast vehicles may overtake slow ones between
  // nodes, so compare arrival *sets* (sorted), not per-index offsets.
  const auto vehicles = make_vehicles();
  const double x = 2500.0;
  const auto schedules = build_road_schedules({x}, 10.0, vehicles);
  if (schedules[0].size() != vehicles.size()) {
    GTEST_SKIP() << "merged passes: arrival check needs 1:1 contacts";
  }
  std::vector<double> expected;
  expected.reserve(vehicles.size());
  for (const VehicleEntry& v : vehicles) {
    expected.push_back(v.entry.to_seconds() + (x - 10.0) / v.speed_mps);
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    EXPECT_NEAR(schedules[0].contacts()[i].arrival.to_seconds(),
                expected[i], 1e-5)
        << "contact " << i;
  }
}

TEST_P(RoadGeometry, ContactLengthsBoundedByGeometry) {
  const auto vehicles = make_vehicles();
  double min_speed = 1e9;
  for (const VehicleEntry& v : vehicles) {
    min_speed = std::min(min_speed, v.speed_mps);
  }
  const auto schedules = build_road_schedules({4000.0}, 10.0, vehicles);
  for (const contact::Contact& c : schedules[0].contacts()) {
    // A single pass lasts at most 2R/min_speed; merged passes can chain,
    // but never beyond the number of vehicles involved.
    EXPECT_LE(c.length.to_seconds(),
              20.0 / min_speed * static_cast<double>(vehicles.size()));
    EXPECT_GT(c.length, Duration::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flows, RoadGeometry,
    ::testing::Values(FlowCase{"urban", 10.0, 1.5, 1},
                      FlowCase{"highway", 30.0, 4.0, 2},
                      FlowCase{"pedestrian", 1.5, 0.3, 3},
                      FlowCase{"mixed_fast", 20.0, 8.0, 4}),
    [](const ::testing::TestParamInfo<FlowCase>& param_info) {
      return std::string{param_info.param.name};
    });

}  // namespace
}  // namespace snipr::deploy
