#include "snipr/deploy/road_contacts.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace snipr::deploy {
namespace {

using contact::Contact;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

TEST(MaterializeVehicles, FollowsProfileCounts) {
  VehicleFlow flow;
  flow.jitter = contact::IntervalJitter::kNone;
  sim::Rng rng{1};
  const auto vehicles =
      materialize_vehicles(flow, Duration::hours(24) * 2, rng);
  // Road-side profile: 87 entries on day 1 (start-up transient), 88 after.
  EXPECT_EQ(vehicles.size(), 87U + 88U);
  for (const VehicleEntry& v : vehicles) {
    EXPECT_DOUBLE_EQ(v.speed_mps, 10.0);  // fixed default speed
  }
}

TEST(MaterializeVehicles, RequiresSpeedDistribution) {
  VehicleFlow flow;
  flow.speed_mps = nullptr;
  sim::Rng rng{1};
  EXPECT_THROW((void)materialize_vehicles(flow, Duration::hours(1), rng),
               std::invalid_argument);
}

TEST(BuildRoadSchedules, GeometryOfASinglePass) {
  // Node at x = 1000 m, R = 10 m, one vehicle entering at t = 0 at 10 m/s:
  // in range over [99, 101) seconds — the paper's 2 s contact.
  const std::vector<VehicleEntry> vehicles{{at_s(0), 10.0}};
  const auto schedules = build_road_schedules({1000.0}, 10.0, vehicles);
  ASSERT_EQ(schedules.size(), 1U);
  ASSERT_EQ(schedules[0].size(), 1U);
  const Contact c = schedules[0].contacts().front();
  EXPECT_EQ(c.arrival, at_s(99.0));
  EXPECT_EQ(c.length, Duration::seconds(2.0));
}

TEST(BuildRoadSchedules, DownstreamNodesSeeLaterShorterOrEqualContacts) {
  const std::vector<VehicleEntry> vehicles{{at_s(0), 20.0}};
  const auto schedules =
      build_road_schedules({100.0, 500.0, 2000.0}, 10.0, vehicles);
  ASSERT_EQ(schedules.size(), 3U);
  TimePoint prev = TimePoint::zero();
  for (const auto& s : schedules) {
    ASSERT_EQ(s.size(), 1U);
    const Contact c = s.contacts().front();
    EXPECT_GT(c.arrival, prev);  // same vehicle reaches them in order
    EXPECT_EQ(c.length, Duration::seconds(1.0));  // 2R/v = 20/20
    prev = c.arrival;
  }
}

TEST(BuildRoadSchedules, NodeInsideInitialRangeClampsToEntry) {
  // Node at x = 5 < R = 10: the vehicle is in range from the entry itself.
  const std::vector<VehicleEntry> vehicles{{at_s(100), 10.0}};
  const auto schedules = build_road_schedules({5.0}, 10.0, vehicles);
  const Contact c = schedules[0].contacts().front();
  EXPECT_EQ(c.arrival, at_s(100));
  EXPECT_EQ(c.departure(), at_s(101.5));  // (5+10)/10 s after entry
}

TEST(BuildRoadSchedules, TailgatingVehiclesMergeIntoOneContact) {
  // Two vehicles 1 s apart; each pass lasts 2 s at the node -> overlap.
  const std::vector<VehicleEntry> vehicles{{at_s(0), 10.0},
                                           {at_s(1), 10.0}};
  const auto schedules = build_road_schedules({1000.0}, 10.0, vehicles);
  ASSERT_EQ(schedules[0].size(), 1U);
  const Contact c = schedules[0].contacts().front();
  EXPECT_EQ(c.arrival, at_s(99.0));
  EXPECT_EQ(c.departure(), at_s(102.0));  // union of [99,101) and [100,102)
}

TEST(BuildRoadSchedules, SlowerVehiclesYieldLongerContacts) {
  const std::vector<VehicleEntry> vehicles{{at_s(0), 5.0}, {at_s(500), 20.0}};
  const auto schedules = build_road_schedules({1000.0}, 10.0, vehicles);
  ASSERT_EQ(schedules[0].size(), 2U);
  EXPECT_EQ(schedules[0].contacts()[0].length, Duration::seconds(4.0));
  EXPECT_EQ(schedules[0].contacts()[1].length, Duration::seconds(1.0));
}

TEST(BuildRoadSchedules, RushHourStructureSurvivesPropagation) {
  // Full flow over two days: each node's per-slot counts still show the
  // 6x rush/off ratio (travel offset is seconds, slots are hours).
  VehicleFlow flow;
  flow.jitter = contact::IntervalJitter::kNormalTenth;
  sim::Rng rng{3};
  const auto vehicles =
      materialize_vehicles(flow, Duration::hours(24) * 4, rng);
  const auto schedules =
      build_road_schedules({100.0, 5000.0}, 10.0, vehicles);
  for (const auto& s : schedules) {
    const contact::ArrivalProfile layout = contact::ArrivalProfile::roadside();
    std::vector<std::size_t> counts(layout.slot_count(), 0);
    for (const contact::Contact& c : s.contacts()) {
      ++counts[layout.slot_of(c.arrival)];
    }
    const double rush =
        static_cast<double>(counts[7] + counts[8] + counts[17] + counts[18]);
    const double off = static_cast<double>(counts[0] + counts[1] +
                                           counts[2] + counts[3]);
    EXPECT_GT(rush, off * 3.0);
  }
}

TEST(BuildRoadSchedules, Validation) {
  const std::vector<VehicleEntry> ok{{at_s(0), 10.0}};
  EXPECT_THROW((void)build_road_schedules({}, 10.0, ok),
               std::invalid_argument);
  EXPECT_THROW((void)build_road_schedules({100.0}, 0.0, ok),
               std::invalid_argument);
  EXPECT_THROW((void)build_road_schedules({-5.0}, 10.0, ok),
               std::invalid_argument);
  const std::vector<VehicleEntry> bad{{at_s(0), 0.0}};
  EXPECT_THROW((void)build_road_schedules({100.0}, 10.0, bad),
               std::invalid_argument);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Expect build_road_contact_plan to throw std::invalid_argument whose
/// message names `field`.
void expect_rejected(const std::vector<double>& positions, double range_m,
                     const std::vector<VehicleEntry>& vehicles,
                     const std::string& field) {
  try {
    (void)build_road_contact_plan(positions, range_m, vehicles);
    ADD_FAILURE() << "accepted bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
        << e.what();
  }
}

TEST(BuildRoadContactPlan, RejectsNaNExit) {
  // NaN compares false against every edge, so it used to drive through.
  VehicleEntry v{at_s(0), 10.0};
  v.exit_m = kNaN;
  expect_rejected({100.0}, 10.0, {v}, "VehicleEntry::exit_m");
  v.exit_m = -kInf;
  expect_rejected({100.0}, 10.0, {v}, "VehicleEntry::exit_m");
}

TEST(BuildRoadContactPlan, RejectsInfiniteSpeed) {
  // An infinite speed gives a zero-length pass, which used to vanish.
  expect_rejected({100.0}, 10.0, {{at_s(0), kInf}},
                  "VehicleEntry::speed_mps");
}

TEST(BuildRoadContactPlan, RejectsNonFinitePositions) {
  const std::vector<VehicleEntry> ok{{at_s(0), 10.0}};
  expect_rejected({100.0, kNaN}, 10.0, ok, "positions_m");
  expect_rejected({kInf}, 10.0, ok, "positions_m");
  expect_rejected({-kInf}, 10.0, ok, "positions_m");
}

TEST(BuildRoadContactPlan, RejectsInfiniteRange) {
  expect_rejected({100.0}, kInf, {{at_s(0), 10.0}}, "range_m");
}

TEST(BuildRoadContactPlan, InfiniteExitStillDrivesThrough) {
  VehicleEntry v{at_s(0), 10.0};
  v.exit_m = kInf;
  const RoadContactPlan plan = build_road_contact_plan({1000.0}, 10.0, {v});
  ASSERT_EQ(plan.schedules[0].size(), 1U);
  EXPECT_EQ(plan.schedules[0].contacts().front().arrival, at_s(99.0));
  EXPECT_EQ(plan.carriers[0], (std::vector<std::uint32_t>{0}));
}

TEST(RoadContactBuilder, NodeByNodeMatchesTheWholePlan) {
  // Out-of-order positions exercise the pass-order carry's fallback;
  // early exits split the vehicles into many (speed, exit) runs.
  VehicleFlow flow;
  sim::Rng rng{11};
  std::vector<VehicleEntry> vehicles =
      materialize_vehicles(flow, Duration::hours(24), rng);
  for (std::size_t k = 0; k < vehicles.size(); k += 3) {
    vehicles[k].exit_m = 2500.0;
  }
  const std::vector<double> positions{100.0, 2400.0, 900.0, 2600.0, 5.0};
  const RoadContactPlan plan =
      build_road_contact_plan(positions, 10.0, vehicles);
  RoadContactBuilder builder{10.0, vehicles};
  for (std::size_t i = 0; i < positions.size(); ++i) {
    SCOPED_TRACE(i);
    std::vector<std::uint32_t> carriers{99};
    const contact::ContactSchedule schedule =
        builder.next(positions[i], &carriers);
    EXPECT_EQ(schedule.contacts(), plan.schedules[i].contacts());
    EXPECT_EQ(carriers, plan.carriers[i]);
  }
  EXPECT_EQ(builder.next(100.0).contacts(), plan.schedules[0].contacts());
}

TEST(RoadContactBuilder, RejectsWhatThePlanRejects) {
  const std::vector<VehicleEntry> ok{{at_s(0), 10.0}};
  EXPECT_THROW((void)RoadContactBuilder(0.0, ok), std::invalid_argument);
  const std::vector<VehicleEntry> bad{{at_s(0), 0.0}};
  EXPECT_THROW((void)RoadContactBuilder(10.0, bad), std::invalid_argument);
  RoadContactBuilder builder{10.0, ok};
  EXPECT_THROW((void)builder.next(kNaN), std::invalid_argument);
  EXPECT_THROW((void)builder.next(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace snipr::deploy
