#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "snipr/deploy/road_contacts.hpp"
#include "snipr/sim/rng.hpp"

/// build_road_contact_plan against a plain reference builder: every
/// node's passes collected from scratch and std::sort-ed by (arrival,
/// vehicle), then merged. The library takes one of two paths. On a mixed
/// road it carries the pass order from node to node. On a one-class road
/// (every vehicle shares speed and exit) it merges the passes once per
/// pass span and hands each node a copy shifted by its travel offset,
/// rebuilding the merge for a node whose span differs (x < R, or a node
/// straddling or past the shared exit). This pins both paths to the
/// reference element by element over random flows.

namespace snipr::deploy {
namespace {

using contact::Contact;
using sim::Duration;
using sim::TimePoint;

RoadContactPlan reference_plan(const std::vector<double>& positions_m,
                               double range_m,
                               const std::vector<VehicleEntry>& vehicles) {
  struct Pass {
    Contact contact;
    std::uint32_t vehicle;
  };
  RoadContactPlan plan;
  for (const double x : positions_m) {
    std::vector<Pass> raw;
    for (std::uint32_t k = 0; k < vehicles.size(); ++k) {
      const VehicleEntry& v = vehicles[k];
      const double near_edge = std::max(0.0, x - range_m);
      if (v.exit_m <= near_edge) continue;
      const double start_s = near_edge / v.speed_mps;
      const double end_s = std::min(x + range_m, v.exit_m) / v.speed_mps;
      const TimePoint arrival = v.entry + Duration::seconds(start_s);
      const Duration length = Duration::seconds(end_s - start_s);
      if (length > Duration::zero()) {
        raw.push_back(Pass{Contact{arrival, length}, k});
      }
    }
    std::sort(raw.begin(), raw.end(), [](const Pass& a, const Pass& b) {
      if (a.contact.arrival != b.contact.arrival) {
        return a.contact.arrival < b.contact.arrival;
      }
      return a.vehicle < b.vehicle;
    });
    std::vector<Contact> merged;
    std::vector<std::uint32_t> carriers;
    for (const Pass& p : raw) {
      if (!merged.empty() && p.contact.arrival < merged.back().departure()) {
        merged.back().length =
            std::max(merged.back().departure(), p.contact.departure()) -
            merged.back().arrival;
      } else {
        merged.push_back(p.contact);
        carriers.push_back(p.vehicle);
      }
    }
    plan.schedules.emplace_back(std::move(merged));
    plan.carriers.push_back(std::move(carriers));
  }
  return plan;
}

void expect_same_plan(const std::vector<double>& positions, double range_m,
                      const std::vector<VehicleEntry>& vehicles,
                      const std::string& label) {
  const RoadContactPlan want = reference_plan(positions, range_m, vehicles);
  const RoadContactPlan got =
      build_road_contact_plan(positions, range_m, vehicles);
  ASSERT_EQ(got.schedules.size(), want.schedules.size()) << label;
  ASSERT_EQ(got.carriers.size(), want.carriers.size()) << label;
  for (std::size_t i = 0; i < want.schedules.size(); ++i) {
    const std::vector<Contact>& a = got.schedules[i].contacts();
    const std::vector<Contact>& b = want.schedules[i].contacts();
    ASSERT_EQ(a.size(), b.size()) << label << ", node " << i;
    for (std::size_t j = 0; j < b.size(); ++j) {
      ASSERT_EQ(a[j].arrival, b[j].arrival)
          << label << ", node " << i << ", contact " << j;
      ASSERT_EQ(a[j].length, b[j].length)
          << label << ", node " << i << ", contact " << j;
    }
    ASSERT_EQ(got.carriers[i], want.carriers[i]) << label << ", node " << i;
  }
}

/// Uniform integer in [lo, hi].
std::size_t pick(sim::Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.uniform_int(hi - lo + 1));
}

enum class Speeds { kFixed, kPerVehicle, kRuns, kTies };

/// A random flow. kRuns draws runs of equal speed whose vehicles may
/// still exit at different points; kTies draws whole-second entries and
/// speeds that divide the node offsets, so unequal vehicles reach a node
/// at exactly the same microsecond and the vehicle index breaks the tie.
std::vector<VehicleEntry> random_flow(sim::Rng& rng, Speeds speeds,
                                      std::size_t count,
                                      double through_fraction,
                                      double road_end_m) {
  std::vector<VehicleEntry> vehicles;
  double t = 0.0;
  double speed = 10.0;
  for (std::size_t k = 0; k < count; ++k) {
    VehicleEntry v{};
    switch (speeds) {
      case Speeds::kFixed:
        t += rng.uniform(0.0, 30.0);
        speed = 20.0;
        break;
      case Speeds::kPerVehicle:
        t += rng.uniform(0.0, 30.0);
        speed = rng.uniform(5.0, 30.0);
        break;
      case Speeds::kRuns:
        t += rng.uniform(0.0, 10.0);
        if (k == 0 || rng.bernoulli(0.2)) speed = rng.uniform(5.0, 30.0);
        break;
      case Speeds::kTies: {
        t += static_cast<double>(pick(rng, 0, 3) * 50);
        constexpr double kSpeeds[] = {5.0, 10.0, 20.0, 40.0};
        speed = kSpeeds[pick(rng, 0, 3)];
        break;
      }
    }
    v.entry = TimePoint::zero() + Duration::seconds(t);
    v.speed_mps = speed;
    if (!rng.bernoulli(through_fraction)) {
      v.exit_m = rng.uniform(0.0, road_end_m);
    }
    vehicles.push_back(v);
  }
  return vehicles;
}

/// Sorted positions from `first` at random spacing, then optionally
/// shuffled and salted with duplicates.
std::vector<double> random_positions(sim::Rng& rng, std::size_t count,
                                     double first, double spacing,
                                     bool shuffle) {
  std::vector<double> positions;
  double x = first;
  for (std::size_t i = 0; i < count; ++i) {
    positions.push_back(x);
    x += spacing * static_cast<double>(pick(rng, 0, 2));  // 0: dup
  }
  if (shuffle) {
    for (std::size_t i = positions.size(); i > 1; --i) {
      std::swap(positions[i - 1], positions[pick(rng, 0, i - 1)]);
    }
  }
  return positions;
}

TEST(RoadContactsEquivalence, MatchesTheSortingBuilderOverRandomFlows) {
  sim::Rng rng{20111};
  const Speeds kinds[] = {Speeds::kFixed, Speeds::kPerVehicle, Speeds::kRuns,
                          Speeds::kTies};
  for (int trial = 0; trial < 160; ++trial) {
    const Speeds kind = kinds[trial % 4];
    const bool shuffle = (trial / 4) % 2 == 1;
    const bool exits = (trial / 8) % 2 == 1;
    const double range_m =
        kind == Speeds::kTies ? 10.0 : rng.uniform(5.0, 60.0);
    // kTies places nodes at R + multiples of 200 m, so every speed in its
    // set divides the offset to a whole second.
    const double first =
        kind == Speeds::kTies ? range_m : rng.uniform(0.0, 2.0 * range_m);
    const double spacing =
        kind == Speeds::kTies ? 200.0 : rng.uniform(1.0, 400.0);
    const std::vector<double> positions =
        random_positions(rng, pick(rng, 1, 40), first, spacing, shuffle);
    const double road_end =
        *std::max_element(positions.begin(), positions.end()) + range_m;
    const std::vector<VehicleEntry> vehicles =
        random_flow(rng, kind, pick(rng, 0, 200), exits ? 0.5 : 1.0, road_end);
    expect_same_plan(positions, range_m, vehicles,
                     "trial " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoadContactsEquivalence, NodesInsideTheFirstRangeClampToEntry) {
  // x < R for the first few nodes: near edges clamp to 0, so every pass
  // there starts at the vehicle's entry, whatever its speed.
  sim::Rng rng{5};
  const std::vector<VehicleEntry> vehicles =
      random_flow(rng, Speeds::kPerVehicle, 150, 0.7, 400.0);
  expect_same_plan({0.0, 3.0, 9.5, 10.0, 12.0, 40.0, 5.0}, 10.0, vehicles,
                   "x < R");
}

TEST(RoadContactsEquivalence, FarJumpsBetweenNodesStayExact) {
  // Dense per-vehicle speeds and nodes kilometres apart, out of order:
  // the carried order is far from the next node's, so the builder sorts
  // afresh instead of insertion-sorting many overtakes.
  sim::Rng rng{77};
  const std::vector<VehicleEntry> vehicles =
      random_flow(rng, Speeds::kPerVehicle, 600, 1.0, 0.0);
  expect_same_plan({60000.0, 0.0, 60000.0, 30000.0, 30001.0}, 10.0, vehicles,
                   "far jumps");
}

TEST(RoadContactsEquivalence, UnsortedEntriesStayExact) {
  sim::Rng rng{9};
  std::vector<VehicleEntry> vehicles =
      random_flow(rng, Speeds::kRuns, 120, 0.8, 2000.0);
  std::reverse(vehicles.begin(), vehicles.end());
  expect_same_plan({100.0, 700.0, 1500.0}, 15.0, vehicles, "reversed entries");
}

/// A one-class flow: `count` vehicles at `speed`, all leaving the road at
/// `exit_m`, entering at whole-second steps of 0 to 3 × `step_s` (a step
/// of 0 ties two entries, and short steps overlap passes).
std::vector<VehicleEntry> one_class_flow(sim::Rng& rng, std::size_t count,
                                         double speed, double exit_m,
                                         double step_s) {
  std::vector<VehicleEntry> vehicles;
  double t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t += static_cast<double>(pick(rng, 0, 3)) * step_s;
    vehicles.push_back(
        VehicleEntry{TimePoint::zero() + Duration::seconds(t), speed, exit_m});
  }
  return vehicles;
}

/// expect_same_plan, plus the carrier-free schedules.
void expect_same_one_class_plan(const std::vector<double>& positions,
                                double range_m,
                                const std::vector<VehicleEntry>& vehicles,
                                const std::string& label) {
  expect_same_plan(positions, range_m, vehicles, label);
  const RoadContactPlan want = reference_plan(positions, range_m, vehicles);
  const std::vector<contact::ContactSchedule> got =
      build_road_schedules(positions, range_m, vehicles);
  ASSERT_EQ(got.size(), want.schedules.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].contacts(), want.schedules[i].contacts())
        << label << ", node " << i;
  }
}

TEST(RoadContactsEquivalence, OneClassRoadsMatchTheSortingBuilder) {
  sim::Rng rng{4242};
  for (int trial = 0; trial < 120; ++trial) {
    const bool shuffle = trial % 2 == 1;
    const double range_m = rng.uniform(5.0, 60.0);
    const double speed = rng.uniform(5.0, 30.0);
    // Nodes from inside the first range (spans clamped by x < R) outward,
    // with duplicates.
    const std::vector<double> positions = random_positions(
        rng, pick(rng, 2, 40), rng.uniform(0.0, 2.0 * range_m),
        rng.uniform(1.0, 3.0 * range_m), shuffle);
    const double road_end =
        *std::max_element(positions.begin(), positions.end()) + range_m;
    // A shared exit the nodes straddle; every third road drives through.
    const double exit_m = trial % 3 == 0
                              ? std::numeric_limits<double>::infinity()
                              : rng.uniform(0.0, road_end);
    const double step_s = static_cast<double>(pick(rng, 1, 20));
    const std::vector<VehicleEntry> vehicles =
        one_class_flow(rng, pick(rng, 1, 200), speed, exit_m, step_s);
    expect_same_one_class_plan(positions, range_m, vehicles,
                               "one-class trial " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoadContactsEquivalence, OneClassPatternFollowsEverySpan) {
  // 20 m/s, R = 10 m, all exiting at 100 m: x = 0, 3 and 5 clamp to the
  // entry with spans of 0.5, 0.65 and 0.75 s; 12, 40 and 60 see the full
  // 1 s; 95 straddles the exit (0.75 s again); 200 is past it. Out of
  // order and repeated, so the pattern is rebuilt and reused in turn.
  sim::Rng rng{8};
  const std::vector<VehicleEntry> vehicles =
      one_class_flow(rng, 300, 20.0, 100.0, 1.0);
  expect_same_one_class_plan(
      {0.0, 3.0, 12.0, 40.0, 40.0, 5.0, 95.0, 200.0, 60.0, 3.0, 0.0}, 10.0,
      vehicles, "one-class spans");
  std::vector<VehicleEntry> reversed = vehicles;
  std::reverse(reversed.begin(), reversed.end());
  expect_same_one_class_plan({95.0, 0.0, 12.0, 13.0}, 10.0, reversed,
                             "one-class reversed entries");
}

}  // namespace
}  // namespace snipr::deploy
