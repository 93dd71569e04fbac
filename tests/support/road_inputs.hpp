#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "snipr/deploy/fleet.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/sim/distributions.hpp"
#include "snipr/sim/rng.hpp"
#include "snipr/sim/time.hpp"

/// \file road_inputs.hpp
/// The road inputs `FleetEngine::run(scenario, spec, config)` builds for
/// a road fleet, rebuilt through the public contact API with the
/// engine's stream discipline: node streams are the first `spec.nodes`
/// forks of root(seed), and the vehicle flow and then the early-exit
/// draws come from the root after them. The tests that run a fleet's
/// schedules outside the engine compare against the engine's bytes, so
/// any drift from the engine fails them.
///
/// Header-only: shared by the property and integration tests.

namespace snipr::testing {

struct RoadInputs {
  std::vector<double> positions_m;
  std::vector<deploy::VehicleEntry> vehicles;
};

inline RoadInputs materialize_road(const deploy::FleetSpec& spec,
                                   std::uint64_t seed, sim::Duration horizon) {
  const deploy::RoadWorkload& road = *spec.road_workload();
  sim::Rng root{seed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();
  deploy::VehicleFlow flow;
  flow.profile = spec.flow_profile;
  flow.jitter = road.jitter;
  if (road.speed_stddev_mps > 0.0) {
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        road.speed_mean_mps, road.speed_stddev_mps, road.speed_min_mps);
  } else {
    flow.speed_mps =
        std::make_unique<sim::FixedDistribution>(road.speed_mean_mps);
  }
  RoadInputs in;
  in.vehicles = deploy::materialize_vehicles(flow, horizon, root);
  in.positions_m.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    in.positions_m.push_back(road.first_position_m +
                             road.spacing_m * static_cast<double>(i));
  }
  if (road.through_fraction < 1.0) {
    const double road_end = in.positions_m.back() + road.range_m;
    for (deploy::VehicleEntry& v : in.vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }
  return in;
}

/// The fleet's contact plan over those inputs: each node's schedule and
/// the vehicle behind each of its contacts.
inline deploy::RoadContactPlan road_contact_plan(const deploy::FleetSpec& spec,
                                                 std::uint64_t seed,
                                                 sim::Duration horizon) {
  const RoadInputs in = materialize_road(spec, seed, horizon);
  return deploy::build_road_contact_plan(
      in.positions_m, spec.road_workload()->range_m, in.vehicles);
}

}  // namespace snipr::testing
