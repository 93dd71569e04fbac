#include "snipr/deploy/fleet_engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"

namespace snipr::deploy {
namespace {

using sim::Duration;

std::vector<contact::ContactSchedule> two_day_schedules(
    const std::vector<double>& positions, std::uint64_t seed = 2) {
  VehicleFlow flow;
  flow.jitter = contact::IntervalJitter::kNormalTenth;
  sim::Rng rng{seed};
  const auto vehicles =
      materialize_vehicles(flow, Duration::hours(24) * 2, rng);
  return build_road_schedules(positions, 10.0, vehicles);
}

SchedulerFactory rh_factory() {
  return [](std::size_t) {
    return std::make_unique<core::SnipRh>(
        core::RushHourMask::from_hours({7, 8, 17, 18}),
        core::SnipRhConfig{});
  };
}

FleetConfig quick_config(std::size_t shards) {
  FleetConfig cfg;
  cfg.deployment.epochs = 2;
  cfg.deployment.node.budget_limit = Duration::seconds(864.0);
  cfg.deployment.node.sensing_rate_bps = 1e6;  // no data gating
  cfg.shards = shards;
  return cfg;
}

TEST(FleetEngine, OneShardMatchesManyShardsExactly) {
  // The per-node streams are fixed before partitioning, so a single
  // shard on one thread and a multi-shard run agree bit for bit.
  const std::vector<double> positions{100.0, 900.0, 4200.0, 7100.0};
  FleetConfig single = quick_config(1);
  single.threads = 1;
  const auto reference =
      FleetEngine{}.run(two_day_schedules(positions), rh_factory(), single);
  const auto sharded = FleetEngine{}.run(two_day_schedules(positions),
                                         rh_factory(), quick_config(3));
  ASSERT_EQ(reference.nodes.size(), sharded.nodes.size());
  for (std::size_t i = 0; i < reference.nodes.size(); ++i) {
    EXPECT_EQ(reference.nodes[i].node_index, sharded.nodes[i].node_index);
    EXPECT_EQ(reference.nodes[i].mean_zeta_s, sharded.nodes[i].mean_zeta_s);
    EXPECT_EQ(reference.nodes[i].mean_phi_s, sharded.nodes[i].mean_phi_s);
    EXPECT_EQ(reference.nodes[i].miss_ratio, sharded.nodes[i].miss_ratio);
  }
  EXPECT_EQ(FleetEngine::to_json(reference), FleetEngine::to_json(sharded));
}

TEST(FleetEngine, AggregatesAreInternallyConsistent) {
  const auto out = FleetEngine{}.run(
      two_day_schedules({100.0, 900.0, 4200.0}), rh_factory(),
      quick_config(2));
  double sum = 0.0;
  for (const NodeOutcome& n : out.nodes) sum += n.mean_zeta_s;
  EXPECT_NEAR(out.total_zeta_s, sum, 1e-9);
  EXPECT_NEAR(out.mean_zeta_s, sum / 3.0, 1e-9);
  EXPECT_NEAR(out.zeta_stddev_s * out.zeta_stddev_s, out.zeta_variance,
              1e-12);
  EXPECT_GE(out.max_zeta_s, out.min_zeta_s);
  const double mean_sq = out.mean_zeta_s * out.mean_zeta_s;
  EXPECT_NEAR(out.zeta_fairness, mean_sq / (mean_sq + out.zeta_variance),
              1e-12);
}

TEST(FleetEngine, SpecRunBuildsTheWholeFleet) {
  core::RoadsideScenario scenario;
  RoadWorkload road;
  road.spacing_m = 500.0;
  FleetSpec spec = FleetSpec::road(6, road, core::Strategy::kSnipRh, 16.0);
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(scenario, spec,
                                                   /*phi_max_s=*/864.0,
                                                   /*epochs=*/2, /*seed=*/3);
  const auto out = FleetEngine{}.run(scenario, spec, config);
  ASSERT_EQ(out.nodes.size(), 6U);
  EXPECT_FALSE(out.network.has_value());
  for (const NodeOutcome& n : out.nodes) {
    EXPECT_EQ(n.scheduler_name, "SNIP-RH");
    EXPECT_EQ(n.epochs, 2U);
    EXPECT_GT(n.mean_zeta_s, 0.0);
  }
}

TEST(FleetEngine, RoutingAttachesANetworkOutcome) {
  core::RoadsideScenario scenario;
  RoadWorkload road;
  road.spacing_m = 500.0;
  FleetSpec spec = FleetSpec::road(6, road, core::Strategy::kSnipRh, 16.0);
  spec.routing = RoutingSpec{};  // unlimited stores, greedy to road end
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(scenario, spec,
                                                   /*phi_max_s=*/864.0,
                                                   /*epochs=*/2, /*seed=*/3);
  const auto out = FleetEngine{}.run(scenario, spec, config);
  ASSERT_TRUE(out.network.has_value());
  const NetworkOutcome& net = *out.network;
  EXPECT_GT(net.generated_bytes, 0.0);
  EXPECT_GE(net.delivery_ratio, 0.0);
  EXPECT_LE(net.delivery_ratio, 1.0);
  ASSERT_EQ(net.nodes.size(), 6U);
  // Byte conservation: everything generated is accounted for.
  EXPECT_NEAR(net.generated_bytes,
              net.delivered_bytes + net.dropped_bytes + net.expired_bytes +
                  net.lost_in_transit_bytes + net.residual_bytes,
              1e-6 * net.generated_bytes);
  const std::string json = FleetEngine::to_json(out);
  EXPECT_EQ(json.rfind("{\"schema\":\"snipr.fleet.v2\",", 0), 0U);
  EXPECT_NE(json.find("\"network\":{"), std::string::npos);
  EXPECT_NE(json.find("\"delivery_ratio\":"), std::string::npos);
}

TEST(FleetEngine, RoutingRejectsTraceWorkloads) {
  core::RoadsideScenario scenario;
  TraceWorkload trace;
  trace.trace = "synthetic-metro-drift";
  FleetSpec spec =
      FleetSpec::trace_replay(4, trace, core::Strategy::kAdaptive, 16.0);
  spec.routing = RoutingSpec{};
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(scenario, spec,
                                                   /*phi_max_s=*/864.0,
                                                   /*epochs=*/1, /*seed=*/3);
  EXPECT_THROW((void)FleetEngine{}.run(scenario, spec, config),
               std::invalid_argument);
}

TEST(FleetEngine, ToJsonIsDeterministicAndStructured) {
  const auto out = FleetEngine{}.run(two_day_schedules({100.0, 5000.0}),
                                     rh_factory(), quick_config(2));
  const std::string json = FleetEngine::to_json(out);
  EXPECT_EQ(json.rfind("{\"schema\":\"snipr.fleet.v1\",\"nodes\":2,", 0), 0U);
  EXPECT_NE(json.find("\"per_node\":["), std::string::npos);
  EXPECT_NE(json.find("\"zeta_fairness\":"), std::string::npos);
  EXPECT_EQ(json, FleetEngine::to_json(out));
}

TEST(FleetEngine, Validation) {
  EXPECT_THROW(
      (void)FleetEngine{}.run({}, rh_factory(), quick_config(1)),
      std::invalid_argument);
  EXPECT_THROW((void)FleetEngine{}.run(two_day_schedules({100.0}), nullptr,
                                       quick_config(1)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)FleetEngine{}.run(two_day_schedules({100.0}),
                              [](std::size_t) {
                                return std::unique_ptr<node::Scheduler>{};
                              },
                              quick_config(1)),
      std::invalid_argument);
  core::RoadsideScenario scenario;
  FleetSpec bad;
  bad.nodes = 0;
  EXPECT_THROW((void)FleetEngine{}.run(scenario, bad, quick_config(1)),
               std::invalid_argument);
}

TEST(FleetEngine, LowerNodesErrorWinsWhenTwoShardsFail) {
  // Node 2 (shard 1) fails late, node 13 (shard 6) at once. A sequential
  // loop would stop at node 2, so its error must come back at any thread
  // count, whichever failure happens first in time.
  std::vector<double> positions;
  for (int i = 0; i < 16; ++i) positions.push_back(100.0 * (i + 1));
  const SchedulerFactory make = [](std::size_t i) {
    if (i == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("node 2");
    }
    if (i == 13) throw std::runtime_error("node 13");
    return rh_factory()(i);
  };
  for (const std::size_t threads : {1U, 2U, 8U}) {
    FleetConfig config = quick_config(8);
    config.threads = threads;
    try {
      (void)FleetEngine{}.run(two_day_schedules(positions), make, config);
      FAIL() << "no error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "node 2") << threads << " threads";
    }
  }
}

/// Catalog fleets grown past two marks of the replay streams (a range
/// rebuilds its streams from the parent's state every 64 forks).
class EveryRangeStart : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryRangeStart, GivesTheOneRangeBytes) {
  // One shard per node starts a range on, just before and just after
  // every mark; each node must still get its own fault and replay
  // stream and its own contacts and carriers.
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(GetParam());
  FleetSpec spec = *entry.fleet;
  spec.nodes = 150;
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
  // Missed probes make every node draw from its own fault stream.
  auto faults = std::make_shared<fault::FaultSpec>();
  faults->radio.probe_miss_prob = 0.2;
  spec.faults = faults;
  config.threads = 1;
  config.shards = 1;
  const std::string one_range =
      FleetEngine::to_json(FleetEngine{}.run(entry.scenario, spec, config));
  config.threads = 3;
  config.shards = spec.nodes;
  EXPECT_EQ(
      FleetEngine::to_json(FleetEngine{}.run(entry.scenario, spec, config)),
      one_range);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, EveryRangeStart,
    ::testing::Values("fleet-rural-sparse", "fleet-trace-metro",
                      "fleet-multihop-relay"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace snipr::deploy
