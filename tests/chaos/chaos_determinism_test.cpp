#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "snipr/core/json_writer.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/fault/fault_plan.hpp"

/// The fault plane's determinism contract (`ctest -L chaos`): a faulted
/// fleet run is a pure function of (deployment seed, fault seed) — the
/// shard and thread partition must never show through, because every
/// fault stream is forked per node before any partitioning. And the
/// zero-config guarantees: a null plan and
/// an all-zero plan are byte-identical to each other (no stream is even
/// consumed), so fault-free outputs match builds that predate the fault
/// plane.

namespace snipr::deploy {
namespace {

FleetSpec faulted_spec(bool with_collection) {
  RoadWorkload road;
  road.spacing_m = 300.0;
  road.range_m = 10.0;
  road.speed_mean_mps = 10.0;
  road.speed_stddev_mps = 1.5;
  road.speed_min_mps = 2.0;
  if (with_collection) road.through_fraction = 0.7;
  FleetSpec spec =
      FleetSpec::road(32, road, core::Strategy::kAdaptive, 16.0);
  spec.exploration.kind = core::ExplorationPolicyKind::kEpsilonFloor;
  if (with_collection) {
    RoutingSpec routing;
    routing.node_store_bytes = 8192.0;
    routing.drop_policy = DropPolicy::kOldestFirst;
    routing.forwarding = ForwardingPolicy::kGreedySink;
    spec.routing = routing;
  }
  auto faults = std::make_shared<fault::FaultSpec>();
  faults->seed = 99;
  faults->radio.probe_miss_prob = 0.10;
  faults->radio.snr_edge_weight = 0.5;
  faults->radio.spurious_detect_prob = 0.01;
  faults->radio.transfer_abort_prob = 0.10;
  faults->node.crash_prob_per_epoch = 0.10;
  faults->node.restore_from_checkpoint = false;
  faults->collection.handoff_loss_prob = 0.10;
  faults->collection.max_retries = 2;
  faults->collection.retry_backoff_s = 0.5;
  spec.faults = std::move(faults);
  return spec;
}

FleetConfig config_for(const core::RoadsideScenario& scenario,
                       const FleetSpec& spec, std::size_t shards,
                       std::size_t threads) {
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      scenario, spec, scenario.phi_max_small_s(), /*epochs=*/3, /*seed=*/5);
  config.shards = shards;
  config.threads = threads;
  return config;
}

TEST(ChaosDeterminism, FaultedRunIsShardAndThreadInvariant) {
  const core::RoadsideScenario scenario;
  for (const bool with_collection : {false, true}) {
    const FleetSpec spec = faulted_spec(with_collection);
    const FleetEngine engine;
    const std::string one = FleetEngine::to_json(
        engine.run(scenario, spec, config_for(scenario, spec, 1, 1)));
    const std::string two = FleetEngine::to_json(
        engine.run(scenario, spec, config_for(scenario, spec, 2, 2)));
    const std::string eight = FleetEngine::to_json(
        engine.run(scenario, spec, config_for(scenario, spec, 8, 3)));
    EXPECT_EQ(one, two) << "collection=" << with_collection;
    EXPECT_EQ(one, eight) << "collection=" << with_collection;
    EXPECT_EQ(core::json::extract_schema(one), "snipr.fleet.v3");
  }
}

TEST(ChaosDeterminism, FaultedRunActuallyInjectsFaults) {
  const core::RoadsideScenario scenario;
  const FleetSpec spec = faulted_spec(/*with_collection=*/true);
  const DeploymentOutcome outcome = FleetEngine{}.run(
      scenario, spec, config_for(scenario, spec, 0, 0));
  ASSERT_TRUE(outcome.resilience.has_value());
  const fault::ResilienceOutcome& res = *outcome.resilience;
  EXPECT_GT(res.probing.detections_lost, 0U);
  EXPECT_GT(res.probing.crashes, 0U);
  EXPECT_GT(res.collection.handoffs_lost, 0U);
}

TEST(ChaosDeterminism, AllZeroPlanIsByteIdenticalToNoPlan) {
  const core::RoadsideScenario scenario;
  FleetSpec spec = faulted_spec(/*with_collection=*/true);
  spec.faults.reset();
  const FleetConfig config = config_for(scenario, spec, 0, 0);
  const FleetEngine engine;
  const std::string without = FleetEngine::to_json(
      engine.run(scenario, spec, config));
  spec.faults = std::make_shared<fault::FaultSpec>();  // all zeros
  const std::string with_zero = FleetEngine::to_json(
      engine.run(scenario, spec, config));
  EXPECT_EQ(without, with_zero);
  EXPECT_EQ(core::json::extract_schema(without), "snipr.fleet.v2");
}

TEST(ChaosDeterminism, FaultSeedChangesDrawsNotStructure) {
  // Different fault seeds must yield different fault histories (the
  // plan is live) while preserving the outcome's shape and node count.
  const core::RoadsideScenario scenario;
  FleetSpec spec = faulted_spec(/*with_collection=*/false);
  const FleetConfig config = config_for(scenario, spec, 0, 0);
  const FleetEngine engine;
  const DeploymentOutcome a = engine.run(scenario, spec, config);
  auto reseeded = std::make_shared<fault::FaultSpec>(*spec.faults);
  reseeded->seed = 100;
  spec.faults = std::move(reseeded);
  const DeploymentOutcome b = engine.run(scenario, spec, config);
  ASSERT_TRUE(a.resilience.has_value());
  ASSERT_TRUE(b.resilience.has_value());
  EXPECT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_NE(FleetEngine::to_json(a), FleetEngine::to_json(b));
}

}  // namespace
}  // namespace snipr::deploy
