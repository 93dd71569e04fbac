/// Property: fleet nodes never interact while probing, so simulating
/// each node alone on its own clock (what both fleet engines do) gives
/// exactly what one `Simulator` running the whole fleet gives.
/// The test builds a small faulted relay fleet on the
/// `chaos-lossy-collection` geometry and runs it twice: through
/// `FleetEngine::run`, and by hand from the public sim/radio/node/fault
/// API with every node on one simulator, node streams forked in
/// node order, node i on fault stream i and each probed contact mapped
/// to its carrier through the contact plan. The `snipr.fleet.v3`
/// documents, per-node rows, network and resilience sections included,
/// must be byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/lone_node.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/simulator.hpp"
#include "support/road_inputs.hpp"

namespace snipr::deploy {
namespace {

constexpr std::size_t kNodes = 24;
constexpr std::size_t kEpochs = 4;
constexpr std::uint64_t kSeed = 5;

/// The catalog entry's relay geometry and lossy hand-offs at a quarter of
/// its size, with probing faults added so every per-node fault hook (miss,
/// spurious detection, abort, crash) runs through the per-node loop too.
FleetSpec small_faulted_relay(const core::CatalogEntry& entry) {
  FleetSpec spec = *entry.fleet;
  spec.nodes = kNodes;
  spec.routing->sink_node = kNodes - 1;
  auto faults = std::make_shared<fault::FaultSpec>(*spec.faults);
  faults->radio.probe_miss_prob = 0.10;
  faults->radio.spurious_detect_prob = 0.01;
  faults->radio.transfer_abort_prob = 0.10;
  faults->node.crash_prob_per_epoch = 0.20;
  spec.faults = std::move(faults);
  return spec;
}

/// The whole fleet in one shared Simulator, then the collection pass.
DeploymentOutcome run_in_one_simulator(const core::CatalogEntry& entry,
                                       const FleetSpec& spec,
                                       const DeploymentConfig& deployment) {
  const sim::Duration horizon =
      spec.flow_profile.epoch() * static_cast<std::int64_t>(kEpochs);
  const RoadWorkload& road = *spec.road_workload();
  testing::RoadInputs in = testing::materialize_road(spec, kSeed, horizon);
  const RoadContactPlan plan =
      build_road_contact_plan(in.positions_m, road.range_m, in.vehicles);
  fault::FaultPlan faults{*spec.faults, spec.nodes};

  sim::Rng root{kSeed};
  sim::Simulator simulator{kSeed};
  node::NodeBlock block{spec.nodes};
  node::SensorNodeConfig node_config = deployment.node;
  node_config.expected_epochs = kEpochs;
  node_config.record_epoch_history = true;  // what node::summarize reads
  node_config.record_probed_contacts = true;
  struct NodeWorld {
    std::unique_ptr<radio::Channel> channel;
    std::unique_ptr<node::MobileNode> sink;
    std::unique_ptr<node::Scheduler> scheduler;
    std::unique_ptr<node::SensorNode> sensor;
  };
  std::vector<NodeWorld> worlds(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    NodeWorld& w = worlds[i];
    w.channel = std::make_unique<radio::Channel>(plan.schedules[i],
                                                 deployment.link, root.fork());
    w.sink = std::make_unique<node::MobileNode>();
    w.scheduler = core::make_scheduler(
        entry.scenario, spec.strategy, spec.zeta_target_s,
        deployment.node.budget_limit.to_seconds(), spec.exploration);
    w.sensor = std::make_unique<node::SensorNode>(
        simulator, *w.channel, *w.sink, *w.scheduler, node_config, block, i);
    w.sensor->attach_faults(&faults.node(i));
    w.sensor->start();
  }
  simulator.run_until(sim::TimePoint::zero() + horizon);

  DeploymentOutcome outcome;
  CollectionInput input;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    const std::vector<contact::Contact>& contacts =
        plan.schedules[i].contacts();
    const node::SensorNode& sensor = *worlds[i].sensor;
    node::LoneNodeRun run;
    run.per_epoch = sensor.epoch_history();
    run.probed_sessions = sensor.counters().probed_sessions;
    run.total_contacts = contacts.size();
    run.mean_delivery_latency_s = sensor.buffer().mean_delivery_latency_s();
    NodeOutcome row;
    static_cast<node::NodeSummary&>(row) = node::summarize(run);
    row.node_index = i;
    row.scheduler_name = worlds[i].scheduler->name();
    outcome.nodes.push_back(std::move(row));
    for (const node::ProbedContactRecord& record :
         worlds[i].sensor->probed_contacts()) {
      const auto it = std::lower_bound(
          contacts.begin(), contacts.end(), record.contact.arrival,
          [](const contact::Contact& c, sim::TimePoint t) {
            return c.arrival < t;
          });
      if (it == contacts.end() || it->arrival != record.contact.arrival) {
        ADD_FAILURE() << "node " << i << ": probed contact not in the plan";
        continue;
      }
      CollectionSession session;
      session.node = static_cast<std::uint32_t>(i);
      session.vehicle =
          plan.carriers[i][static_cast<std::size_t>(it - contacts.begin())];
      session.probe_time_s = record.probe_time.to_seconds();
      session.departure_s = record.contact.departure().to_seconds();
      input.sessions.push_back(session);
    }
  }
  finalize_outcome(outcome);

  input.routing = *spec.routing;
  input.sensing_rate_bps = deployment.node.sensing_rate_bps;
  input.data_rate_bps = deployment.link.data_rate_bps;
  input.range_m = road.range_m;
  input.positions_m = std::move(in.positions_m);
  input.vehicles = std::move(in.vehicles);
  input.horizon_s = horizon.to_seconds();
  fault::CollectionFaultState collection_faults{
      spec.faults->collection, faults.collection_stream(),
      deployment.link.data_rate_bps};
  input.faults = &collection_faults;
  outcome.network = run_collection(input);

  fault::ResilienceOutcome resilience;
  resilience.probing = faults.merged_node_counters();
  resilience.collection = collection_faults.counters();
  resilience.delivery_ratio_under_loss = outcome.network->delivery_ratio;
  outcome.resilience = resilience;
  return outcome;
}

TEST(SharedSimulatorEquivalence, PerNodeLoopsMatchOneSharedSimulator) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("chaos-lossy-collection");
  const FleetSpec spec = small_faulted_relay(entry);
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, kEpochs, kSeed);
  config.shards = 3;
  config.threads = 2;

  const DeploymentOutcome engine =
      FleetEngine{}.run(entry.scenario, spec, config);
  const DeploymentOutcome shared =
      run_in_one_simulator(entry, spec, config.deployment);
  ASSERT_TRUE(engine.network.has_value());
  ASSERT_TRUE(engine.resilience.has_value());
  // The faults must actually fire, or the comparison proves little.
  EXPECT_GT(engine.resilience->probing.detections_lost, 0U);
  EXPECT_GT(engine.resilience->probing.crashes, 0U);
  EXPECT_GT(engine.resilience->collection.handoffs_lost, 0U);
  EXPECT_GT(engine.network->deliveries, 0U);
  EXPECT_EQ(FleetEngine::to_json(engine), FleetEngine::to_json(shared));
}

}  // namespace
}  // namespace snipr::deploy
