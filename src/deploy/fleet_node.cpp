#include "fleet_node.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "snipr/node/mobile_node.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/simulator.hpp"

namespace snipr::deploy {

node::SensorNodeConfig fleet_node_config(const DeploymentConfig& deployment,
                                         bool record_probed_contacts) {
  node::SensorNodeConfig config = deployment.node;
  config.expected_epochs = deployment.epochs;
  config.record_epoch_history = false;
  config.record_probed_contacts = record_probed_contacts;
  return config;
}

FleetNodeRun run_fleet_node(const FleetNodeEnv& env, std::size_t index,
                            contact::ContactSchedule schedule,
                            const sim::Rng& channel_rng,
                            node::NodeBlock& block, std::size_t lane,
                            fault::NodeFaultInjector* faults,
                            std::vector<node::ProbedContactRecord>* probed) {
  const std::unique_ptr<node::Scheduler> scheduler = env.make_scheduler(index);
  if (scheduler == nullptr) {
    throw std::invalid_argument("FleetEngine: factory returned null");
  }
  const std::size_t total_contacts = schedule.size();
  sim::Simulator simulator{env.deployment.seed};
  radio::Channel channel{std::move(schedule), env.deployment.link,
                         channel_rng};
  node::MobileNode sink;
  node::SensorNode sensor{simulator, channel, sink, *scheduler,
                          env.node,  block,   lane};
  // Node i's injector was forked in node order before partitioning, so
  // its stream, and every fault decision, is independent of the shard
  // layout; injectors are never shared, so shard workers never race.
  sensor.attach_faults(faults);
  sensor.start();

  FleetNodeRun run;
  run.events = simulator.run_until(sim::TimePoint::zero() + env.horizon);
  run.row = summarize_node(index, sensor, std::string{scheduler->name()},
                           total_contacts);
  if (probed != nullptr) *probed = sensor.probed_contacts();
  return run;
}

}  // namespace snipr::deploy
