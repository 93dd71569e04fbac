#pragma once

#include <cstddef>
#include <vector>

#include "snipr/deploy/deployment.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/sim/rng.hpp"

/// \file fleet_node.hpp
/// The per-node runner both fleet engines share (library-internal).
///
/// Fleet nodes never interact while probing: each has its own channel,
/// buffer, budget, scheduler and fault stream, and the store-and-forward
/// pass runs only afterwards, over the exported probed contacts. So a
/// shard simulates its nodes one at a time, each alone in its own
/// `sim::Simulator` up to the horizon. Alone, a node's next wakeup is
/// almost always the earliest pending event, which the EventQueue's
/// front slot serves without touching its wheel; a shared loop would
/// interleave the shard's nodes and cascade the wheel on nearly every
/// pop. The results are the same either way: node i's events run in the
/// same order, and its streams depend only on (seed, i).

namespace snipr::fault {
class NodeFaultInjector;
}  // namespace snipr::fault

namespace snipr::deploy {

/// What every node of one fleet run shares.
struct FleetNodeEnv {
  const SchedulerFactory& make_scheduler;
  /// Link parameters and the simulator seed.
  const DeploymentConfig& deployment;
  /// Node configuration with the fleet's record flags applied
  /// (see fleet_node_config).
  node::SensorNodeConfig node;
  sim::Duration horizon;
};

/// `deployment.node` as fleet runs use it: the epoch count known up
/// front, no per-epoch history (summaries read the NodeBlock's streaming
/// totals, bit-equal to a history-based summary), and per-contact
/// records only when the caller exports them.
[[nodiscard]] node::SensorNodeConfig fleet_node_config(
    const DeploymentConfig& deployment, bool record_probed_contacts);

/// One node's run, beyond what it left in its NodeBlock lane.
struct FleetNodeRun {
  NodeOutcome row;
  /// Events the node's simulator executed up to the horizon.
  std::size_t events{0};
};

/// Simulate fleet node `index` alone from time zero to `env.horizon`:
/// the scheduler from `env.make_scheduler(index)`, a channel over
/// `schedule` drawing from `channel_rng`, hot state in `block` lane
/// `lane`, and `faults` (null = none) attached. When `probed` is
/// non-null, the node's probed-contact log is copied into it.
[[nodiscard]] FleetNodeRun run_fleet_node(
    const FleetNodeEnv& env, std::size_t index,
    contact::ContactSchedule schedule, const sim::Rng& channel_rng,
    node::NodeBlock& block, std::size_t lane,
    fault::NodeFaultInjector* faults,
    std::vector<node::ProbedContactRecord>* probed);

}  // namespace snipr::deploy
