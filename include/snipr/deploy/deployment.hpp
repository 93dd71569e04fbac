#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/deploy/routing.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/lone_node.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/link.hpp"

/// \file deployment.hpp
/// Multi-node experiment outcomes and configuration.
///
/// N sensor nodes, each with its own channel (over its own contact
/// schedule), data buffer, budget and scheduler instance, all visited by
/// the same vehicle flow. Reports per-node and aggregate outcomes —
/// including the min/max fairness spread that a single-node study cannot
/// see. The engine that runs a deployment, at one shard or many, is
/// `FleetEngine` in fleet_engine.hpp.

namespace snipr::deploy {

/// Per-node outcome over the run: the node::NodeSummary means across
/// complete epochs.
struct NodeOutcome : node::NodeSummary {
  std::size_t node_index{0};
  std::string scheduler_name;
};

/// The fleet aggregate both engines report, over each node's mean ζ, Φ
/// and bytes per epoch.
struct FleetAggregate {
  double total_zeta_s{0.0};
  double total_phi_s{0.0};
  double total_bytes{0.0};
  double min_zeta_s{0.0};    ///< worst-served node
  double max_zeta_s{0.0};    ///< best-served node
  double mean_zeta_s{0.0};   ///< fleet mean of per-node ζ
  /// Population variance of per-node ζ (Welford; stable even for huge
  /// fleets of near-equal ζ, where a sum-of-squares formula cancels).
  double zeta_variance{0.0};
  double zeta_stddev_s{0.0};
  /// Jain's fairness index over per-node ζ (1 = perfectly even).
  double zeta_fairness{1.0};
};

/// Whole-deployment outcome: the aggregate plus one row per node.
struct DeploymentOutcome : FleetAggregate {
  std::vector<NodeOutcome> nodes;
  /// Store-and-forward collection results, present when the fleet ran
  /// with a RoutingSpec (upgrades the JSON schema to snipr.fleet.v2).
  std::optional<NetworkOutcome> network;
  /// Fault-plane counters, present when the fleet ran with an enabled
  /// fault::FaultSpec (upgrades the JSON schema to snipr.fleet.v3).
  std::optional<fault::ResilienceOutcome> resilience;
};

struct DeploymentConfig {
  node::SensorNodeConfig node;  ///< shared node configuration
  radio::LinkParams link;
  std::size_t epochs{14};
  std::uint64_t seed{1};
};

/// Factory producing one scheduler per node (owned by the runner for the
/// duration of the experiment). Must be safe to call concurrently from
/// shard worker threads; each call must return a fresh scheduler.
using SchedulerFactory =
    std::function<std::unique_ptr<node::Scheduler>(std::size_t node_index)>;

/// Recompute every aggregate field of `outcome` from its per-node rows
/// in node order: sums plus one Welford pass (never a raw Σζ² that
/// cancels catastrophically at fleet scale). Safe on an empty outcome
/// (leaves the zero/identity defaults).
void finalize_outcome(DeploymentOutcome& outcome);

}  // namespace snipr::deploy
