#pragma once

#include <string>
#include <vector>

#include "snipr/deploy/deployment.hpp"
#include "snipr/deploy/fleet.hpp"

/// \file fleet_engine.hpp
/// Sharded multi-threaded deployment engine.
///
/// The FleetEngine partitions the fleet into shards of contiguous nodes
/// and fans the shards out across a `core::ThreadPool`. Inside a shard,
/// every node runs alone on its own clock up to the horizon
/// (node::run_lone_node), one node after the other: nodes never interact
/// while probing, so each node is just its own two timers.
///
/// Determinism contract (the PR 1/PR 2 guarantee, extended to shards):
/// node i's contacts and fault stream are forked from their roots in
/// node order, *before* any partitioning — a pure function of
/// (seed, i). Nodes never share mutable state (each has its own channel,
/// buffer, budget and scheduler, so no node can observe another), and
/// per-shard NodeOutcomes are merged back in node order, then aggregated
/// in one `stats::OnlineStats` pass. The outcome — and `to_json`'s
/// bytes — is therefore identical for ANY shard and thread count, and
/// to a run with the whole fleet on one `sim::Simulator`.

namespace snipr::deploy {

struct FleetConfig {
  /// Node configuration, link, epochs and root seed (shared by shards).
  DeploymentConfig deployment{};
  /// Work partitions; 0 = max(hardware threads, nodes/16) rounded up to
  /// a multiple of the worker count, capped at the node count. Purely a
  /// performance knob — results never depend on it. More shards than
  /// threads still helps: the pool hands shards to whichever worker is
  /// free, so small shards balance the load.
  std::size_t shards{0};
  /// Worker threads; 0 = hardware concurrency. Capped at the shard count.
  std::size_t threads{0};
};

class FleetEngine {
 public:
  /// Run over pre-built schedules (node i runs schedules[i]). An enabled
  /// `faults` spec attaches one deterministic fault stream per node
  /// (fault::FaultPlan, forked in node order before any partitioning,
  /// so the outcome stays shard- and thread-count independent) and adds
  /// a `resilience` section to the outcome; null or disabled specs leave
  /// the run byte-identical to a fault-free one.
  [[nodiscard]] DeploymentOutcome run(
      std::vector<contact::ContactSchedule> schedules,
      const SchedulerFactory& make_scheduler, const FleetConfig& config,
      const fault::FaultSpec* faults = nullptr) const;

  /// Materialise `spec`'s road geometry and vehicle flow (one flow shared
  /// by every node, so contacts stay correlated across the fleet) or its
  /// trace replay streams, plan `spec.strategy` once against `scenario`
  /// (core::plan_scheduler), build one scheduler per node from that
  /// plan, and run. Each shard builds the schedules of its own node range
  /// inside its worker. The vehicle flow is drawn from the root seeded
  /// with `config.deployment.seed`; node faults have their own root. Throws
  /// std::invalid_argument naming the offending field of an invalid spec
  /// (a non-finite or negative ζtarget or a negative budget included).
  [[nodiscard]] DeploymentOutcome run(const core::RoadsideScenario& scenario,
                                      const FleetSpec& spec,
                                      const FleetConfig& config) const;

  /// Serialise an outcome as JSON: aggregates plus one compact row per
  /// node (`core::json::kFleetSchemaV1`), and — when the outcome carries
  /// a store-and-forward network section — the collection results under
  /// `"network"` with the schema bumped to `core::json::kFleetSchemaV2`;
  /// an outcome with a `resilience` section (fault plan attached) bumps
  /// it again to `core::json::kFleetSchemaV3`. Deterministic: same
  /// outcome, same bytes — and outcomes are shard-count-independent, so
  /// this is what the fleet golden corpus pins.
  [[nodiscard]] static std::string to_json(const DeploymentOutcome& outcome);
};

/// Node/link configuration for a catalog-style fleet run: Ton and link
/// from the scenario, epoch length from the flow profile, budget Φmax
/// and the sensing rate implied by `spec.zeta_target_s`. Throws
/// std::invalid_argument unless `phi_max_s` is finite and >= 0.
[[nodiscard]] DeploymentConfig make_fleet_deployment_config(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    double phi_max_s, std::size_t epochs, std::uint64_t seed);

}  // namespace snipr::deploy
