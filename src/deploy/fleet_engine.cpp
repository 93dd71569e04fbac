#include "snipr/deploy/fleet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>

#include "snipr/core/json_writer.hpp"
#include "snipr/deploy/collection.hpp"
#include "fleet_inputs.hpp"

namespace snipr::deploy {
namespace {

/// Run every node of `in` across the partition's shards into one row per
/// node. When `sessions` is non-null, each node's probed contacts become
/// collection sessions, appended in node order.
DeploymentOutcome run_rows(FleetInputs& in, const FleetConfig& config,
                           std::vector<CollectionSession>* sessions) {
  const FleetPartition partition = partition_fleet(config, in.nodes());
  DeploymentOutcome outcome;
  outcome.nodes.reserve(in.nodes());
  run_shards(in, partition, 0, partition.shards,
             [&](std::size_t, ShardRun& shard) {
               std::move(shard.rows.begin(), shard.rows.end(),
                         std::back_inserter(outcome.nodes));
               if (sessions != nullptr) {
                 sessions->insert(sessions->end(), shard.sessions.begin(),
                                  shard.sessions.end());
               }
             });
  finalize_outcome(outcome);
  if (in.faults != nullptr) {
    fault::ResilienceOutcome resilience;
    resilience.probing = in.faults->merged_node_counters();
    outcome.resilience = resilience;
  }
  return outcome;
}

}  // namespace

DeploymentOutcome FleetEngine::run(
    std::vector<contact::ContactSchedule> schedules,
    const SchedulerFactory& make_scheduler, const FleetConfig& config,
    const fault::FaultSpec* faults) const {
  FleetInputs in = prebuilt_fleet_inputs(std::move(schedules), make_scheduler,
                                         config, faults);
  return run_rows(in, config, nullptr);
}

DeploymentOutcome FleetEngine::run(const core::RoadsideScenario& scenario,
                                   const FleetSpec& spec,
                                   const FleetConfig& config) const {
  FleetInputs in =
      build_fleet_inputs(scenario, spec, config, FleetOutput::kRows);
  if (!spec.routing.has_value()) return run_rows(in, config, nullptr);

  // Store-and-forward: the probing layer exports each probed contact as a
  // session on its carrier, and the single-threaded collection pass
  // replays them. Its inputs are shard-independent, so the v2 output
  // keeps the any-shard-count byte-identity contract.
  CollectionInput input;
  DeploymentOutcome outcome = run_rows(in, config, &input.sessions);
  input.routing = *spec.routing;
  input.sensing_rate_bps = config.deployment.node.sensing_rate_bps;
  input.data_rate_bps = config.deployment.link.data_rate_bps;
  input.range_m = in.road->range_m;
  input.positions_m = road_positions(*in.road, 0, in.nodes());
  input.vehicles = std::move(in.vehicles);
  input.horizon_s = in.contact_horizon.to_seconds();
  // Collection-layer faults consume the plan's dedicated stream (forked
  // after every node stream) inside the single-threaded pass, so the
  // draw order is the pass's own deterministic event order.
  std::unique_ptr<fault::CollectionFaultState> collection_faults;
  if (in.faults != nullptr && spec.faults->collection.enabled()) {
    collection_faults = std::make_unique<fault::CollectionFaultState>(
        spec.faults->collection, in.faults->collection_stream(),
        config.deployment.link.data_rate_bps);
    input.faults = collection_faults.get();
  }
  outcome.network = run_collection(input);
  if (outcome.resilience.has_value()) {
    if (collection_faults != nullptr) {
      outcome.resilience->collection = collection_faults->counters();
    }
    outcome.resilience->delivery_ratio_under_loss =
        outcome.network->delivery_ratio;
  }
  return outcome;
}

std::string FleetEngine::to_json(const DeploymentOutcome& outcome) {
  using core::json::append_field;
  using core::json::append_string_field;
  using core::json::append_uint_field;

  std::string out;
  out.reserve(512 + (outcome.network.has_value() ? 256 : 128) *
                        outcome.nodes.size());
  const char* schema = outcome.network.has_value() ? core::json::kFleetSchemaV2
                                                   : core::json::kFleetSchemaV1;
  if (outcome.resilience.has_value()) schema = core::json::kFleetSchemaV3;
  core::json::open_document(out, schema);
  append_uint_field(out, "nodes", outcome.nodes.size());
  append_aggregate(out, outcome);
  out += "\"per_node\":[";
  bool first = true;
  for (const NodeOutcome& n : outcome.nodes) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_uint_field(out, "node", n.node_index);
    append_string_field(out, "scheduler", n.scheduler_name);
    append_uint_field(out, "epochs", n.epochs);
    append_field(out, "zeta_s", n.mean_zeta_s);
    append_field(out, "phi_s", n.mean_phi_s);
    append_field(out, "bytes", n.mean_bytes_uploaded);
    append_field(out, "contacts", n.mean_contacts_probed);
    append_field(out, "miss_ratio", n.miss_ratio);
    append_field(out, "latency_s", n.mean_delivery_latency_s,
                 /*comma=*/false);
    out += '}';
  }
  out += ']';
  if (outcome.network.has_value()) {
    const NetworkOutcome& net = *outcome.network;
    out += ",\"network\":{";
    append_field(out, "generated_bytes", net.generated_bytes);
    append_field(out, "delivered_bytes", net.delivered_bytes);
    append_field(out, "delivery_ratio", net.delivery_ratio);
    append_field(out, "latency_mean_s", net.latency_mean_s);
    append_field(out, "latency_p50_s", net.latency_p50_s);
    append_field(out, "latency_p90_s", net.latency_p90_s);
    append_field(out, "latency_p99_s", net.latency_p99_s);
    append_field(out, "mean_hops", net.mean_hops);
    append_uint_field(out, "max_hops", net.max_hops);
    append_uint_field(out, "pickups", net.pickups);
    append_uint_field(out, "deposits", net.deposits);
    append_uint_field(out, "deliveries", net.deliveries);
    append_field(out, "pickup_bytes", net.pickup_bytes);
    append_field(out, "deposit_bytes", net.deposit_bytes);
    append_field(out, "dropped_bytes", net.dropped_bytes);
    append_field(out, "expired_bytes", net.expired_bytes);
    append_field(out, "lost_in_transit_bytes", net.lost_in_transit_bytes);
    append_field(out, "residual_bytes", net.residual_bytes);
    out += "\"per_node\":[";
    bool first_row = true;
    for (const NodeNetworkOutcome& row : net.nodes) {
      if (!first_row) out += ',';
      first_row = false;
      out += '{';
      append_uint_field(out, "node", row.node_index);
      append_field(out, "generated_bytes", row.generated_bytes);
      append_field(out, "origin_delivered_bytes", row.origin_delivered_bytes);
      append_field(out, "dropped_bytes", row.dropped_bytes);
      append_field(out, "pickup_bytes", row.pickup_bytes);
      append_field(out, "deposit_bytes", row.deposit_bytes);
      append_field(out, "max_store_bytes", row.max_store_bytes);
      append_field(out, "mean_store_bytes", row.mean_store_bytes);
      append_uint_field(out, "hops_to_sink", row.hops_to_sink,
                        /*comma=*/false);
      out += '}';
    }
    out += "]}";
  }
  if (outcome.resilience.has_value()) {
    const fault::ResilienceOutcome& res = *outcome.resilience;
    out += ",\"resilience\":{";
    append_uint_field(out, "detections_lost", res.probing.detections_lost);
    append_uint_field(out, "spurious_detections",
                      res.probing.spurious_detections);
    append_uint_field(out, "transfers_aborted", res.probing.transfers_aborted);
    append_uint_field(out, "crashes", res.probing.crashes);
    append_uint_field(out, "reconvergence_epochs",
                      res.probing.reconvergence_epochs);
    append_uint_field(out, "reconvergences", res.probing.reconvergences);
    append_uint_field(out, "handoffs_lost", res.collection.handoffs_lost);
    append_uint_field(out, "handoffs_retried",
                      res.collection.handoffs_retried);
    append_uint_field(out, "handoffs_abandoned",
                      res.collection.handoffs_abandoned);
    append_field(out, "delivery_ratio_under_loss",
                 res.delivery_ratio_under_loss, /*comma=*/false);
    out += '}';
  }
  out += '}';
  return out;
}

DeploymentConfig make_fleet_deployment_config(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    double phi_max_s, std::size_t epochs, std::uint64_t seed) {
  if (!(std::isfinite(phi_max_s) && phi_max_s >= 0.0)) {
    throw std::invalid_argument(
        "make_fleet_deployment_config: phi_max_s must be finite and >= 0");
  }
  DeploymentConfig config;
  config.node.ton = sim::Duration::seconds(scenario.snip.ton_s);
  config.node.epoch = spec.flow_profile.epoch();
  config.node.budget_limit = sim::Duration::seconds(phi_max_s);
  config.node.sensing_rate_bps =
      scenario.sensing_rate_for_target(spec.zeta_target_s);
  config.link = scenario.link;
  config.epochs = epochs;
  config.seed = seed;
  return config;
}

}  // namespace snipr::deploy
