#include "snipr/deploy/fleet_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "snipr/contact/trace_replay.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/trace/trace_catalog.hpp"
#include "fleet_node.hpp"

namespace snipr::deploy {
namespace {

/// Simulate nodes [begin, end), one at a time (fleet_node.hpp), and
/// write their outcomes into the matching slots of `out` (disjoint
/// across shards, so shard workers never touch the same slot). When
/// `probed` is non-null, each node's probed-contact log is exported the
/// same way: the input of the store-and-forward collection pass.
void run_shard(std::vector<contact::ContactSchedule>& schedules,
               const std::vector<sim::Rng>& node_rngs,
               const SchedulerFactory& make_scheduler,
               const DeploymentConfig& config, std::size_t begin,
               std::size_t end, std::vector<NodeOutcome>& out,
               std::vector<std::vector<node::ProbedContactRecord>>* probed,
               fault::FaultPlan* faults) {
  const FleetNodeEnv env{
      make_scheduler, config, fleet_node_config(config, probed != nullptr),
      config.node.epoch * static_cast<std::int64_t>(config.epochs)};
  // One struct-of-arrays hot-state block for the whole shard.
  node::NodeBlock block{end - begin};
  for (std::size_t i = begin; i < end; ++i) {
    out[i] = run_fleet_node(env, i, std::move(schedules[i]), node_rngs[i],
                            block, i - begin,
                            faults != nullptr ? &faults->node(i) : nullptr,
                            probed != nullptr ? &(*probed)[i] : nullptr)
                 .row;
  }
}

/// Heterogeneous trace workload: node i replays the catalog trace,
/// phase-rotated by i * stagger within the trace span and jittered from
/// its own RNG stream. Streams are forked from `root` in node order
/// before any partitioning, so the schedules — like everything else —
/// are independent of the shard and thread counts.
std::vector<contact::ContactSchedule> build_trace_schedules(
    const TraceWorkload& workload, std::size_t nodes, sim::Duration horizon,
    sim::Rng& root) {
  const trace::TraceEntry& entry =
      trace::TraceCatalog::instance().at(workload.trace);
  const std::vector<contact::Contact> base =
      trace::TraceCatalog::load(entry, workload.data_dir);
  // Tile at the trace's own recorded epoch — the flow profile's epoch
  // governs the horizon and the nodes' slot grids, not the replay.
  const sim::Duration period = entry.epoch;
  std::vector<contact::ContactSchedule> schedules;
  schedules.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    contact::TraceReplayConfig config;
    config.period = period;
    config.offset =
        sim::Duration::seconds(workload.stagger_s * static_cast<double>(i));
    config.jitter_stddev_s = workload.jitter_stddev_s;
    contact::TraceReplayProcess process{base, config};
    sim::Rng rng = root.fork();
    schedules.emplace_back(contact::materialize(process, horizon, rng));
  }
  return schedules;
}

}  // namespace

DeploymentOutcome FleetEngine::run_with_probes(
    std::vector<contact::ContactSchedule> schedules,
    const SchedulerFactory& make_scheduler, const FleetConfig& config,
    std::vector<std::vector<node::ProbedContactRecord>>* probed,
    fault::FaultPlan* faults) const {
  if (schedules.empty()) {
    throw std::invalid_argument("FleetEngine: no schedules");
  }
  if (!make_scheduler) {
    throw std::invalid_argument("FleetEngine: scheduler factory required");
  }

  const std::size_t n = schedules.size();
  // Fork every node stream up front, in node order, from one root: node
  // i's stream is a pure function of (seed, i), independent of how the
  // fleet is partitioned below.
  sim::Rng root{config.deployment.seed};
  std::vector<sim::Rng> node_rngs;
  node_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) node_rngs.push_back(root.fork());

  std::size_t shards = config.shards;
  if (shards == 0) {
    // Default: one shard per worker for parallelism, but never fewer
    // than one per ~16 nodes: small shards keep the pool's workers
    // evenly loaded to the end of the run. Results never depend on the
    // partition, since every node runs in its own event loop anyway.
    shards = std::max(core::ThreadPool::hardware_threads(), n / 16);
  }
  shards = std::min(shards, n);

  DeploymentOutcome outcome;
  outcome.nodes.resize(n);
  if (probed != nullptr) probed->resize(n);
  const core::ThreadPool pool{
      std::min(config.threads == 0 ? core::ThreadPool::hardware_threads()
                                   : config.threads,
               shards)};
  pool.parallel_for(shards, [&](std::size_t s) {
    // Contiguous balanced partition: shard s owns [n·s/S, n·(s+1)/S).
    const std::size_t begin = n * s / shards;
    const std::size_t end = n * (s + 1) / shards;
    run_shard(schedules, node_rngs, make_scheduler, config.deployment, begin,
              end, outcome.nodes, probed, faults);
  });

  finalize_outcome(outcome);
  if (faults != nullptr) {
    fault::ResilienceOutcome resilience;
    resilience.probing = faults->merged_node_counters();
    outcome.resilience = resilience;
  }
  return outcome;
}

DeploymentOutcome FleetEngine::run(
    std::vector<contact::ContactSchedule> schedules,
    const SchedulerFactory& make_scheduler, const FleetConfig& config,
    const fault::FaultSpec* faults) const {
  if (faults == nullptr || !faults->enabled()) {
    return run_with_probes(std::move(schedules), make_scheduler, config,
                           nullptr, nullptr);
  }
  fault::FaultPlan plan{*faults, schedules.size()};
  return run_with_probes(std::move(schedules), make_scheduler, config, nullptr,
                         &plan);
}

DeploymentOutcome FleetEngine::run(const core::RoadsideScenario& scenario,
                                   const FleetSpec& spec,
                                   const FleetConfig& config) const {
  if (spec.nodes == 0) {
    throw std::invalid_argument("FleetEngine: spec needs at least one node");
  }

  // The determinism contract, shared by both workload kinds: reserve the
  // per-node forks first (the schedules overload will fork the identical
  // streams from the same seed), so every auxiliary stream drawn from
  // the advanced root — the shared vehicle flow, the exit draws, or the
  // per-node trace replay streams — overlaps no node stream.
  sim::Rng root{config.deployment.seed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();
  const sim::Duration horizon =
      spec.flow_profile.epoch() *
      static_cast<std::int64_t>(config.deployment.epochs);
  const double phi_max_s = config.deployment.node.budget_limit.to_seconds();
  const SchedulerFactory factory = [&](std::size_t) {
    return core::make_scheduler(scenario, spec.strategy, spec.zeta_target_s,
                                phi_max_s, spec.exploration);
  };

  if (const TraceWorkload* trace = spec.trace_workload()) {
    if (spec.routing.has_value()) {
      throw std::invalid_argument(
          "FleetEngine: store-and-forward routing needs a road workload "
          "(a trace replay has no vehicle identity to ferry data with)");
    }
    return run(build_trace_schedules(*trace, spec.nodes, horizon, root),
               factory, config, spec.faults.get());
  }

  const RoadWorkload& road = *spec.road_workload();
  if (road.spacing_m <= 0.0 || road.range_m <= 0.0) {
    throw std::invalid_argument(
        "FleetEngine: spacing and range must be positive");
  }

  VehicleFlow flow;
  flow.profile = spec.flow_profile;
  flow.jitter = road.jitter;
  if (road.speed_stddev_mps > 0.0) {
    flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
        road.speed_mean_mps, road.speed_stddev_mps, road.speed_min_mps);
  } else {
    flow.speed_mps =
        std::make_unique<sim::FixedDistribution>(road.speed_mean_mps);
  }
  std::vector<VehicleEntry> vehicles =
      materialize_vehicles(flow, horizon, root);

  std::vector<double> positions;
  positions.reserve(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    positions.push_back(road.first_position_m +
                        road.spacing_m * static_cast<double>(i));
  }
  const double road_end = positions.back() + road.range_m;

  // Early exits, drawn from the root *after* the flow so a pure
  // through-flow (through_fraction == 1, no draws) leaves every stream —
  // and therefore every existing golden — byte-identical.
  if (road.through_fraction < 1.0) {
    if (road.through_fraction < 0.0) {
      throw std::invalid_argument(
          "FleetEngine: through_fraction must be in [0, 1]");
    }
    for (VehicleEntry& v : vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }

  if (!spec.routing.has_value()) {
    return run(build_road_schedules(positions, road.range_m, vehicles),
               factory, config, spec.faults.get());
  }

  // --- Store-and-forward: run the probing layer with probed-contact
  // export, map each probed contact back to its carrier through the
  // contact plan, and hand the sessions to the collection pass. The
  // pass is single-threaded over shard-independent inputs, so the v2
  // output keeps the any-shard-count byte-identity contract.
  RoadContactPlan plan =
      build_road_contact_plan(positions, road.range_m, vehicles);
  std::vector<std::vector<sim::TimePoint>> arrivals(spec.nodes);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    arrivals[i].reserve(plan.schedules[i].size());
    for (const contact::Contact& c : plan.schedules[i].contacts()) {
      arrivals[i].push_back(c.arrival);
    }
  }

  const fault::FaultSpec* fault_spec = spec.faults.get();
  const bool faults_on = fault_spec != nullptr && fault_spec->enabled();
  std::unique_ptr<fault::FaultPlan> fault_plan;
  if (faults_on) {
    fault_plan = std::make_unique<fault::FaultPlan>(*fault_spec, spec.nodes);
  }

  std::vector<std::vector<node::ProbedContactRecord>> probed;
  DeploymentOutcome outcome =
      run_with_probes(std::move(plan.schedules), factory, config, &probed,
                      fault_plan.get());

  CollectionInput input;
  input.routing = *spec.routing;
  input.sensing_rate_bps = config.deployment.node.sensing_rate_bps;
  input.data_rate_bps = config.deployment.link.data_rate_bps;
  input.range_m = road.range_m;
  input.positions_m = std::move(positions);
  input.vehicles = std::move(vehicles);
  input.horizon_s = horizon.to_seconds();
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    for (const node::ProbedContactRecord& record : probed[i]) {
      const auto it = std::lower_bound(arrivals[i].begin(), arrivals[i].end(),
                                       record.contact.arrival);
      if (it == arrivals[i].end() || *it != record.contact.arrival) {
        throw std::logic_error(
            "FleetEngine: probed contact missing from the contact plan");
      }
      const std::size_t idx =
          static_cast<std::size_t>(it - arrivals[i].begin());
      CollectionSession session;
      session.node = static_cast<std::uint32_t>(i);
      session.vehicle = plan.carriers[i][idx];
      session.probe_time_s = record.probe_time.to_seconds();
      session.departure_s = record.contact.departure().to_seconds();
      input.sessions.push_back(session);
    }
  }
  // Collection-layer faults consume the plan's dedicated stream (forked
  // after every node stream) inside the single-threaded pass, so the
  // draw order is the pass's own deterministic event order.
  std::unique_ptr<fault::CollectionFaultState> collection_faults;
  if (faults_on && fault_spec->collection.enabled()) {
    collection_faults = std::make_unique<fault::CollectionFaultState>(
        fault_spec->collection, fault_plan->collection_stream(),
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
  append_field(out, "total_zeta_s", outcome.total_zeta_s);
  append_field(out, "total_phi_s", outcome.total_phi_s);
  append_field(out, "total_bytes", outcome.total_bytes);
  append_field(out, "mean_zeta_s", outcome.mean_zeta_s);
  append_field(out, "zeta_variance", outcome.zeta_variance);
  append_field(out, "zeta_stddev_s", outcome.zeta_stddev_s);
  append_field(out, "min_zeta_s", outcome.min_zeta_s);
  append_field(out, "max_zeta_s", outcome.max_zeta_s);
  append_field(out, "zeta_fairness", outcome.zeta_fairness);
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
