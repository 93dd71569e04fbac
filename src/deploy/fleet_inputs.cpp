#include "fleet_inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "snipr/contact/trace_replay.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/node/lone_node.hpp"
#include "snipr/trace/trace_catalog.hpp"

namespace snipr::deploy {
namespace {

const char* engine_name(FleetOutput output) {
  return output == FleetOutput::kRows ? "FleetEngine" : "run_streaming_fleet";
}

/// The one FleetSpec validator. Every message names the engine and the
/// offending field.
void validate(const FleetSpec& spec, const DeploymentConfig& deployment,
              FleetOutput output) {
  const std::string engine = engine_name(output);
  const auto reject = [&engine](const char* what) {
    throw std::invalid_argument(engine + ": " + what);
  };
  if (spec.nodes == 0) reject("FleetSpec::nodes must be at least 1");
  if (!(std::isfinite(spec.zeta_target_s) && spec.zeta_target_s >= 0.0)) {
    reject("FleetSpec::zeta_target_s must be finite and >= 0");
  }
  if (deployment.node.budget_limit < sim::Duration::zero()) {
    reject("DeploymentConfig::node.budget_limit must be >= 0");
  }
  if (output == FleetOutput::kSummary) {
    if (spec.routing.has_value()) {
      reject(
          "FleetSpec::routing needs the per-node session export of "
          "FleetEngine::run");
    }
    if (spec.faults != nullptr && spec.faults->enabled()) {
      reject(
          "FleetSpec::faults is enabled, but the streaming engine has no "
          "fault plane; run faulted fleets through FleetEngine::run");
    }
  }
  const RoadWorkload* road = spec.road_workload();
  if (road == nullptr) {
    if (spec.routing.has_value()) {
      reject(
          "FleetSpec::routing needs a road workload (a trace replay has no "
          "vehicle identity to ferry data with)");
    }
    return;
  }
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive(road->spacing_m)) {
    reject("RoadWorkload::spacing_m must be finite and positive");
  }
  if (!positive(road->range_m)) {
    reject("RoadWorkload::range_m must be finite and positive");
  }
  if (!(std::isfinite(road->first_position_m) &&
        road->first_position_m >= 0.0)) {
    reject("RoadWorkload::first_position_m must be finite and non-negative");
  }
  if (!(road->through_fraction >= 0.0 && road->through_fraction <= 1.0)) {
    reject("RoadWorkload::through_fraction must be in [0, 1]");
  }
}

/// What every contact source shares: the node environment, the node
/// count and the fault plan; `root` is left advanced past `nodes` forks.
/// Rejects, in `engine`'s name,
/// a run of no epochs (it would report all-zero rows as if it had run)
/// and a sensing rate no node could run at.
FleetInputs start_inputs(const char* engine, SchedulerFactory make_scheduler,
                         const FleetConfig& config, std::size_t nodes,
                         bool record_probed, const fault::FaultSpec* faults,
                         sim::Rng& root) {
  const auto reject = [engine](const char* what) {
    throw std::invalid_argument(std::string{engine} + ": " + what);
  };
  if (config.deployment.epochs == 0) {
    reject("DeploymentConfig::epochs must be > 0");
  }
  const double rate = config.deployment.node.sensing_rate_bps;
  if (!(std::isfinite(rate) && rate >= 0.0)) {
    reject("DeploymentConfig::node.sensing_rate_bps must be finite and >= 0");
  }
  FleetInputs in;
  in.make_scheduler = std::move(make_scheduler);
  in.deployment = config.deployment;
  in.deployment.node.record_probed_contacts = record_probed;
  in.horizon = config.deployment.node.epoch *
               static_cast<std::int64_t>(config.deployment.epochs);
  in.node_count = nodes;
  // Skip the `nodes` forks that once fed per-node channel streams: every
  // contact stream drawn from `root` after this point (the vehicle flow,
  // the early exits, the replay streams) starts where it always has, so
  // the recorded outputs hold.
  for (std::size_t i = 0; i < nodes; ++i) (void)root.fork();
  if (faults != nullptr && faults->enabled()) {
    in.faults = std::make_unique<fault::FaultPlan>(*faults, nodes);
  }
  return in;
}

/// Where node i sits on `road`.
double road_position_m(const RoadWorkload& road, std::size_t i) {
  return road.first_position_m + road.spacing_m * static_cast<double>(i);
}

/// Simulate node `index` of `in` alone from time zero to the horizon
/// over `schedule`, and add its row, counts and sessions to `shard`.
/// `carriers[j]` is the vehicle behind contact j; it is read only when
/// routing records probed contacts.
void run_fleet_node(const FleetInputs& in, std::size_t index,
                    contact::ContactSchedule schedule,
                    const std::vector<std::uint32_t>& carriers,
                    ShardRun& shard) {
  const std::unique_ptr<node::Scheduler> scheduler = in.make_scheduler(index);
  if (scheduler == nullptr) {
    throw std::invalid_argument("FleetEngine: factory returned null");
  }
  const auto contacts =
      std::make_shared<const contact::ContactSchedule>(std::move(schedule));
  // Node i's injector was forked in node order before partitioning, so
  // its stream, and every fault decision, is independent of the shard
  // layout; injectors are never shared, so shard workers never race.
  const node::LoneNodeRun lone = node::run_lone_node(
      *scheduler, contacts, in.deployment.link, in.deployment.node,
      in.horizon,
      in.faults != nullptr ? &in.faults->node(index) : nullptr);
  NodeOutcome& row = shard.rows.emplace_back();
  static_cast<node::NodeSummary&>(row) = node::summarize(lone);
  row.node_index = index;
  row.scheduler_name = scheduler->name();
  shard.probed_sessions += lone.probed_sessions;
  shard.events += lone.events;
  // Each probed contact becomes a session on its carrier.
  const std::vector<contact::Contact>& plan = contacts->contacts();
  for (const node::ProbedContactRecord& record : lone.probed) {
    const auto it = std::lower_bound(
        plan.begin(), plan.end(), record.contact.arrival,
        [](const contact::Contact& c, sim::TimePoint t) {
          return c.arrival < t;
        });
    if (it == plan.end() || it->arrival != record.contact.arrival) {
      throw std::logic_error(
          "FleetEngine: probed contact missing from the contact plan");
    }
    CollectionSession& session = shard.sessions.emplace_back();
    session.node = static_cast<std::uint32_t>(index);
    session.vehicle = carriers[static_cast<std::size_t>(it - plan.begin())];
    session.probe_time_s = record.probe_time.to_seconds();
    session.departure_s = record.contact.departure().to_seconds();
  }
}

/// Simulate nodes [begin, end) of `in` in node order into `shard`.
void simulate_shard(FleetInputs& in, std::size_t begin, std::size_t end,
                    ShardRun& shard) {
  if (in.road != nullptr) {
    RoadContactBuilder contacts{in.road->range_m, in.vehicles};
    // Carriers are read only to map probed contacts to sessions.
    const bool with_carriers = in.deployment.node.record_probed_contacts;
    std::vector<std::uint32_t> carriers;
    for (std::size_t i = begin; i < end; ++i) {
      contact::ContactSchedule schedule =
          contacts.next(road_position_m(*in.road, i),
                        with_carriers ? &carriers : nullptr);
      run_fleet_node(in, i, std::move(schedule), carriers, shard);
    }
  } else if (in.trace != nullptr) {
    // Node i replays the trace phase-rotated by i * stagger and jittered
    // from its own replay stream.
    sim::Rng replay_forks = in.trace_streams.before(begin);
    for (std::size_t i = begin; i < end; ++i) {
      contact::TraceReplayConfig config;
      config.period = in.trace_period;
      config.offset = sim::Duration::seconds(in.trace->stagger_s *
                                             static_cast<double>(i));
      config.jitter_stddev_s = in.trace->jitter_stddev_s;
      contact::TraceReplayProcess process{in.trace_base, config};
      sim::Rng rng = replay_forks.fork();
      run_fleet_node(in, i,
                     contact::ContactSchedule{contact::materialize(
                         process, in.contact_horizon, rng)},
                     {}, shard);
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      run_fleet_node(in, i, std::move(in.schedules[i]), {}, shard);
    }
  }
}

}  // namespace

FleetInputs build_fleet_inputs(const core::RoadsideScenario& scenario,
                               const FleetSpec& spec,
                               const FleetConfig& config, FleetOutput output) {
  validate(spec, config.deployment, output);
  // Every node runs the same plan: solve it once, here, and let the shard
  // workers only construct from it.
  core::SchedulerMaker maker = core::plan_scheduler(
      scenario, spec.strategy, spec.zeta_target_s,
      config.deployment.node.budget_limit.to_seconds(), spec.exploration);
  sim::Rng root{config.deployment.seed};
  FleetInputs in = start_inputs(
      engine_name(output),
      [maker = std::move(maker)](std::size_t) { return maker(); }, config,
      spec.nodes, spec.routing.has_value(), spec.faults.get(), root);
  in.contact_horizon = spec.flow_profile.epoch() *
                       static_cast<std::int64_t>(config.deployment.epochs);

  if (const TraceWorkload* trace = spec.trace_workload()) {
    const trace::TraceEntry& entry =
        trace::TraceCatalog::instance().at(trace->trace);
    in.trace = trace;
    in.trace_base = trace::TraceCatalog::load(entry, trace->data_dir);
    // Tile at the trace's own recorded epoch: the flow profile's epoch
    // governs the horizon and the nodes' slot grids, not the replay.
    in.trace_period = entry.epoch;
    in.trace_streams = ForkedStreams{root, spec.nodes};
    return in;
  }

  const RoadWorkload& road = *spec.road_workload();
  in.road = &road;
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
  in.vehicles = materialize_vehicles(flow, in.contact_horizon, root);
  // Early exits, drawn from the root *after* the flow, so a pure
  // through-flow (through_fraction == 1, no draws) leaves every stream
  // unchanged.
  if (road.through_fraction < 1.0) {
    const double road_end =
        road_position_m(road, spec.nodes - 1) + road.range_m;
    for (VehicleEntry& v : in.vehicles) {
      if (!root.bernoulli(road.through_fraction)) {
        v.exit_m = root.uniform(0.0, road_end);
      }
    }
  }
  return in;
}

FleetInputs prebuilt_fleet_inputs(
    std::vector<contact::ContactSchedule> schedules,
    const SchedulerFactory& make_scheduler, const FleetConfig& config,
    const fault::FaultSpec* faults) {
  if (schedules.empty()) {
    throw std::invalid_argument("FleetEngine: no schedules");
  }
  if (!make_scheduler) {
    throw std::invalid_argument("FleetEngine: scheduler factory required");
  }
  sim::Rng root{config.deployment.seed};
  // Call the caller's factory by reference: a copy would split the state
  // of a stateful one.
  FleetInputs in = start_inputs(
      "FleetEngine",
      [&make_scheduler](std::size_t i) { return make_scheduler(i); }, config,
      schedules.size(), false, faults, root);
  in.schedules = std::move(schedules);
  return in;
}

ForkedStreams::ForkedStreams(sim::Rng& parent, std::size_t count)
    : count_{count} {
  marks_.reserve((count + kStride - 1) / kStride);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kStride == 0) marks_.push_back(parent);
    (void)parent.fork();
  }
}

sim::Rng ForkedStreams::before(std::size_t i) const {
  sim::Rng parent = marks_.at(i / kStride);
  for (std::size_t k = i % kStride; k > 0; --k) (void)parent.fork();
  return parent;
}

std::vector<double> road_positions(const RoadWorkload& road,
                                   std::size_t begin, std::size_t end) {
  std::vector<double> positions;
  positions.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    positions.push_back(road_position_m(road, i));
  }
  return positions;
}

FleetPartition partition_fleet(const FleetConfig& config, std::size_t nodes) {
  const std::size_t hardware = core::ThreadPool::hardware_threads();
  const std::size_t workers = config.threads == 0 ? hardware : config.threads;
  // Default: one shard per hardware thread for parallelism, but never
  // fewer than one per ~16 nodes: small shards keep the pool's workers
  // evenly loaded to the end of the run. The count is rounded up to a
  // multiple of the workers, so no round of shards leaves a worker idle
  // (96 nodes on 4 workers: 8 shards of 12, not 6 of 16). Results never
  // depend on the partition, since every node runs in its own event loop.
  std::size_t shards = config.shards;
  if (shards == 0) {
    shards = std::max(hardware, nodes / 16);
    shards += (workers - shards % workers) % workers;
  }
  shards = std::min(shards, nodes);
  return {nodes, shards, std::min(workers, shards)};
}

void run_shards(FleetInputs& in, const FleetPartition& partition,
                std::size_t first, std::size_t count,
                const std::function<void(std::size_t, ShardRun&)>& commit) {
  // Shard first + k is simulated into slot k % window, which its commit
  // releases to shard first + k + window.
  const std::size_t window = 2 * partition.threads;
  std::vector<ShardRun> slots(std::min(window, count));
  core::ThreadPool{partition.threads}.ordered_for(
      count, window,
      [&](std::size_t k) {
        const std::size_t s = first + k;
        ShardRun& shard = slots[k % window];
        shard.rows.clear();
        shard.sessions.clear();
        shard.probed_sessions = shard.events = 0;
        simulate_shard(in, partition.begin(s), partition.begin(s + 1), shard);
      },
      [&](std::size_t k) { commit(first + k, slots[k % window]); });
}

}  // namespace snipr::deploy
