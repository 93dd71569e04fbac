#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "host.hpp"
#include "snipr/core/batch_runner.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/core/thread_pool.hpp"
#include "snipr/deploy/collection.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/fleet_streaming.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/node_block.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/distributions.hpp"
#include "snipr/sim/simulator.hpp"

namespace snipbench {
namespace {

using namespace snipr;

// --- Shared pieces -------------------------------------------------------

/// The fleet engines' default shard count.
std::size_t default_shards(std::size_t nodes) {
  return std::min(std::max(core::ThreadPool::hardware_threads(), nodes / 16),
                  nodes);
}

/// A shard count different from the engines' default, and never
/// smaller, so the partition check cannot raise the peak memory a run
/// reports.
std::size_t alternate_shards(std::size_t nodes) {
  const std::size_t base = default_shards(nodes);
  const std::size_t alt = base + base / 4 + 1;
  return alt <= nodes ? alt : std::max<std::size_t>(base - 1, 1);
}

std::size_t alternate_threads(std::size_t threads) {
  return threads > 1 ? threads - 1 : 2;
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void check_finite(double zeta_s, double phi_s, const std::string& what,
                  RunOutput& out) {
  if (!std::isfinite(zeta_s) || !std::isfinite(phi_s)) {
    out.failures.push_back(what + ": non-finite zeta or phi");
  }
}

/// generated = delivered + dropped + expired + lost_in_transit + residual,
/// to 1e-9 relative.
void check_conservation(const deploy::NetworkOutcome& net, RunOutput& out) {
  const double accounted = net.delivered_bytes + net.dropped_bytes +
                           net.expired_bytes + net.lost_in_transit_bytes +
                           net.residual_bytes;
  const double tolerance = 1e-9 * std::max(net.generated_bytes, 1.0);
  if (!(std::abs(net.generated_bytes - accounted) <= tolerance)) {
    out.failures.push_back("network: generated bytes not conserved");
  }
}

bool bit_equal(const deploy::NetworkOutcome& a,
               const deploy::NetworkOutcome& b) {
  const bool scalars =
      same_bits(a.generated_bytes, b.generated_bytes) &&
      same_bits(a.delivered_bytes, b.delivered_bytes) &&
      same_bits(a.delivery_ratio, b.delivery_ratio) &&
      same_bits(a.latency_mean_s, b.latency_mean_s) &&
      same_bits(a.latency_p50_s, b.latency_p50_s) &&
      same_bits(a.latency_p90_s, b.latency_p90_s) &&
      same_bits(a.latency_p99_s, b.latency_p99_s) &&
      same_bits(a.mean_hops, b.mean_hops) && a.max_hops == b.max_hops &&
      a.pickups == b.pickups && a.deposits == b.deposits &&
      a.deliveries == b.deliveries &&
      same_bits(a.pickup_bytes, b.pickup_bytes) &&
      same_bits(a.deposit_bytes, b.deposit_bytes) &&
      same_bits(a.dropped_bytes, b.dropped_bytes) &&
      same_bits(a.expired_bytes, b.expired_bytes) &&
      same_bits(a.lost_in_transit_bytes, b.lost_in_transit_bytes) &&
      same_bits(a.residual_bytes, b.residual_bytes);
  if (!scalars || a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const deploy::NodeNetworkOutcome& x = a.nodes[i];
    const deploy::NodeNetworkOutcome& y = b.nodes[i];
    if (x.node_index != y.node_index ||
        !same_bits(x.generated_bytes, y.generated_bytes) ||
        !same_bits(x.origin_delivered_bytes, y.origin_delivered_bytes) ||
        !same_bits(x.dropped_bytes, y.dropped_bytes) ||
        !same_bits(x.pickup_bytes, y.pickup_bytes) ||
        !same_bits(x.deposit_bytes, y.deposit_bytes) ||
        !same_bits(x.max_store_bytes, y.max_store_bytes) ||
        !same_bits(x.mean_store_bytes, y.mean_store_bytes) ||
        x.hops_to_sink != y.hops_to_sink) {
      return false;
    }
  }
  return true;
}

/// Scheduler counters plus sim.ns_per_wakeup: the CPU seconds the engine
/// spent outside scheduler calls and scheduler construction, per wakeup.
void record_scheduler(LayerFigures& layers, const SchedulerCounts& c,
                      double engine_cpu_s, double make_scheduler_s) {
  layers.count("core.scheduler.wakeup_calls", c.wakeup_calls);
  layers.count("core.scheduler.probe_calls", c.probe_calls);
  layers.count("core.scheduler.detections", c.detections);
  layers.count("core.scheduler.epoch_calls", c.epoch_calls);
  layers.set("core.scheduler.detections_per_probe",
             c.probe_calls > 0 ? static_cast<double>(c.detections) /
                                     static_cast<double>(c.probe_calls)
                               : 0.0);
  layers.set("core.scheduler.wakeup_s", static_cast<double>(c.wakeup_ns) * 1e-9);
  layers.set("core.scheduler.epoch_s", static_cast<double>(c.epoch_ns) * 1e-9);
  if (c.wakeup_calls > 0) {
    layers.set("sim.ns_per_wakeup",
               (engine_cpu_s - c.self_s() - make_scheduler_s) * 1e9 /
                   static_cast<double>(c.wakeup_calls));
  }
}

// --- Fleet workloads -----------------------------------------------------

/// Traffic seeds: `snipr_cli fleet`'s default, and bench_deployment_scale's.
constexpr std::uint64_t kCliSeed = 1;
constexpr std::uint64_t kScaleBenchSeed = 11;

/// The road inputs `FleetEngine::run(scenario, spec, config)` materialises,
/// rebuilt through the public contact API with the engine's stream
/// discipline: node streams are the first `nodes` forks of root(seed), and
/// the vehicle flow and early-exit draws come from the root after them.
/// The traced runs' byte-identity check catches any drift from the engine.
struct RoadInputs {
  std::vector<double> positions_m;
  std::vector<deploy::VehicleEntry> vehicles;
};

class FleetWorkload : public Workload {
 public:
  [[nodiscard]] double node_days() const override {
    return static_cast<double>(spec_.nodes) *
           static_cast<double>(deployment_.epochs);
  }
  [[nodiscard]] double runs() const override { return 1.0; }
  [[nodiscard]] Partition default_partition() const override {
    return {options_.threads, 0};
  }
  [[nodiscard]] Partition alternate_partition() const override {
    return {alternate_threads(options_.threads),
            alternate_shards(spec_.nodes)};
  }

 protected:
  FleetWorkload(std::string_view entry_name, const WorkloadOptions& options)
      : options_{options} {
    const core::CatalogEntry& entry =
        core::ScenarioCatalog::instance().at(entry_name);
    scenario_ = entry.scenario;
    spec_ = *entry.fleet;
    phi_max_s_ = entry.phi_max_s;
  }

  /// Finish the set-up once the subclass has shaped the spec.
  ///
  /// The traffic is one fixed draw per workload (`traffic_seed`): every
  /// node of a fleet sees the same few hundred to thousand vehicles, so a
  /// fresh draw per benchmark seed moves ρ and the delivery ratio by
  /// 5-25%, more than any bound could absorb. The benchmark seed instead
  /// slides the whole road by a fraction of the node spacing, which
  /// changes every contact's timing against the nodes' probe cycles.
  /// Seed 0 is the catalog's own road.
  void configure(std::size_t epochs, std::uint64_t traffic_seed) {
    deploy::RoadWorkload road = *spec_.road_workload();
    // frac(seed / golden ratio) in 64-bit fixed point: consecutive seeds
    // spread evenly over [0, 1).
    const double phase =
        static_cast<double>((options_.seed * 0x9E3779B97F4A7C15ULL) >> 11) *
        0x1p-53;
    road.first_position_m += phase * road.spacing_m;
    spec_.workload = road;
    deployment_ = deploy::make_fleet_deployment_config(
        scenario_, spec_, phi_max_s_, epochs, traffic_seed);
  }

  [[nodiscard]] deploy::FleetConfig config(const Partition& p) const {
    deploy::FleetConfig c;
    c.deployment = deployment_;
    c.threads = p.threads;
    c.shards = p.shards;
    return c;
  }

  [[nodiscard]] const deploy::RoadWorkload& road() const {
    return *spec_.road_workload();
  }

  [[nodiscard]] sim::Duration horizon() const {
    return spec_.flow_profile.epoch() *
           static_cast<std::int64_t>(deployment_.epochs);
  }

  /// Sensed bytes per node over one epoch.
  [[nodiscard]] double bytes_per_node_epoch() const {
    return deployment_.node.sensing_rate_bps *
           spec_.flow_profile.epoch().to_seconds();
  }

  [[nodiscard]] MakeScheduler scheduler_maker() const {
    return [this] {
      return core::make_scheduler(scenario_, spec_.strategy,
                                  spec_.zeta_target_s,
                                  deployment_.node.budget_limit.to_seconds(),
                                  spec_.exploration);
    };
  }

  [[nodiscard]] std::string make_scheduler_span() const {
    return "model.make_scheduler." +
           std::string{core::strategy_id(spec_.strategy)};
  }

  RoadInputs materialize_road(Tracer& tracer, int parent) const {
    const SpanScope span{tracer, "contact.materialize_vehicles", parent};
    sim::Rng root{deployment_.seed};
    for (std::size_t i = 0; i < spec_.nodes; ++i) (void)root.fork();
    deploy::VehicleFlow flow;
    flow.profile = spec_.flow_profile;
    flow.jitter = road().jitter;
    if (road().speed_stddev_mps > 0.0) {
      flow.speed_mps = std::make_unique<sim::TruncatedNormalDistribution>(
          road().speed_mean_mps, road().speed_stddev_mps,
          road().speed_min_mps);
    } else {
      flow.speed_mps =
          std::make_unique<sim::FixedDistribution>(road().speed_mean_mps);
    }
    RoadInputs in;
    in.vehicles = deploy::materialize_vehicles(flow, horizon(), root);
    in.positions_m.reserve(spec_.nodes);
    for (std::size_t i = 0; i < spec_.nodes; ++i) {
      in.positions_m.push_back(road().first_position_m +
                               road().spacing_m * static_cast<double>(i));
    }
    if (road().through_fraction < 1.0) {
      const double road_end = in.positions_m.back() + road().range_m;
      for (deploy::VehicleEntry& v : in.vehicles) {
        if (!root.bernoulli(road().through_fraction)) {
          v.exit_m = root.uniform(0.0, road_end);
        }
      }
    }
    return in;
  }

  /// End-to-end figures of a materialised fleet outcome. On a single-hop
  /// fleet the mobile node is the sink, so the delivery ratio is uploaded
  /// over sensed bytes.
  [[nodiscard]] RunOutput output(const deploy::DeploymentOutcome& o,
                                 std::string json) const {
    RunOutput out;
    out.json = std::move(json);
    out.phi_s = o.total_phi_s;
    out.zeta_s = o.total_zeta_s;
    double shortfall = 0.0;
    for (const deploy::NodeOutcome& n : o.nodes) {
      check_finite(n.mean_zeta_s, n.mean_phi_s,
                   "node " + std::to_string(n.node_index), out);
      shortfall += std::max(0.0, spec_.zeta_target_s - n.mean_zeta_s);
    }
    if (!o.nodes.empty()) {
      out.zeta_shortfall_s = shortfall / static_cast<double>(o.nodes.size());
    }
    if (o.network.has_value()) {
      out.delivery_ratio = o.network->delivery_ratio;
      check_conservation(*o.network, out);
    } else {
      out.delivery_ratio =
          o.total_bytes /
          (static_cast<double>(o.nodes.size()) * bytes_per_node_epoch());
    }
    return out;
  }

  /// The materialising engine, untraced: the user's `snipr_cli fleet`.
  [[nodiscard]] RunOutput run_materialising(const Partition& p) const {
    const deploy::DeploymentOutcome o =
        deploy::FleetEngine{}.run(scenario_, spec_, config(p));
    return output(o, deploy::FleetEngine::to_json(o));
  }

  /// FleetEngine::run's schedules overload with decorated schedulers, as
  /// span "sim.fleet_run", plus its scheduler counters.
  deploy::DeploymentOutcome run_sim_traced(
      std::vector<contact::ContactSchedule> schedules, Tracer& tracer,
      int parent, LayerFigures& layers) const {
    SchedulerTally tally;
    deploy::DeploymentOutcome o;
    double cpu_s = 0.0;
    {
      const SpanScope span{tracer, "sim.fleet_run", parent};
      const MakeScheduler make = traced_maker(
          scheduler_maker(), tracer, make_scheduler_span(), span.id(), tally);
      const double cpu0 = process_cpu_s();
      o = deploy::FleetEngine{}.run(
          std::move(schedules), [&make](std::size_t) { return make(); },
          config(default_partition()), spec_.faults.get());
      cpu_s = process_cpu_s() - cpu0;
    }
    record_scheduler(layers, tally.total(), cpu_s,
                     tracer.total_s(make_scheduler_span()));
    return o;
  }

  static void record_contacts(
      LayerFigures& layers, const RoadInputs& in,
      const std::vector<contact::ContactSchedule>& schedules) {
    std::uint64_t contacts = 0;
    for (const contact::ContactSchedule& s : schedules) contacts += s.size();
    layers.count("contact.contacts", contacts);
    layers.count("contact.vehicles", in.vehicles.size());
  }

  WorkloadOptions options_;
  core::RoadsideScenario scenario_;
  deploy::FleetSpec spec_;
  double phi_max_s_{0.0};
  deploy::DeploymentConfig deployment_;
};

/// Catalog `fleet-urban-grid` scaled to 1024 nodes x 14 epochs, adaptive
/// SNIP-RH exploring with UCB: the probing loop and the learner.
class UrbanAdaptive final : public FleetWorkload {
 public:
  explicit UrbanAdaptive(const WorkloadOptions& options)
      : FleetWorkload{"fleet-urban-grid", options} {
    spec_.nodes = options.small ? 48 : 1024;
    spec_.exploration.kind = core::ExplorationPolicyKind::kUcb;
    configure(options.small ? 4 : 14, kCliSeed);
  }

  [[nodiscard]] RunOutput run(const Partition& p) const override {
    return run_materialising(p);
  }

  [[nodiscard]] TracedOutput run_traced(Tracer& tracer,
                                        int parent) const override {
    TracedOutput t;
    const double start = wall_s();
    const RoadInputs in = materialize_road(tracer, parent);
    std::vector<contact::ContactSchedule> schedules;
    {
      const SpanScope span{tracer, "contact.build_road_schedules", parent};
      schedules = deploy::build_road_schedules(in.positions_m, road().range_m,
                                               in.vehicles);
    }
    record_contacts(t.layers, in, schedules);
    const deploy::DeploymentOutcome o =
        run_sim_traced(std::move(schedules), tracer, parent, t.layers);
    std::string json;
    {
      const SpanScope span{tracer, "deploy.to_json", parent};
      json = deploy::FleetEngine::to_json(o);
    }
    t.mirror_s = wall_s() - start;
    t.layers.count("deploy.json_bytes", json.size());
    t.output = output(o, std::move(json));
    return t;
  }
};

/// Catalog `chaos-lossy-collection` x 52 epochs: SNIP-OPT probing, then
/// store-and-forward collection over the carrier-tagged contact plan with
/// lossy hand-offs, emitted as v3 JSON.
class RelayChaos final : public FleetWorkload {
 public:
  explicit RelayChaos(const WorkloadOptions& options)
      : FleetWorkload{"chaos-lossy-collection", options} {
    // A fresh fault draw per benchmark seed; seed 0 is the catalog's plan.
    auto faults = std::make_shared<fault::FaultSpec>(*spec_.faults);
    faults->seed += options.seed;
    spec_.faults = std::move(faults);
    configure(options.small ? 4 : 52, kCliSeed);
  }

  [[nodiscard]] RunOutput run(const Partition& p) const override {
    return run_materialising(p);
  }

  [[nodiscard]] TracedOutput run_traced(Tracer& tracer,
                                        int parent) const override {
    TracedOutput t;
    const double start = wall_s();
    const RoadInputs in = materialize_road(tracer, parent);
    deploy::RoadContactPlan plan;
    {
      const SpanScope span{tracer, "contact.build_road_contact_plan", parent};
      plan = deploy::build_road_contact_plan(in.positions_m, road().range_m,
                                             in.vehicles);
    }
    record_contacts(t.layers, in, plan.schedules);
    deploy::DeploymentOutcome o =
        run_sim_traced(plan.schedules, tracer, parent, t.layers);

    // The engine keeps its session list private; rebuild it so the
    // collection pass can be timed on its own.
    const fault::FaultSpec& fault_spec = *spec_.faults;
    fault::FaultPlan fault_plan{fault_spec, spec_.nodes};
    double rebuild_s = wall_s();
    const std::vector<deploy::CollectionSession> sessions =
        rebuild_sessions(plan, fault_plan, tracer, parent);
    rebuild_s = wall_s() - rebuild_s;

    deploy::CollectionInput input;
    input.routing = *spec_.routing;
    input.sensing_rate_bps = deployment_.node.sensing_rate_bps;
    input.data_rate_bps = deployment_.link.data_rate_bps;
    input.range_m = road().range_m;
    input.positions_m = in.positions_m;
    input.vehicles = in.vehicles;
    input.sessions = sessions;
    input.horizon_s = horizon().to_seconds();
    fault::CollectionFaultState collection_faults{
        fault_spec.collection, fault_plan.collection_stream(),
        deployment_.link.data_rate_bps};
    if (fault_spec.collection.enabled()) input.faults = &collection_faults;
    deploy::NetworkOutcome network;
    {
      const SpanScope span{tracer, "deploy.run_collection", parent};
      network = deploy::run_collection(input);
    }
    o.network = network;
    if (o.resilience.has_value()) {
      o.resilience->collection = collection_faults.counters();
      o.resilience->delivery_ratio_under_loss = network.delivery_ratio;
    }
    std::string json;
    {
      const SpanScope span{tracer, "deploy.to_json", parent};
      json = deploy::FleetEngine::to_json(o);
    }
    t.mirror_s = wall_s() - start - rebuild_s;
    t.layers.count("deploy.json_bytes", json.size());
    t.output = output(o, std::move(json));

    t.layers.count("deploy.collection.sessions", sessions.size());
    t.layers.count("deploy.collection.pickups", network.pickups);
    t.layers.count("deploy.collection.deposits", network.deposits);
    t.layers.count("deploy.collection.deliveries", network.deliveries);
    if (o.resilience.has_value()) {
      const fault::ResilienceOutcome& r = *o.resilience;
      t.layers.count("fault.detections_lost", r.probing.detections_lost);
      t.layers.count("fault.spurious_detections",
                     r.probing.spurious_detections);
      t.layers.count("fault.transfers_aborted", r.probing.transfers_aborted);
      t.layers.count("fault.crashes", r.probing.crashes);
      t.layers.count("fault.handoffs_lost", r.collection.handoffs_lost);
      t.layers.count("fault.handoffs_retried", r.collection.handoffs_retried);
      t.layers.count("fault.handoffs_abandoned",
                     r.collection.handoffs_abandoned);
    }

    // The engine's own network section is the reference: a collection
    // time over a session list that differs from the engine's would time
    // some other pass, so it is reported as unmeasured (-1) instead.
    deploy::DeploymentOutcome engine;
    {
      const SpanScope span{tracer, "check.engine_reference", parent};
      engine = deploy::FleetEngine{}.run(scenario_, spec_,
                                         config(default_partition()));
    }
    if (!engine.network.has_value() || !bit_equal(*engine.network, network)) {
      t.layers.set("deploy.collection_s", -1.0);
    }
    return t;
  }

 private:
  /// The probed sessions FleetEngine::run hands its collection pass,
  /// rebuilt from the public sim/radio/node/fault API: one simulator over
  /// the whole fleet (outcomes do not depend on the partition), node
  /// streams forked in node order, node i on fault stream i, and each
  /// probed contact mapped to its carrier through the contact plan.
  std::vector<deploy::CollectionSession> rebuild_sessions(
      const deploy::RoadContactPlan& plan, fault::FaultPlan& faults,
      Tracer& tracer, int parent) const {
    const SpanScope span{tracer, "check.rebuild_sessions", parent};
    const std::size_t n = spec_.nodes;
    sim::Rng root{deployment_.seed};
    sim::Simulator simulator{deployment_.seed};
    node::NodeBlock block{n};
    node::SensorNodeConfig node_config = deployment_.node;
    node_config.expected_epochs = deployment_.epochs;
    node_config.record_epoch_history = false;
    node_config.record_probed_contacts = true;

    struct NodeWorld {
      std::unique_ptr<radio::Channel> channel;
      std::unique_ptr<node::MobileNode> sink;
      std::unique_ptr<node::Scheduler> scheduler;
      std::unique_ptr<node::SensorNode> sensor;
    };
    std::vector<NodeWorld> worlds(n);
    const MakeScheduler make = scheduler_maker();
    for (std::size_t i = 0; i < n; ++i) {
      NodeWorld& w = worlds[i];
      w.channel = std::make_unique<radio::Channel>(
          plan.schedules[i], deployment_.link, root.fork());
      w.sink = std::make_unique<node::MobileNode>();
      w.scheduler = make();
      w.sensor = std::make_unique<node::SensorNode>(
          simulator, *w.channel, *w.sink, *w.scheduler, node_config, block, i);
      w.sensor->attach_faults(&faults.node(i));
      w.sensor->start();
    }
    simulator.run_until(sim::TimePoint::zero() + horizon());

    std::vector<deploy::CollectionSession> sessions;
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<contact::Contact>& contacts =
          plan.schedules[i].contacts();
      for (const node::ProbedContactRecord& record :
           worlds[i].sensor->probed_contacts()) {
        const auto it = std::lower_bound(
            contacts.begin(), contacts.end(), record.contact.arrival,
            [](const contact::Contact& c, sim::TimePoint t) {
              return c.arrival < t;
            });
        if (it == contacts.end() || it->arrival != record.contact.arrival) {
          throw std::logic_error("probed contact missing from the plan");
        }
        deploy::CollectionSession session;
        session.node = static_cast<std::uint32_t>(i);
        session.vehicle =
            plan.carriers[i][static_cast<std::size_t>(it - contacts.begin())];
        session.probe_time_s = record.probe_time.to_seconds();
        session.departure_s = record.contact.departure().to_seconds();
        sessions.push_back(session);
      }
    }
    return sessions;
  }
};

/// The `bench_deployment_scale --mega` geometry at 50k nodes x 52
/// one-hour epochs through the bounded-memory streaming engine,
/// checkpointing after every batch.
class MegaStream final : public FleetWorkload {
 public:
  explicit MegaStream(const WorkloadOptions& options)
      : FleetWorkload{"fleet-highway-1k", options} {
    deploy::RoadWorkload road;
    road.first_position_m = 50.0;
    road.spacing_m = 1.0;
    road.range_m = 10.0;
    road.speed_mean_mps = 20.0;
    road.speed_stddev_mps = 0.0;
    spec_ = deploy::FleetSpec::road(options.small ? 2000 : 50'000, road,
                                    spec_.strategy, spec_.zeta_target_s);
    spec_.flow_profile =
        contact::ArrivalProfile::uniform(sim::Duration::hours(1), 24, 300.0);
    phi_max_s_ = 30.0;
    configure(52, kScaleBenchSeed);
    checkpoint_path_ = options.work_dir + "/mega-stream-" +
                       std::to_string(options.seed) + ".ckpt";
  }

  [[nodiscard]] RunOutput run(const Partition& p) const override {
    deploy::StreamingOptions streaming;
    streaming.checkpoint_path = checkpoint_path_;
    return summary_output(stream(config(p), streaming));
  }

  [[nodiscard]] TracedOutput run_traced(Tracer& tracer,
                                        int parent) const override {
    TracedOutput t;
    {
      // The engine builds each shard's schedules just before simulating
      // it, out of reach of a span; the same builds over the default
      // shard ranges are timed here instead.
      const SpanScope builds{tracer, "check.contact_builds", parent};
      const RoadInputs in = materialize_road(tracer, builds.id());
      const SpanScope span{tracer, "contact.build_road_schedules",
                           builds.id()};
      const std::size_t n = spec_.nodes;
      const std::size_t shards = default_shards(n);
      std::uint64_t contacts = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto begin = static_cast<std::ptrdiff_t>(n * s / shards);
        const auto end = static_cast<std::ptrdiff_t>(n * (s + 1) / shards);
        const std::vector<double> positions(in.positions_m.begin() + begin,
                                            in.positions_m.begin() + end);
        for (const contact::ContactSchedule& schedule :
             deploy::build_road_schedules(positions, road().range_m,
                                          in.vehicles)) {
          contacts += schedule.size();
        }
      }
      t.layers.count("contact.contacts", contacts);
      t.layers.count("contact.vehicles", in.vehicles.size());
    }

    const double start = wall_s();
    deploy::FleetSummary summary;
    {
      const SpanScope span{tracer, "deploy.run_streaming_fleet", parent};
      deploy::StreamingOptions streaming;
      streaming.checkpoint_path = checkpoint_path_;
      summary = stream(config(default_partition()), streaming);
    }
    t.output = summary_output(summary, tracer, parent);
    t.mirror_s = wall_s() - start;
    t.layers.count("sim.events", summary.events_executed);
    t.layers.count("deploy.json_bytes", t.output.json.size());

    // Time-slice the same run one batch per call: every call leaves a
    // checkpoint behind, which is how batches and checkpoint sizes are
    // observed from outside, and the resumed run must reproduce the
    // uninterrupted one's bytes.
    const SpanScope span{tracer, "check.stream_sliced", parent};
    deploy::StreamingOptions sliced;
    sliced.checkpoint_path = checkpoint_path_ + ".sliced";
    sliced.batch_shards = options_.threads;
    sliced.max_shards = options_.threads;
    std::uint64_t batches = 0;
    std::uint64_t checkpoint_bytes = 0;
    const deploy::FleetConfig c = config(default_partition());
    for (;;) {
      ++batches;
      const std::optional<deploy::FleetSummary> part =
          deploy::run_streaming_fleet(scenario_, spec_, c, sliced);
      if (part.has_value()) {
        if (deploy::to_json(*part) != t.output.json) {
          t.output.failures.push_back(
              "mega-stream: a time-sliced run differs from the whole run");
        }
        break;
      }
      checkpoint_bytes = std::filesystem::file_size(sliced.checkpoint_path);
    }
    t.layers.count("deploy.stream.batches", batches);
    t.layers.count("deploy.stream.checkpoint_bytes", checkpoint_bytes);
    return t;
  }

 private:
  deploy::FleetSummary stream(const deploy::FleetConfig& c,
                              const deploy::StreamingOptions& options) const {
    std::optional<deploy::FleetSummary> summary =
        deploy::run_streaming_fleet(scenario_, spec_, c, options);
    if (!summary.has_value()) {
      throw std::runtime_error("mega-stream: streaming run stopped early");
    }
    return *summary;
  }

  RunOutput summary_output(const deploy::FleetSummary& s) const {
    return figures(s, deploy::to_json(s));
  }

  RunOutput summary_output(const deploy::FleetSummary& s, Tracer& tracer,
                           int parent) const {
    std::string json;
    {
      const SpanScope span{tracer, "deploy.to_json", parent};
      json = deploy::to_json(s);
    }
    return figures(s, std::move(json));
  }

  /// The summary has no per-node rows, so the shortfall is ζtarget − mean
  /// ζ: exact while every node is short of the target, which this
  /// geometry guarantees (one-second contacts, twelve an hour, ζtarget
  /// 16 s), and a lower bound otherwise.
  RunOutput figures(const deploy::FleetSummary& s, std::string json) const {
    RunOutput out;
    out.json = std::move(json);
    out.phi_s = s.total_phi_s;
    out.zeta_s = s.total_zeta_s;
    check_finite(s.total_zeta_s, s.total_phi_s, "fleet totals", out);
    check_finite(s.min_zeta_s, s.max_zeta_s, "fleet extremes", out);
    out.zeta_shortfall_s = std::max(0.0, spec_.zeta_target_s - s.mean_zeta_s);
    out.delivery_ratio =
        s.total_bytes / (static_cast<double>(s.nodes) * bytes_per_node_epoch());
    return out;
  }

  std::string checkpoint_path_;
};

// --- The paper grid ------------------------------------------------------

/// The Fig. 7/8 grid through BatchRunner: {at, opt, rh, adaptive} x
/// ζtarget {16..56} x Φmax {43.2, 86.4} x 8 seeds x 14 epochs.
class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(const WorkloadOptions& options) : options_{options} {
    const core::CatalogEntry& entry =
        core::ScenarioCatalog::instance().at("roadside");
    core::SweepSpec sweep;
    sweep.label = "paper-grid";
    sweep.scenario = entry.scenario;
    const auto strategies = core::all_strategies();
    sweep.strategies.assign(strategies.begin(), strategies.end());
    const auto targets = core::RoadsideScenario::zeta_targets_s();
    sweep.zeta_targets_s.assign(targets.begin(), targets.end());
    if (options.small) sweep.zeta_targets_s = {16.0, 56.0};
    sweep.phi_maxes_s = {43.2, 86.4};
    sweep.seeds.clear();
    const std::uint64_t grid_seeds = options.small ? 2 : 8;
    for (std::uint64_t k = 1; k <= grid_seeds; ++k) sweep.seeds.push_back(k);
    sweep.epochs = options.small ? 4 : 14;
    epochs_ = sweep.epochs;
    runs_ = core::expand_sweep(sweep);
    // The grid is one fixed set of runs: a fresh set of grid seeds per
    // benchmark seed moves the adaptive runs' wakeups, and so the work, by
    // up to 40%. The benchmark seed instead shuffles the order BatchRunner
    // receives the runs in, which moves schedule grouping and the thread
    // pool's load balance. Seed 0 is expand_sweep's own order.
    if (options.seed != 0) {
      sim::Rng rng{options.seed};
      for (std::size_t i = runs_.size(); i > 1; --i) {
        std::swap(runs_[i - 1], runs_[rng.uniform_int(i)]);
      }
    }
  }

  [[nodiscard]] double node_days() const override {
    return static_cast<double>(runs_.size()) * static_cast<double>(epochs_);
  }
  [[nodiscard]] double runs() const override {
    return static_cast<double>(runs_.size());
  }
  [[nodiscard]] Partition default_partition() const override {
    return {options_.threads, 0};
  }
  [[nodiscard]] Partition alternate_partition() const override {
    return {alternate_threads(options_.threads), 0};
  }

  [[nodiscard]] RunOutput run(const Partition& p) const override {
    const std::vector<core::BatchRunResult> results =
        core::BatchRunner{core::BatchRunner::Config{p.threads}}.run(runs_);
    return output(results, core::BatchRunner::to_json(results));
  }

  [[nodiscard]] TracedOutput run_traced(Tracer& tracer,
                                        int parent) const override {
    TracedOutput t;
    const double start = wall_s();
    const std::uint64_t builds_before = core::BatchRunner::schedule_builds();
    SchedulerTally batch_tally;
    std::vector<core::BatchRunResult> results;
    {
      const SpanScope span{tracer, "core.batch_run", parent};
      std::vector<core::BatchRun> runs = runs_;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i].scheduler_factory = traced_maker(
            maker(runs_[i]), tracer, make_scheduler_span(runs_[i]), span.id(),
            batch_tally);
      }
      results = core::BatchRunner{
          core::BatchRunner::Config{default_partition().threads}}
                    .run(runs);
    }
    t.layers.count("core.batch.schedule_builds",
                   core::BatchRunner::schedule_builds() - builds_before);
    std::string json;
    {
      const SpanScope span{tracer, "core.batch_to_json", parent};
      json = core::BatchRunner::to_json(results);
    }
    t.mirror_s = wall_s() - start;
    t.output = output(results, std::move(json));
    const SchedulerCounts batch = batch_tally.total();

    // The single-node experiment layer, called directly and one run at a
    // time so each call's time is its own.
    const SpanScope check{tracer, "check.direct_experiments", parent};
    std::map<std::uint64_t, std::shared_ptr<const contact::ContactSchedule>>
        schedules;
    {
      const SpanScope span{tracer, "contact.make_schedule", check.id()};
      for (const core::BatchRun& r : runs_) {
        if (schedules.count(r.seed) != 0) continue;
        sim::Rng rng{r.seed};
        schedules[r.seed] = std::make_shared<const contact::ContactSchedule>(
            r.scenario.make_schedule(r.epochs, r.jitter, rng));
      }
    }
    std::uint64_t contacts = 0;
    for (const auto& [seed, schedule] : schedules) contacts += schedule->size();
    t.layers.count("contact.contacts", contacts);

    SchedulerTally direct_tally;
    double experiment_s = 0.0;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const core::BatchRun& r = runs_[i];
      auto scheduler =
          std::make_unique<CountingScheduler>(maker(r)(), direct_tally);
      core::RunResult result;
      const double t0 = wall_s();
      {
        const SpanScope span{tracer,
                             "core.experiment." +
                                 std::string{core::strategy_id(r.strategy)},
                             check.id()};
        result = core::run_experiment_on_schedule(
            r.scenario, schedules.at(r.seed), *scheduler, r.experiment_config());
      }
      experiment_s += wall_s() - t0;
      scheduler.reset();
      const core::RunResult& batched = results[i].run;
      if (!same_bits(result.mean_zeta_s, batched.mean_zeta_s) ||
          !same_bits(result.mean_phi_s, batched.mean_phi_s) ||
          !same_bits(result.mean_bytes_uploaded, batched.mean_bytes_uploaded)) {
        t.output.failures.push_back("paper-grid: run " + std::to_string(i) +
                                    " differs between BatchRunner and a "
                                    "direct call");
      }
    }
    const SchedulerCounts direct = direct_tally.total();
    if (direct.wakeup_calls != batch.wakeup_calls ||
        direct.probe_calls != batch.probe_calls ||
        direct.detections != batch.detections ||
        direct.epoch_calls != batch.epoch_calls) {
      t.output.failures.push_back(
          "paper-grid: scheduler counts differ between BatchRunner and "
          "direct calls");
    }
    // Direct calls run on this thread alone, so their wall time is the
    // engine's CPU time.
    record_scheduler(t.layers, direct, experiment_s, 0.0);
    return t;
  }

 private:
  static MakeScheduler maker(const core::BatchRun& r) {
    return [&r] {
      return core::make_scheduler(r.scenario, r.strategy, r.zeta_target_s,
                                  r.phi_max_s);
    };
  }

  static std::string make_scheduler_span(const core::BatchRun& r) {
    return "model.make_scheduler." + std::string{core::strategy_id(r.strategy)};
  }

  /// Grid-wide figures: ρ = ΣΦ/Σζ over runs, shortfall over the
  /// seed-averaged (strategy, ζtarget, Φmax) cells, and uploaded over
  /// sensed bytes (the mobile node is the sink).
  RunOutput output(const std::vector<core::BatchRunResult>& results,
                   std::string json) const {
    RunOutput out;
    out.json = std::move(json);
    double uploaded = 0.0;
    double sensed = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::RunResult& r = results[i].run;
      check_finite(r.mean_zeta_s, r.mean_phi_s, "run " + std::to_string(i),
                   out);
      out.phi_s += r.mean_phi_s;
      out.zeta_s += r.mean_zeta_s;
      uploaded += r.mean_bytes_uploaded;
      const core::BatchRun& spec = runs_[i];
      sensed += spec.scenario.sensing_rate_for_target(spec.zeta_target_s) *
                spec.scenario.profile.epoch().to_seconds();
    }
    const std::vector<core::BatchAggregate> cells =
        core::BatchRunner::aggregate(results);
    double shortfall = 0.0;
    for (const core::BatchAggregate& cell : cells) {
      shortfall += std::max(0.0, cell.zeta_target_s - cell.mean_zeta_s);
    }
    if (!cells.empty()) {
      out.zeta_shortfall_s = shortfall / static_cast<double>(cells.size());
    }
    out.delivery_ratio = sensed > 0.0 ? uploaded / sensed : 0.0;
    return out;
  }

  WorkloadOptions options_;
  std::vector<core::BatchRun> runs_;
  std::size_t epochs_{0};
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options) {
  if (name == "urban-adaptive") return std::make_unique<UrbanAdaptive>(options);
  if (name == "relay-chaos") return std::make_unique<RelayChaos>(options);
  if (name == "mega-stream") return std::make_unique<MegaStream>(options);
  if (name == "paper-grid") return std::make_unique<PaperGrid>(options);
  throw std::invalid_argument("unknown workload '" + std::string{name} + "'");
}

}  // namespace snipbench
