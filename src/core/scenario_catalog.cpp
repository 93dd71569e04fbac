#include "snipr/core/scenario_catalog.hpp"

#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "snipr/trace/one_format.hpp"
#include "snipr/trace/slot_stats.hpp"
#include "snipr/trace/trace_catalog.hpp"

namespace snipr::core {
namespace {

constexpr std::size_t kHours = 24;

/// Per-slot mean intervals for a 24-slot diurnal profile, all `base_s`;
/// callers override the peak hours (ArrivalProfile::kNoContacts = dead).
std::vector<double> flat_intervals(double base_s) {
  return std::vector<double>(kHours, base_s);
}

contact::ArrivalProfile profile24(std::vector<double> intervals) {
  return contact::ArrivalProfile{sim::Duration::hours(24),
                                 std::move(intervals)};
}

/// Synthetic ONE-simulator connectivity report: three days of a commuter
/// flow that is one-sided (morning-only rush, hours 6-8), written in the
/// exact `<time> CONN <h1> <h2> up|down` format. Deterministic by
/// construction, so the profile estimated from it is too.
std::string synthetic_one_report() {
  std::string report = "# ConnectivityONEReport synthetic commuter trace\n";
  int peer = 0;
  for (int day = 0; day < 3; ++day) {
    for (int hour = 0; hour < static_cast<int>(kHours); ++hour) {
      const bool rush = hour >= 6 && hour <= 8;
      const int interval_s = rush ? 400 : 1800;
      const int hour_start = day * 86400 + hour * 3600;
      for (int t = hour_start; t + 2 < hour_start + 3600; t += interval_s) {
        std::string peer_name{"m"};
        peer_name += std::to_string(peer % 7);
        report += std::to_string(t);
        report += " CONN s0 ";
        report += peer_name;
        report += " up\n";
        report += std::to_string(t + 2);
        report += " CONN s0 ";
        report += peer_name;
        report += " down\n";
        ++peer;
      }
    }
  }
  return report;
}

/// Environment recovered from the synthetic ONE trace: parse the report
/// with the production importer, aggregate per-slot statistics, estimate
/// the arrival profile, and mark the top-3 busiest slots as rush hours —
/// the full trace -> slot stats -> rush-hour mask pipeline.
RoadsideScenario one_trace_scenario() {
  std::istringstream report{synthetic_one_report()};
  const std::vector<contact::Contact> contacts =
      trace::read_one_connectivity(report, "s0");
  const contact::ArrivalProfile layout =
      contact::ArrivalProfile::uniform(sim::Duration::hours(24), kHours,
                                       3600.0);
  const trace::TraceSlotStats stats{contacts, layout};
  RoadsideScenario sc;
  sc.profile = stats.estimate_profile();
  sc.rush_mask = RushHourMask::top_k(sim::Duration::hours(24), kHours,
                                     stats.slots_by_count(), 3);
  sc.tcontact_s = 2.0;
  return sc;
}

/// Sparse rural road: rare contacts all day with a mild midday bump, but
/// each contact lingers (slow vehicles). Shared by the single-node entry
/// and the rural fleet entry so the two stay one environment.
RoadsideScenario sparse_rural_scenario() {
  std::vector<double> intervals = flat_intervals(5400.0);
  for (const std::size_t h : {10U, 11U, 12U, 13U}) intervals[h] = 2700.0;
  RoadsideScenario sc;
  sc.profile = profile24(std::move(intervals));
  sc.rush_mask = RushHourMask::from_hours({10, 11, 12, 13});
  sc.tcontact_s = 6.0;
  return sc;
}

/// Multi-peak urban arterial on a 48-slot grid: five separate peaks,
/// exercising non-24 slot counts end to end. Shared by the single-node
/// entry, the urban fleet entry, and — via trace::metro_profile(), the
/// one definition of the flow — the synthetic-metro-drift trace the
/// fleet-trace-metro entry replays. The mask is derived from the
/// profile (its ten strictly-busiest slots), so the two cannot drift.
RoadsideScenario multi_peak_urban_scenario() {
  RoadsideScenario sc;
  sc.profile = trace::metro_profile();
  sc.rush_mask =
      RushHourMask::top_k(sc.profile.epoch(), sc.profile.slot_count(),
                          sc.profile.slots_by_rate(), 10);
  return sc;
}

CatalogEntry make_entry(std::string name, std::string description,
                        RoadsideScenario scenario,
                        std::vector<double> zeta_targets) {
  CatalogEntry entry;
  entry.name = std::move(name);
  entry.description = std::move(description);
  entry.phi_max_s = scenario.phi_max_small_s();
  entry.scenario = std::move(scenario);
  entry.zeta_targets_s = std::move(zeta_targets);
  return entry;
}

std::vector<CatalogEntry> build_entries() {
  std::vector<CatalogEntry> entries;

  // 1. The paper's environment under its small budget (Figs. 5 and 7).
  entries.push_back(make_entry(
      "roadside",
      "paper Sec. VII-A road-side network, small budget Tepoch/1000",
      RoadsideScenario{}, {16.0, 56.0}));

  // 2. Same environment under the large budget (Figs. 6 and 8).
  {
    CatalogEntry entry = make_entry(
        "roadside-large-budget",
        "paper road-side network under the large budget Tepoch/100",
        RoadsideScenario{}, {16.0, 56.0});
    entry.phi_max_s = entry.scenario.phi_max_large_s();
    entries.push_back(std::move(entry));
  }

  // 3. Commuter flow with asymmetric peaks: a sharp morning spike and a
  // broader, weaker evening return.
  {
    std::vector<double> intervals = flat_intervals(2400.0);
    for (const std::size_t h : {7U, 8U}) intervals[h] = 240.0;
    for (const std::size_t h : {16U, 17U, 18U}) intervals[h] = 600.0;
    RoadsideScenario sc;
    sc.profile = profile24(std::move(intervals));
    sc.rush_mask = RushHourMask::from_hours({7, 8, 16, 17, 18});
    entries.push_back(make_entry(
        "commuter-asym",
        "diurnal commuter: sharp 7-9 morning peak, broad weak 16-19 return",
        std::move(sc), {16.0, 40.0}));
  }

  // 4. Night-shift plant: activity peaks straddle midnight, exercising
  // epoch wrap-around in masks and learners.
  {
    std::vector<double> intervals = flat_intervals(2700.0);
    for (const std::size_t h : {5U, 6U, 22U, 23U}) intervals[h] = 300.0;
    RoadsideScenario sc;
    sc.profile = profile24(std::move(intervals));
    sc.rush_mask = RushHourMask::from_hours({22, 23, 5, 6});
    entries.push_back(make_entry(
        "night-shift",
        "peaks at 22-24 and 5-7: rush hours straddling the epoch boundary",
        std::move(sc), {16.0, 40.0}));
  }

  // 5. Bursty convoy: two white-hot slots, everything else dead or nearly
  // so — the extreme the rush-hour bet is built for.
  {
    std::vector<double> intervals =
        flat_intervals(contact::ArrivalProfile::kNoContacts);
    intervals[11] = 3600.0;
    intervals[12] = 120.0;
    intervals[13] = 120.0;
    intervals[14] = 3600.0;
    RoadsideScenario sc;
    sc.profile = profile24(std::move(intervals));
    sc.rush_mask = RushHourMask::from_hours({12, 13});
    sc.tcontact_s = 1.0;
    entries.push_back(make_entry(
        "bursty-convoy",
        "convoy passes 12-14, 1 s contacts, dead or near-dead slots elsewhere",
        std::move(sc), {8.0, 24.0}));
  }

  // 6. Sparse rural road: rare contacts all day with a mild midday bump,
  // but each contact lingers (slow vehicles).
  entries.push_back(make_entry(
      "sparse-rural",
      "rare contacts with a mild 10-14 bump; long 6 s contacts",
      sparse_rural_scenario(), {8.0, 24.0}));

  // 7. Multi-peak urban arterial on a 48-slot grid: five separate peaks,
  // exercising non-24 slot counts end to end.
  entries.push_back(make_entry(
      "multi-peak-urban", "five half-hour-resolved peaks on a 48-slot grid",
      multi_peak_urban_scenario(), {16.0, 40.0}));

  // 8. Flat adversarial: a uniform contact process under the paper's
  // default mask. There is no rush hour to exploit; SNIP-RH's gain must
  // collapse, not crash.
  {
    RoadsideScenario sc;
    sc.profile = contact::ArrivalProfile::uniform(sim::Duration::hours(24),
                                                  kHours, 900.0);
    sc.rush_mask = RushHourMask::from_hours({7, 8, 17, 18});
    entries.push_back(make_entry(
        "flat-adversarial",
        "no rush hour at all: uniform arrivals under the default mask",
        std::move(sc), {16.0, 40.0}));
  }

  // 9. Weekend leisure traffic: late broad peaks, nothing at commute time.
  {
    std::vector<double> intervals = flat_intervals(2100.0);
    for (const std::size_t h : {11U, 12U, 13U}) intervals[h] = 420.0;
    for (const std::size_t h : {20U, 21U}) intervals[h] = 500.0;
    RoadsideScenario sc;
    sc.profile = profile24(std::move(intervals));
    sc.rush_mask = RushHourMask::from_hours({11, 12, 13, 20, 21});
    entries.push_back(make_entry(
        "weekend", "late leisure peaks 11-14 and 20-22, no commute rush",
        std::move(sc), {16.0, 40.0}));
  }

  // 10. Highway-speed passes: the roadside arrival pattern but contacts a
  // tenth as long, so probing precision dominates.
  {
    RoadsideScenario sc;
    sc.tcontact_s = 0.5;
    entries.push_back(make_entry(
        "highway-short-contacts",
        "roadside arrivals with 0.5 s drive-by contacts",
        std::move(sc), {4.0, 12.0}));
  }

  // 11. Meter-reading walkers: roadside arrivals but 10 s lingering
  // contacts, shifting the economics toward transfer time.
  {
    RoadsideScenario sc;
    sc.tcontact_s = 10.0;
    entries.push_back(make_entry(
        "meter-long-contacts", "roadside arrivals with 10 s lingering contacts",
        std::move(sc), {40.0, 120.0}));
  }

  // 12. Environment estimated from a ONE connectivity report through the
  // production trace pipeline (read_one_connectivity -> TraceSlotStats).
  entries.push_back(make_entry(
      "one-trace-commuter",
      "profile estimated from a ONE connectivity trace, morning-only rush",
      one_trace_scenario(), {8.0, 24.0}));

  // 13. The checked-in campus-3day ONE corpus replayed end to end: the
  // trace drives the channel through contact::TraceReplayProcess (24 h
  // tiling, 5 s day-to-day jitter), the profile and mask estimated from
  // the same trace drive the planners. The corpus is resolved against
  // the compiled-in data dir only ($SNIPR_TRACE_DATA_DIR must not swap
  // the corpus behind a golden-pinned name); if the file is gone (a
  // relocated binary), the entry is skipped with a warning rather than
  // making the whole catalog — and every tool built on it — unusable.
  try {
    const trace::TraceEntry& campus =
        trace::TraceCatalog::instance().at("campus-3day");
    auto contacts = std::make_shared<const std::vector<contact::Contact>>(
        trace::TraceCatalog::load(campus,
                                  trace::TraceCatalog::compiled_data_dir()));
    entries.push_back(make_entry(
        "trace-campus-replay",
        "checked-in campus-3day ONE corpus replayed through the simulator",
        make_replay_scenario(campus, std::move(contacts), /*rush_slots=*/4,
                             /*replay_jitter_s=*/5.0),
        {8.0, 24.0}));
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "snipr: skipping scenario 'trace-campus-replay': %s\n",
                 e.what());
  }

  // --- Fleet entries (deploy::FleetEngine; snipr_cli fleet NAME). The
  // scenario field holds the per-node environment; the FleetSpec the road
  // geometry and the shared vehicle flow.

  // 14. The paper's Fig. 1 network at deployment scale: 1024 road-side
  // nodes spread along 300 km of highway, one diurnal commuter flow.
  {
    deploy::RoadWorkload road;
    road.spacing_m = 300.0;
    road.range_m = 10.0;
    road.speed_mean_mps = 10.0;
    road.speed_stddev_mps = 1.5;
    road.speed_min_mps = 2.0;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(1024, road, Strategy::kSnipRh, 16.0));
    CatalogEntry entry = make_entry(
        "fleet-highway-1k",
        "1024-node highway fleet, shared roadside flow, SNIP-RH per node",
        RoadsideScenario{}, {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 15. Dense urban arterial grid: 256 closely spaced nodes under the
  // 48-slot multi-peak flow, every node learning its mask online — the
  // adaptive learner exercised at fleet scale.
  {
    RoadsideScenario sc = multi_peak_urban_scenario();
    deploy::RoadWorkload road;
    road.spacing_m = 120.0;
    road.range_m = 12.0;
    road.speed_mean_mps = 8.0;
    road.speed_stddev_mps = 2.0;
    road.speed_min_mps = 1.5;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(256, road, Strategy::kAdaptive, 16.0));
    fleet->flow_profile = sc.profile;
    CatalogEntry entry = make_entry(
        "fleet-urban-grid",
        "256-node urban grid on the 48-slot multi-peak flow, adaptive nodes",
        std::move(sc), {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 16. Long rural collection route: 96 nodes a kilometre apart, slow
  // sparse traffic with lingering contacts, planned SNIP-OPT duties.
  {
    RoadsideScenario sc = sparse_rural_scenario();
    deploy::RoadWorkload road;
    road.spacing_m = 1000.0;
    road.range_m = 20.0;
    road.speed_mean_mps = 15.0;
    road.speed_stddev_mps = 3.0;
    road.speed_min_mps = 4.0;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(96, road, Strategy::kSnipOpt, 8.0));
    fleet->flow_profile = sc.profile;
    CatalogEntry entry = make_entry(
        "fleet-rural-sparse",
        "96-node rural route, 1 km spacing, sparse slow flow, SNIP-OPT",
        std::move(sc), {8.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 17. Heterogeneous trace-driven fleet: 128 nodes each replaying a
  // different slice of the generator-backed drifting metro trace
  // (phase-rotated 270 s per node, 20 s per-contact jitter from each
  // node's own stream) — no two nodes see the same contact sequence,
  // unlike the shared-flow fleets above.
  {
    RoadsideScenario sc = multi_peak_urban_scenario();
    deploy::TraceWorkload trace;
    trace.trace = "synthetic-metro-drift";
    trace.stagger_s = 270.0;
    trace.jitter_stddev_s = 20.0;
    // Pinned entries always resolve file-backed traces against the
    // compiled-in corpus (a no-op for this generator-backed trace, but
    // the template every future catalog fleet must follow): an ad-hoc
    // $SNIPR_TRACE_DATA_DIR must never swap the corpus behind a
    // golden-pinned name.
    trace.data_dir = trace::TraceCatalog::compiled_data_dir();
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::trace_replay(128, std::move(trace),
                                        Strategy::kAdaptive, 16.0));
    fleet->flow_profile = sc.profile;  // tiling period / epoch source
    CatalogEntry entry = make_entry(
        "fleet-trace-metro",
        "128 nodes, each replaying its own slice of the drifting metro "
        "trace",
        std::move(sc), {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // --- Multi-hop store-and-forward entries (snipr.fleet.v2 goldens).

  // 18. Greedy-to-sink baseline: a through-flow highway stretch feeding
  // a virtual sink past the last node, tail-drop stores sized to bite
  // under the rush-hour backlog. Pure two-hop collection — the control
  // against which the relay entry below earns its keep.
  {
    deploy::RoadWorkload road;
    road.spacing_m = 300.0;
    road.range_m = 10.0;
    road.speed_mean_mps = 10.0;
    road.speed_stddev_mps = 1.5;
    road.speed_min_mps = 2.0;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(64, road, Strategy::kSnipRh, 16.0));
    deploy::RoutingSpec routing;
    routing.node_store_bytes = 4096.0;
    routing.drop_policy = deploy::DropPolicy::kTailDrop;
    routing.forwarding = deploy::ForwardingPolicy::kGreedySink;
    fleet->routing = routing;
    CatalogEntry entry = make_entry(
        "fleet-multihop-highway",
        "64-node highway collection to a road-end sink, greedy-to-sink "
        "forwarding, 4 KiB tail-drop stores",
        RoadsideScenario{}, {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 19. Relay chains under churn: 40% of vehicles exit early, so cargo
  // must be handed off at relay nodes; the Wang-style time-cost metric
  // decides every custody transfer, oldest-first stores shed stale
  // backlog first, and a 6-hour TTL expires what lingers.
  {
    RoadsideScenario sc = sparse_rural_scenario();
    deploy::RoadWorkload road;
    road.spacing_m = 1000.0;
    road.range_m = 20.0;
    road.speed_mean_mps = 15.0;
    road.speed_stddev_mps = 3.0;
    road.speed_min_mps = 4.0;
    road.through_fraction = 0.6;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(96, road, Strategy::kSnipOpt, 8.0));
    fleet->flow_profile = sc.profile;
    deploy::RoutingSpec routing;
    routing.sink_node = 95;
    routing.node_store_bytes = 16384.0;
    routing.vehicle_store_bytes = 65536.0;
    routing.drop_policy = deploy::DropPolicy::kOldestFirst;
    routing.forwarding = deploy::ForwardingPolicy::kTimeCost;
    routing.parcel_ttl_s = 6.0 * 3600.0;
    routing.est_hop_delay_s = 900.0;
    routing.handoff_risk_s = 450.0;
    fleet->routing = routing;
    CatalogEntry entry = make_entry(
        "fleet-multihop-relay",
        "96-node rural relay network, 40% early-exit carriers, time-cost "
        "forwarding with oldest-first stores and a 6 h TTL",
        std::move(sc), {8.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // --- Chaos entries (snipr.fleet.v3 goldens): the fault plane pinned
  // byte for byte. Each wires a deploy::FleetSpec::faults plan into an
  // environment from above, so a fault-path regression — an extra RNG
  // draw, a changed counter, a reordered injection — shows up as a
  // golden diff, not a silent behaviour change.

  // 20. Lossy radio on the highway: every radio fault at once — misses
  // SNR-weighted toward the contact edges, phantom detections polluting
  // the observed process, and one transfer in twelve dying partway.
  {
    deploy::RoadWorkload road;
    road.spacing_m = 300.0;
    road.range_m = 10.0;
    road.speed_mean_mps = 10.0;
    road.speed_stddev_mps = 1.5;
    road.speed_min_mps = 2.0;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(64, road, Strategy::kSnipRh, 16.0));
    auto faults = std::make_shared<fault::FaultSpec>();
    faults->seed = 41;
    faults->radio.probe_miss_prob = 0.10;
    faults->radio.snr_edge_weight = 0.5;
    faults->radio.spurious_detect_prob = 0.02;
    faults->radio.transfer_abort_prob = 1.0 / 12.0;
    fleet->faults = std::move(faults);
    CatalogEntry entry = make_entry(
        "chaos-lossy-radio",
        "64-node highway fleet under a lossy radio: 10% SNR-weighted probe "
        "misses, 2% phantom detections, 1-in-12 transfer aborts",
        RoadsideScenario{}, {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 21. Crash/reboot churn on the adaptive urban grid: amnesiac reboots
  // wipe the learned mask, so the entry pins both the crash accounting
  // and the post-crash re-convergence counters of the online learner.
  {
    RoadsideScenario sc = multi_peak_urban_scenario();
    deploy::RoadWorkload road;
    road.spacing_m = 120.0;
    road.range_m = 12.0;
    road.speed_mean_mps = 8.0;
    road.speed_stddev_mps = 2.0;
    road.speed_min_mps = 1.5;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(64, road, Strategy::kAdaptive, 16.0));
    fleet->flow_profile = sc.profile;
    auto faults = std::make_shared<fault::FaultSpec>();
    faults->seed = 43;
    faults->radio.probe_miss_prob = 0.05;
    faults->node.crash_prob_per_epoch = 0.15;
    faults->node.restore_from_checkpoint = false;
    fleet->faults = std::move(faults);
    CatalogEntry entry = make_entry(
        "chaos-crash-amnesia",
        "64-node adaptive urban grid, 15% per-epoch amnesiac crashes plus "
        "5% probe misses: re-convergence accounting pinned",
        std::move(sc), {16.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  // 22. Lossy hand-offs on the relay network: the multihop-relay entry's
  // environment with one hand-off in ten lost and two bounded retries,
  // pinning the collection-fault stream and the v3-with-network outcome
  // (delivery_ratio_under_loss) end to end.
  {
    RoadsideScenario sc = sparse_rural_scenario();
    deploy::RoadWorkload road;
    road.spacing_m = 1000.0;
    road.range_m = 20.0;
    road.speed_mean_mps = 15.0;
    road.speed_stddev_mps = 3.0;
    road.speed_min_mps = 4.0;
    road.through_fraction = 0.6;
    auto fleet = std::make_shared<deploy::FleetSpec>(
        deploy::FleetSpec::road(96, road, Strategy::kSnipOpt, 8.0));
    fleet->flow_profile = sc.profile;
    deploy::RoutingSpec routing;
    routing.sink_node = 95;
    routing.node_store_bytes = 16384.0;
    routing.vehicle_store_bytes = 65536.0;
    routing.drop_policy = deploy::DropPolicy::kOldestFirst;
    routing.forwarding = deploy::ForwardingPolicy::kTimeCost;
    routing.parcel_ttl_s = 6.0 * 3600.0;
    routing.est_hop_delay_s = 900.0;
    routing.handoff_risk_s = 450.0;
    fleet->routing = routing;
    auto faults = std::make_shared<fault::FaultSpec>();
    faults->seed = 47;
    faults->collection.handoff_loss_prob = 0.10;
    faults->collection.max_retries = 2;
    faults->collection.retry_backoff_s = 0.5;
    fleet->faults = std::move(faults);
    CatalogEntry entry = make_entry(
        "chaos-lossy-collection",
        "96-node relay network with 10% hand-off loss and two bounded "
        "retries: delivery under loss pinned",
        std::move(sc), {8.0});
    entry.fleet = std::move(fleet);
    entries.push_back(std::move(entry));
  }

  return entries;
}

}  // namespace

ScenarioCatalog::ScenarioCatalog() : entries_{build_entries()} {}

const ScenarioCatalog& ScenarioCatalog::instance() {
  static const ScenarioCatalog catalog;
  return catalog;
}

const CatalogEntry* ScenarioCatalog::find(std::string_view name) const {
  for (const CatalogEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const CatalogEntry& ScenarioCatalog::at(std::string_view name) const {
  if (const CatalogEntry* entry = find(name)) return *entry;
  std::string message = "unknown scenario '";
  message += name;
  message += "'; valid names:";
  for (const CatalogEntry& entry : entries_) {
    message += ' ';
    message += entry.name;
  }
  throw std::out_of_range(message);
}

RoadsideScenario make_replay_scenario(
    const trace::TraceEntry& entry,
    std::shared_ptr<const std::vector<contact::Contact>> contacts,
    std::size_t rush_slots, double replay_jitter_s) {
  if (contacts == nullptr || contacts->empty()) {
    throw std::invalid_argument("make_replay_scenario: trace '" + entry.name +
                                "' holds no contacts");
  }
  const contact::ArrivalProfile layout = contact::ArrivalProfile::uniform(
      entry.epoch, entry.slots,
      entry.epoch.to_seconds() / static_cast<double>(entry.slots));
  const trace::TraceSlotStats stats{*contacts, layout};
  RoadsideScenario sc;
  sc.profile = stats.estimate_profile();
  sc.rush_mask = RushHourMask::top_k(entry.epoch, entry.slots,
                                     stats.slots_by_count(), rush_slots);
  sc.replay = std::move(contacts);
  sc.replay_jitter_s = replay_jitter_s;
  return sc;
}

SweepSpec catalog_sweep(const CatalogEntry& entry, std::size_t seeds,
                        std::size_t epochs) {
  SweepSpec sweep;
  sweep.label = entry.name;
  sweep.scenario = entry.scenario;
  constexpr std::array<Strategy, 4> strategies = all_strategies();
  sweep.strategies.assign(strategies.begin(), strategies.end());
  sweep.zeta_targets_s = entry.zeta_targets_s;
  sweep.phi_maxes_s = {entry.phi_max_s};
  sweep.seeds.clear();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    sweep.seeds.push_back(seed);
  }
  sweep.epochs = epochs;
  return sweep;
}

}  // namespace snipr::core
