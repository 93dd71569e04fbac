/// Highway deployment: eight sensor nodes, one vehicle flow.
///
/// The paper's Fig. 1 scenario at network scale: sensor nodes spread
/// along a road are all served by the same commuter traffic. This example
/// builds correlated per-node contact schedules from a single vehicle
/// flow, runs SNIP-RH on every node, and reports per-node outcomes,
/// fleet-level fairness, and the projected battery lifetime of the
/// busiest node.
///
///   $ ./example_highway_deployment

#include <cstdio>

#include "snipr/core/metrics.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"
#include "snipr/energy/battery.hpp"

int main() {
  using namespace snipr;

  // Eight nodes between 50 m and 9 km down the road, R = 10 m.
  const std::vector<double> positions{50,   450,  1200, 2600,
                                      4100, 5600, 7400, 9000};
  const double range_m = 10.0;

  // Commuter vehicle flow: the paper's diurnal profile, vehicles at
  // ~10 m/s with some spread.
  deploy::VehicleFlow flow;
  flow.speed_mps =
      std::make_unique<sim::TruncatedNormalDistribution>(10.0, 1.5, 2.0);
  sim::Rng rng{7};
  const auto vehicles = deploy::materialize_vehicles(
      flow, sim::Duration::hours(24) * 14, rng);
  auto schedules = deploy::build_road_schedules(positions, range_m, vehicles);

  std::printf("%zu vehicles over 14 days; contacts at node 0: %zu\n\n",
              vehicles.size(), schedules[0].size());

  deploy::DeploymentConfig cfg;
  cfg.epochs = 14;
  cfg.node.budget_limit = sim::Duration::seconds(86.4);
  cfg.node.sensing_rate_bps = 16.0 * 12500.0 / 86400.0;  // ζtarget = 16 s

  // One shard on one thread: a single-simulator deployment.
  const auto outcome = deploy::FleetEngine{}.run(
      std::move(schedules),
      [](std::size_t) {
        return std::make_unique<core::SnipRh>(
            core::RushHourMask::from_hours({7, 8, 17, 18}),
            core::SnipRhConfig{});
      },
      {cfg, 1, 1});

  std::printf("%5s %8s | %10s %10s %8s %10s\n", "node", "pos (m)",
              "ζ (s/day)", "Φ (s/day)", "ρ", "latency(h)");
  for (const deploy::NodeOutcome& n : outcome.nodes) {
    std::printf("%5zu %8.0f | %10.2f %10.2f %8.2f %10.1f\n", n.node_index,
                positions[n.node_index], n.mean_zeta_s, n.mean_phi_s,
                core::rho(n.mean_phi_s, n.mean_zeta_s),
                n.mean_delivery_latency_s / 3600.0);
  }
  std::printf("\nfleet: total ζ %.1f s/day, fairness (Jain) %.3f, "
              "spread [%.2f, %.2f]\n",
              outcome.total_zeta_s, outcome.zeta_fairness,
              outcome.min_zeta_s, outcome.max_zeta_s);

  // Lifetime of the fleet on two AA cells, probing + transfer energy.
  const energy::EnergyModel radio_model;
  const double probing_j =
      outcome.nodes[0].mean_phi_s * radio_model.power_w(
                                        energy::RadioState::kListen);
  const energy::Battery battery = energy::Battery::two_aa();
  std::printf("probing draw ≈ %.2f J/day -> probing-only lifetime ≈ %.1f "
              "years on two AA cells\n",
              probing_j,
              battery.lifetime_years(probing_j, sim::Duration::hours(24)));
  return 0;
}
