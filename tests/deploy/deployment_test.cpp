#include "snipr/deploy/deployment.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "snipr/core/snip_rh.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"

namespace snipr::deploy {
namespace {

using sim::Duration;

std::vector<contact::ContactSchedule> two_day_schedules(
    const std::vector<double>& positions, std::uint64_t seed = 2) {
  VehicleFlow flow;
  flow.jitter = contact::IntervalJitter::kNormalTenth;
  sim::Rng rng{seed};
  const auto vehicles =
      materialize_vehicles(flow, Duration::hours(24) * 2, rng);
  return build_road_schedules(positions, 10.0, vehicles);
}

SchedulerFactory rh_factory() {
  return [](std::size_t) {
    return std::make_unique<core::SnipRh>(
        core::RushHourMask::from_hours({7, 8, 17, 18}),
        core::SnipRhConfig{});
  };
}

/// One shard on one thread: the single-simulator deployment.
FleetConfig quick_config() {
  DeploymentConfig cfg;
  cfg.epochs = 2;
  cfg.node.budget_limit = Duration::seconds(864.0);
  cfg.node.sensing_rate_bps = 1e6;  // no data gating
  return {cfg, 1, 1};
}

TEST(Deployment, PerNodeOutcomesMatchSingleNodeBehaviour) {
  const auto out = FleetEngine{}.run(two_day_schedules({100.0, 5000.0}),
                                     rh_factory(), quick_config());
  ASSERT_EQ(out.nodes.size(), 2U);
  for (const NodeOutcome& n : out.nodes) {
    EXPECT_EQ(n.scheduler_name, "SNIP-RH");
    EXPECT_EQ(n.epochs, 2U);
    // Knee-duty RH over rush hours probes roughly half the ~96 s rush
    // capacity at each node.
    EXPECT_GT(n.mean_zeta_s, 30.0);
    EXPECT_LT(n.mean_zeta_s, 60.0);
    EXPECT_GT(n.mean_phi_s, 50.0);
  }
}

TEST(Deployment, AggregatesSumPerNodeValues) {
  const auto out = FleetEngine{}.run(
      two_day_schedules({100.0, 900.0, 4200.0}), rh_factory(), quick_config());
  double sum = 0.0;
  for (const NodeOutcome& n : out.nodes) sum += n.mean_zeta_s;
  EXPECT_NEAR(out.total_zeta_s, sum, 1e-9);
  EXPECT_GE(out.max_zeta_s, out.min_zeta_s);
  EXPECT_GT(out.zeta_fairness, 0.9);  // same flow: nearly even service
  EXPECT_LE(out.zeta_fairness, 1.0 + 1e-12);
}

TEST(Deployment, NodesShareTheVehicleFlow) {
  // With deterministic vehicles, every node sees the same number of
  // contacts (offset in time, merged identically).
  VehicleFlow flow;
  flow.jitter = contact::IntervalJitter::kNone;
  sim::Rng rng{5};
  const auto vehicles = materialize_vehicles(flow, Duration::hours(24), rng);
  const auto schedules =
      build_road_schedules({100.0, 2500.0, 7000.0}, 10.0, vehicles);
  for (const auto& s : schedules) {
    EXPECT_EQ(s.size(), vehicles.size());
  }
}

TEST(Deployment, DeterministicAcrossRuns) {
  const auto a = FleetEngine{}.run(two_day_schedules({100.0, 5000.0}, 9),
                                   rh_factory(), quick_config());
  const auto b = FleetEngine{}.run(two_day_schedules({100.0, 5000.0}, 9),
                                   rh_factory(), quick_config());
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_zeta_s, b.nodes[i].mean_zeta_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_phi_s, b.nodes[i].mean_phi_s);
  }
}

TEST(Deployment, FinalizeOutcomeSurvivesNearEqualZetaAtScale) {
  // Regression: the fleet ζ variance used to come from a raw
  // Σζ² − n·mean² sum of squares, which cancels catastrophically for a
  // large fleet of near-equal ζ (the shared-flow steady state): with the
  // values below the two sums agree to ~16 significant digits and the
  // subtraction returns noise ~1e4, ten orders of magnitude above the
  // true variance. Welford (stats::OnlineStats) recovers it.
  DeploymentOutcome out;
  constexpr std::size_t kNodes = 10'000;
  constexpr double kBase = 1.0e8;
  constexpr double kStep = 1.0e-6;
  out.nodes.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeOutcome n;
    n.node_index = i;
    n.mean_zeta_s = kBase + kStep * static_cast<double>(i);
    out.nodes.push_back(std::move(n));
  }
  finalize_outcome(out);

  // Arithmetic progression of n terms with step d: population variance
  // d²(n²−1)/12.
  // Tolerance: at ζ ≈ 1e8 the inputs themselves are quantised to
  // ulp ≈ 1.5e-8, which perturbs the true variance by a few tenths of a
  // percent — the signal the sum-of-squares formula misses by ten orders
  // of magnitude.
  const auto n = static_cast<double>(kNodes);
  const double expected_var = kStep * kStep * (n * n - 1.0) / 12.0;
  EXPECT_NEAR(out.zeta_variance, expected_var, expected_var * 1e-2);
  EXPECT_NEAR(out.zeta_stddev_s, std::sqrt(expected_var),
              std::sqrt(expected_var) * 1e-2);
  EXPECT_DOUBLE_EQ(out.min_zeta_s, kBase);
  EXPECT_DOUBLE_EQ(out.max_zeta_s, kBase + kStep * (n - 1.0));
  EXPECT_NEAR(out.mean_zeta_s, kBase + kStep * (n - 1.0) / 2.0, 1e-4);
  // Spread is ~1e-10 of the mean: fairness must be 1 to double precision,
  // not the garbage the cancelling formula produced.
  EXPECT_DOUBLE_EQ(out.zeta_fairness, 1.0);
  EXPECT_NEAR(out.total_zeta_s, n * kBase, n * kBase * 1e-9);
}

TEST(Deployment, OutcomeCarriesWelfordAggregates) {
  const auto out = FleetEngine{}.run(
      two_day_schedules({100.0, 900.0, 4200.0}), rh_factory(), quick_config());
  EXPECT_NEAR(out.mean_zeta_s, out.total_zeta_s / 3.0, 1e-9);
  EXPECT_NEAR(out.zeta_stddev_s * out.zeta_stddev_s, out.zeta_variance,
              1e-9);
  EXPECT_GE(out.zeta_variance, 0.0);
  EXPECT_LE(out.min_zeta_s, out.mean_zeta_s);
  EXPECT_GE(out.max_zeta_s, out.mean_zeta_s);
}

}  // namespace
}  // namespace snipr::deploy
