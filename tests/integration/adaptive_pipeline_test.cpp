#include <gtest/gtest.h>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/road_contacts.hpp"

/// End-to-end pipelines that cross module boundaries: autonomous
/// rush-hour learning inside the full DES, and heterogeneous deployments.

namespace snipr {
namespace {

TEST(AdaptivePipeline, LearnsMaskAndMeetsTargetInDes) {
  // No engineer-provided mask: the node runs low-duty SNIP-AT for three
  // epochs, adopts a learned mask, then behaves like SNIP-RH. After the
  // learning transient it must meet the target at near-RH efficiency.
  const core::RoadsideScenario sc;
  core::AdaptiveSnipRhConfig acfg;
  acfg.learning_epochs = 3;
  acfg.learning_duty = 0.002;
  acfg.tracking_duty = 0.0;  // static environment: no tracker needed
  acfg.rush_slots = 4;
  core::AdaptiveSnipRh adaptive{sc.profile.epoch(), sc.profile.slot_count(),
                                acfg};

  core::ExperimentConfig cfg;
  cfg.epochs = 12;
  cfg.phi_max_s = sc.phi_max_large_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(16.0);
  cfg.jitter = contact::IntervalJitter::kNormalTenth;
  cfg.seed = 21;
  cfg.warmup_epochs = 4;  // exclude the learning phase + first masked epoch

  const auto r = core::run_experiment(sc, adaptive, cfg);
  EXPECT_FALSE(adaptive.learning());
  // Learned mask covers the true rush hours.
  int true_rush_covered = 0;
  for (const std::size_t h : {7U, 8U, 17U, 18U}) {
    true_rush_covered += adaptive.current_mask().is_rush_slot(h) ? 1 : 0;
  }
  EXPECT_GE(true_rush_covered, 3);
  // And the exploit phase meets the target at RH-like cost.
  EXPECT_NEAR(r.mean_zeta_s, 16.0, 4.0);
  EXPECT_LT(r.rho(), 4.5);
}

TEST(AdaptivePipeline, LearnedMatchesOracleWithinTolerance) {
  const core::RoadsideScenario sc;

  core::ExperimentConfig cfg;
  cfg.epochs = 12;
  cfg.phi_max_s = sc.phi_max_large_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(24.0);
  cfg.jitter = contact::IntervalJitter::kNormalTenth;
  cfg.seed = 33;
  cfg.warmup_epochs = 4;

  core::AdaptiveSnipRhConfig acfg;
  acfg.learning_epochs = 3;
  acfg.learning_duty = 0.002;
  acfg.tracking_duty = 0.0;
  core::AdaptiveSnipRh learned{sc.profile.epoch(), sc.profile.slot_count(),
                               acfg};
  const auto lr = core::run_experiment(sc, learned, cfg);

  core::SnipRh oracle{sc.rush_mask, core::SnipRhConfig{}};
  const auto orac = core::run_experiment(sc, oracle, cfg);

  EXPECT_NEAR(lr.mean_zeta_s, orac.mean_zeta_s, 6.0);
  // The learned node may not be cheaper than the oracle by more than
  // noise, nor vastly more expensive.
  EXPECT_LT(lr.mean_phi_s, orac.mean_phi_s * 1.6 + 10.0);
}

TEST(HeterogeneousDeployment, MixedPoliciesPerNode) {
  // Node 0 runs SNIP-RH, node 1 runs the adaptive learner — the factory
  // seam supports heterogeneous fleets.
  deploy::VehicleFlow flow;
  sim::Rng rng{4};
  const auto vehicles = deploy::materialize_vehicles(
      flow, sim::Duration::hours(24) * 8, rng);
  auto schedules =
      deploy::build_road_schedules({100.0, 4000.0}, 10.0, vehicles);

  deploy::DeploymentConfig cfg;
  cfg.epochs = 8;
  cfg.node.budget_limit = sim::Duration::seconds(864.0);
  cfg.node.sensing_rate_bps = 1e6;

  const auto out = deploy::FleetEngine{}.run(
      std::move(schedules),
      [](std::size_t i) -> std::unique_ptr<node::Scheduler> {
        if (i == 0) {
          return std::make_unique<core::SnipRh>(
              core::RushHourMask::from_hours({7, 8, 17, 18}),
              core::SnipRhConfig{});
        }
        core::AdaptiveSnipRhConfig acfg;
        acfg.learning_epochs = 2;
        acfg.learning_duty = 0.002;
        acfg.tracking_duty = 0.0;
        return std::make_unique<core::AdaptiveSnipRh>(
            sim::Duration::hours(24), 24, acfg);
      },
      {cfg, 1, 1});

  ASSERT_EQ(out.nodes.size(), 2U);
  EXPECT_EQ(out.nodes[0].scheduler_name, "SNIP-RH");
  EXPECT_EQ(out.nodes[1].scheduler_name, "SNIP-RH/adaptive");
  // Both probe a substantial share of the rush capacity.
  EXPECT_GT(out.nodes[0].mean_zeta_s, 25.0);
  EXPECT_GT(out.nodes[1].mean_zeta_s, 15.0);
}

}  // namespace
}  // namespace snipr
