/// Property: a single-node experiment and a one-node fleet are the same
/// node. Over the same schedule and seed, `run_experiment_on_schedule`
/// and `FleetEngine::run` must report the same ζ, Φ, bytes, contacts,
/// miss ratio, delivery latency and epoch count, to the last bit, for
/// every strategy at two ζ targets, the paper's small and large budgets
/// and two seeds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/sim/rng.hpp"

namespace snipr::core {
namespace {

constexpr std::size_t kEpochs = 5;  // adaptive nodes exploit after 3

::testing::AssertionResult same_bits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b;
}

void expect_same_node(const RoadsideScenario& sc, Strategy strategy,
                      double target, double phi_max, std::uint64_t seed) {
  sim::Rng rng{seed};
  const contact::ContactSchedule schedule =
      sc.make_schedule(kEpochs, contact::IntervalJitter::kNormalTenth, rng);

  ExperimentConfig cfg;
  cfg.epochs = kEpochs;
  cfg.phi_max_s = phi_max;
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(target);
  cfg.seed = seed;
  const std::unique_ptr<node::Scheduler> scheduler =
      make_scheduler(sc, strategy, target, phi_max);
  const RunResult run =
      run_experiment_on_schedule(sc, schedule, *scheduler, cfg);

  deploy::FleetConfig fleet;
  fleet.deployment.node.ton = sim::Duration::seconds(sc.snip.ton_s);
  fleet.deployment.node.epoch = sc.profile.epoch();
  fleet.deployment.node.budget_limit = sim::Duration::seconds(phi_max);
  fleet.deployment.node.sensing_rate_bps = cfg.sensing_rate_bps;
  fleet.deployment.link = sc.link;
  fleet.deployment.epochs = kEpochs;
  fleet.deployment.seed = seed;
  fleet.threads = 1;
  const deploy::DeploymentOutcome outcome = deploy::FleetEngine{}.run(
      std::vector<contact::ContactSchedule>{schedule},
      [&](std::size_t) {
        return make_scheduler(sc, strategy, target, phi_max);
      },
      fleet);
  ASSERT_EQ(outcome.nodes.size(), 1U);
  const deploy::NodeOutcome& node = outcome.nodes[0];

  EXPECT_EQ(node.epochs, run.epochs);
  EXPECT_TRUE(same_bits(node.mean_zeta_s, run.mean_zeta_s));
  EXPECT_TRUE(same_bits(node.mean_phi_s, run.mean_phi_s));
  EXPECT_TRUE(same_bits(node.mean_bytes_uploaded, run.mean_bytes_uploaded));
  EXPECT_TRUE(same_bits(node.mean_contacts_probed, run.mean_contacts_probed));
  EXPECT_TRUE(same_bits(node.miss_ratio, run.miss_ratio));
  EXPECT_TRUE(
      same_bits(node.mean_delivery_latency_s, run.mean_delivery_latency_s));
  EXPECT_EQ(node.scheduler_name, run.scheduler_name);
  EXPECT_GT(run.mean_zeta_s, 0.0) << "the node must probe something";
}

TEST(NodeWorldsEquivalence, ExperimentMatchesOneNodeFleet) {
  const RoadsideScenario sc;
  const double epoch_s = sc.profile.epoch().to_seconds();
  for (const Strategy strategy : all_strategies()) {
    for (const double target : {16.0, 48.0}) {
      for (const double phi_max : {epoch_s / 1000.0, epoch_s / 100.0}) {
        for (const std::uint64_t seed : {1U, 7U}) {
          SCOPED_TRACE(std::string{strategy_id(strategy)} + " target " +
                       std::to_string(target) + " phi_max " +
                       std::to_string(phi_max) + " seed " +
                       std::to_string(seed));
          expect_same_node(sc, strategy, target, phi_max, seed);
        }
      }
    }
  }
}

}  // namespace
}  // namespace snipr::core
