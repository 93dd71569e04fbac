#include <gtest/gtest.h>

#include <memory>

#include "snipr/core/experiment.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/lone_node.hpp"

/// Degraded-environment behaviour: probe loss, starved buffers, empty
/// masks, budget exhaustion mid-epoch. The system must degrade gracefully
/// (reduced ζ, bounded Φ), never violate the budget by more than one
/// wakeup, and never crash.

namespace snipr::core {
namespace {

ExperimentConfig base_config(const RoadsideScenario& sc, double target) {
  ExperimentConfig cfg;
  cfg.epochs = 6;
  cfg.phi_max_s = sc.phi_max_small_s();
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(target);
  cfg.jitter = contact::IntervalJitter::kNormalTenth;
  cfg.seed = 3;
  return cfg;
}

/// run_experiment's single-node run, with a radio that misses each
/// would-be detection with probability `miss` (the fault plane's
/// probe_miss_prob, drawn from the node's own fault stream).
node::NodeSummary run_lossy(const RoadsideScenario& sc,
                            node::Scheduler& scheduler,
                            const ExperimentConfig& cfg, double miss) {
  sim::Rng rng{cfg.seed};
  auto schedule = std::make_shared<const contact::ContactSchedule>(
      sc.make_schedule(cfg.epochs, cfg.jitter, rng));
  node::SensorNodeConfig node_cfg;
  node_cfg.ton = sim::Duration::seconds(sc.snip.ton_s);
  node_cfg.epoch = sc.profile.epoch();
  node_cfg.budget_limit = sim::Duration::seconds(cfg.phi_max_s);
  node_cfg.sensing_rate_bps = cfg.sensing_rate_bps;
  fault::FaultSpec spec;
  spec.radio.probe_miss_prob = miss;
  fault::NodeFaultInjector faults{&spec, sim::Rng{spec.seed}};
  return node::summarize(node::run_lone_node(
      scheduler, std::move(schedule), sc.link, node_cfg,
      sc.profile.epoch() * static_cast<std::int64_t>(cfg.epochs), &faults));
}

TEST(FailureInjection, BeaconLossReducesCapacityNotStability) {
  const RoadsideScenario sc;
  SnipRh rh_lossy{sc.rush_mask, SnipRhConfig{}};
  SnipRh rh_clean{sc.rush_mask, SnipRhConfig{}};
  const auto rl = run_lossy(sc, rh_lossy, base_config(sc, 28.0), 0.3);
  const auto rc = run_lossy(sc, rh_clean, base_config(sc, 28.0), 0.0);
  // Without misses the helper's run is run_experiment's.
  SnipRh rh_reference{sc.rush_mask, SnipRhConfig{}};
  EXPECT_EQ(rc.mean_zeta_s,
            run_experiment(sc, rh_reference, base_config(sc, 28.0))
                .mean_zeta_s);
  EXPECT_LT(rl.mean_zeta_s, rc.mean_zeta_s);
  EXPECT_GT(rl.mean_zeta_s, 0.0);
  // Budget still respected (one in-flight wakeup of slack).
  EXPECT_LE(rl.mean_phi_s, 86.4 + 0.1);
}

TEST(FailureInjection, TotalLossProbesNothingButSpendsBudget) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r = run_lossy(sc, rh, base_config(sc, 16.0), 1.0);
  EXPECT_DOUBLE_EQ(r.mean_zeta_s, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_bytes_uploaded, 0.0);
  EXPECT_EQ(r.miss_ratio, 1.0);
  // Condition 2 stays true (nothing uploads), so probing continues until
  // the budget gate closes every epoch.
  EXPECT_NEAR(r.mean_phi_s, 86.4, 0.1);
}

TEST(FailureInjection, ZeroSensingRateNeverProbes) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  ExperimentConfig cfg = base_config(sc, 16.0);
  cfg.sensing_rate_bps = 0.0;  // nothing to upload, condition 2 never holds
  const auto r = run_experiment(sc, rh, cfg);
  EXPECT_DOUBLE_EQ(r.mean_phi_s, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_zeta_s, 0.0);
}

TEST(FailureInjection, EmptyMaskIsInert) {
  const RoadsideScenario sc;
  SnipRh rh{RushHourMask{sc.profile.epoch(), sc.profile.slot_count()},
            SnipRhConfig{}};
  const auto r = run_experiment(sc, rh, base_config(sc, 16.0));
  EXPECT_DOUBLE_EQ(r.mean_phi_s, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_zeta_s, 0.0);
}

TEST(FailureInjection, MisalignedMaskWastesEnergy) {
  // Mask covers dead-quiet night slots instead of the true rush hours:
  // SNIP-RH probes there and catches only the sparse off-peak contacts.
  const RoadsideScenario sc;
  SnipRh rh{RushHourMask::from_hours({2, 3}), SnipRhConfig{}};
  const auto r = run_experiment(sc, rh, base_config(sc, 16.0));
  EXPECT_LT(r.mean_zeta_s, 8.0);
  EXPECT_GT(r.rho(), 10.0);  // off-peak ρ = 18 vs 3 in rush hours
}

TEST(FailureInjection, TinyBudgetBoundsOverhead) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  ExperimentConfig cfg = base_config(sc, 56.0);
  cfg.phi_max_s = 1.0;  // one second of probing per day
  const auto r = run_experiment(sc, rh, cfg);
  EXPECT_LE(r.mean_phi_s, 1.0 + 0.025);  // at most one extra wakeup
  EXPECT_GT(r.mean_zeta_s, 0.0);
}

TEST(FailureInjection, BudgetExhaustionMidSlotStopsCleanly) {
  // Budget sized to run out inside the first rush slot: the second rush
  // block (17:00) must stay dark.
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  ExperimentConfig cfg = base_config(sc, 56.0);
  cfg.phi_max_s = 20.0;
  const auto r = run_experiment(sc, rh, cfg);
  EXPECT_LE(r.mean_phi_s, 20.0 + 0.025);
  // 20 s of budget at ρ=3 buys ~6.7 s of capacity.
  EXPECT_NEAR(r.mean_zeta_s, 20.0 / 3.0, 1.5);
}

TEST(FailureInjection, SparseContactsStillProbed) {
  // A profile with one contact every 2 hours everywhere: rare but long
  // contacts (20 s) must still be caught by the knee duty.
  RoadsideScenario sc;
  sc.profile = contact::ArrivalProfile::uniform(sim::Duration::hours(24), 24,
                                                7200.0);
  sc.tcontact_s = 20.0;
  sc.rush_mask = RushHourMask::from_hours(
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
       12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23});
  SnipRhConfig rh_cfg;
  rh_cfg.initial_tcontact_s = 20.0;
  SnipRh rh{sc.rush_mask, rh_cfg};
  ExperimentConfig cfg = base_config(sc, 16.0);
  cfg.phi_max_s = sc.phi_max_large_s();
  const auto r = run_experiment(sc, rh, cfg);
  EXPECT_GT(r.mean_contacts_probed, 6.0);  // most of the 12/day
}

}  // namespace
}  // namespace snipr::core
