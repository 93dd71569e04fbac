#include "snipr/core/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/model/optimizer.hpp"

namespace snipr::core {
namespace {

ExperimentConfig quick_config(double phi_max_s, double target_s,
                              const RoadsideScenario& sc) {
  ExperimentConfig cfg;
  cfg.epochs = 6;
  cfg.phi_max_s = phi_max_s;
  cfg.sensing_rate_bps = sc.sensing_rate_for_target(target_s);
  // The paper's simulation environment: jittered intervals. A fully
  // deterministic environment phase-locks contact arrivals against the
  // radio grid (all arrivals ≡ 0 mod 20 s) and is unusable for averages.
  cfg.jitter = contact::IntervalJitter::kNormalTenth;
  cfg.seed = 1;
  return cfg;
}

TEST(Experiment, SnipRhTracksFluidModel) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r =
      run_experiment(sc, rh, quick_config(86.4, 16.0, sc));
  EXPECT_EQ(r.scheduler_name, "SNIP-RH");
  EXPECT_EQ(r.epochs, 6U);
  // ζ tracks the target; condition 2 (probe only with a contact's worth
  // of data buffered) makes simulated Φ at most the fluid bound 3·ζ —
  // typically below it, since probing pauses while data accumulates.
  EXPECT_NEAR(r.mean_zeta_s, 16.0, 2.5);
  EXPECT_LE(r.mean_phi_s, 48.0 * 1.1);
  EXPECT_GT(r.mean_phi_s, 10.0);
  EXPECT_LE(r.rho(), 3.3);
}

TEST(Experiment, SnipAtHitsBudgetCapAtSmallBudget) {
  const RoadsideScenario sc;
  const auto model = sc.make_model();
  const auto plan = model.snip_at(16.0, 86.4);
  SnipAt at{plan.duties[0], sim::Duration::seconds(sc.snip.ton_s)};
  const auto r = run_experiment(sc, at, quick_config(86.4, 16.0, sc));
  EXPECT_NEAR(r.mean_phi_s, 86.4, 2.0);
  EXPECT_NEAR(r.mean_zeta_s, 8.8, 2.5);
  EXPECT_LT(r.mean_zeta_s, 16.0);
}

TEST(Experiment, SnipOptExecutesPlan) {
  const RoadsideScenario sc;
  const auto model = sc.make_model();
  const auto plan = model.snip_opt(24.0, 86.4);
  SnipOpt opt{plan.duties, sc.profile.epoch(),
              sim::Duration::seconds(sc.snip.ton_s)};
  const auto r = run_experiment(sc, opt, quick_config(86.4, 24.0, sc));
  // OPT executes its plan without data gating: ζ and Φ match the fluid
  // prediction (24 s at ρ = 3).
  EXPECT_NEAR(r.mean_zeta_s, 24.0, 3.5);
  EXPECT_NEAR(r.mean_phi_s, 72.0, 8.0);
}

TEST(Experiment, WarmupEpochsAreExcluded) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  ExperimentConfig cfg = quick_config(86.4, 16.0, sc);
  cfg.warmup_epochs = 2;
  const auto r = run_experiment(sc, rh, cfg);
  EXPECT_EQ(r.epochs, 4U);                  // 6 simulated − 2 warm-up
  EXPECT_EQ(r.per_epoch.size(), 6U);        // history still complete
  // Each reported mean is the in-order mean over per_epoch[2..], to the
  // last bit.
  const auto mean = [&r](auto field) {
    double sum = 0.0;
    for (std::size_t e = 2; e < r.per_epoch.size(); ++e) {
      sum += field(r.per_epoch[e]);
    }
    return sum / 4.0;
  };
  using node::EpochStats;
  EXPECT_EQ(r.mean_zeta_s,
            mean([](const EpochStats& e) { return e.zeta.to_seconds(); }));
  EXPECT_EQ(r.mean_phi_s,
            mean([](const EpochStats& e) { return e.phi.to_seconds(); }));
  EXPECT_EQ(r.mean_bytes_uploaded,
            mean([](const EpochStats& e) { return e.bytes_uploaded; }));
  EXPECT_EQ(r.mean_contacts_probed, mean([](const EpochStats& e) {
              return static_cast<double>(e.contacts_probed);
            }));
  EXPECT_EQ(r.mean_wakeups, mean([](const EpochStats& e) {
              return static_cast<double>(e.wakeups);
            }));
  EXPECT_EQ(r.probing_energy_j,
            mean([](const EpochStats& e) { return e.probing_energy_j; }));
  EXPECT_EQ(r.transfer_energy_j,
            mean([](const EpochStats& e) { return e.transfer_energy_j; }));
}

TEST(Experiment, ConfigsWithNothingToReportAreRejectedByName) {
  // Each would otherwise report ζ = Φ = ρ = 0, or probe nothing, and
  // look like a run.
  const RoadsideScenario sc;
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    std::size_t epochs;
    std::size_t warmup;
    double phi_max_s;
    const char* field;
  } cases[] = {
      {0, 0, 86.4, "ExperimentConfig::epochs"},
      {14, 14, 86.4, "ExperimentConfig::warmup_epochs"},
      {14, 20, 86.4, "ExperimentConfig::warmup_epochs"},
      {6, 0, inf, "ExperimentConfig::phi_max_s"},
      {6, 0, std::numeric_limits<double>::quiet_NaN(),
       "ExperimentConfig::phi_max_s"},
      {6, 0, -1.0, "ExperimentConfig::phi_max_s"},
  };
  for (const auto& c : cases) {
    ExperimentConfig cfg = quick_config(86.4, 16.0, sc);
    cfg.epochs = c.epochs;
    cfg.warmup_epochs = c.warmup;
    cfg.phi_max_s = c.phi_max_s;
    SnipRh rh{sc.rush_mask, SnipRhConfig{}};
    try {
      (void)run_experiment(sc, rh, cfg);
      ADD_FAILURE() << c.field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(c.field), std::string::npos)
          << e.what();
    }
    sim::Rng rng{1};
    EXPECT_THROW((void)run_experiment_on_schedule(
                     sc, sc.make_schedule(1, cfg.jitter, rng), rh, cfg),
                 std::invalid_argument)
        << c.field;
  }
  // A NaN rate ran and reported 0 bytes and 0 s latency; +inf reported
  // finite bytes and latency.
  for (const double rate :
       {std::numeric_limits<double>::quiet_NaN(), inf, -1.0}) {
    SCOPED_TRACE("sensing_rate_bps = " + std::to_string(rate));
    ExperimentConfig cfg = quick_config(86.4, 16.0, sc);
    cfg.epochs = 3;
    cfg.sensing_rate_bps = rate;
    SnipAt at{0.01, sim::Duration::seconds(sc.snip.ton_s)};
    try {
      (void)run_experiment(sc, at, cfg);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(
                    "ExperimentConfig::sensing_rate_bps"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Experiment, NullScheduleIsRejected) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  EXPECT_THROW(
      (void)run_experiment_on_schedule(
          sc, std::shared_ptr<const contact::ContactSchedule>{}, rh,
          quick_config(86.4, 16.0, sc)),
      std::invalid_argument);
}

TEST(Experiment, MissRatioWithinBounds) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r = run_experiment(sc, rh, quick_config(86.4, 16.0, sc));
  EXPECT_GE(r.miss_ratio, 0.0);
  EXPECT_LE(r.miss_ratio, 1.0);
  // RH deliberately ignores off-peak contacts: the miss ratio is large.
  EXPECT_GT(r.miss_ratio, 0.4);
}

TEST(Experiment, DeliveryLatencyIsPositive) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r = run_experiment(sc, rh, quick_config(86.4, 16.0, sc));
  EXPECT_GT(r.mean_delivery_latency_s, 0.0);
  // Data waits for rush hours: latency is hours, below a day.
  EXPECT_LT(r.mean_delivery_latency_s, 86400.0);
}

TEST(Experiment, DifferentSeedsAgreeOnAverages) {
  const RoadsideScenario sc;
  ExperimentConfig cfg = quick_config(86.4, 16.0, sc);
  SnipRh rh1{sc.rush_mask, SnipRhConfig{}};
  const auto a = run_experiment(sc, rh1, cfg);
  cfg.seed = 999;
  SnipRh rh2{sc.rush_mask, SnipRhConfig{}};
  const auto b = run_experiment(sc, rh2, cfg);
  EXPECT_NEAR(a.mean_zeta_s, b.mean_zeta_s, 4.0);
  EXPECT_NEAR(a.mean_phi_s, b.mean_phi_s, 12.0);
}

TEST(Experiment, SeedsAreReproducible) {
  const RoadsideScenario sc;
  ExperimentConfig cfg = quick_config(86.4, 16.0, sc);
  cfg.jitter = contact::IntervalJitter::kNormalTenth;
  SnipRh rh1{sc.rush_mask, SnipRhConfig{}};
  SnipRh rh2{sc.rush_mask, SnipRhConfig{}};
  const auto a = run_experiment(sc, rh1, cfg);
  const auto b = run_experiment(sc, rh2, cfg);
  EXPECT_DOUBLE_EQ(a.mean_zeta_s, b.mean_zeta_s);
  EXPECT_DOUBLE_EQ(a.mean_phi_s, b.mean_phi_s);
  EXPECT_DOUBLE_EQ(a.mean_bytes_uploaded, b.mean_bytes_uploaded);
}

TEST(Experiment, ExplicitScheduleVariant) {
  const RoadsideScenario sc;
  sim::Rng rng{5};
  auto schedule =
      sc.make_schedule(6, contact::IntervalJitter::kNormalTenth, rng);
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r = run_experiment_on_schedule(
      sc, std::move(schedule), rh, quick_config(86.4, 16.0, sc));
  EXPECT_NEAR(r.mean_zeta_s, 16.0, 3.0);
}

TEST(Experiment, EnergyMetricsReported) {
  const RoadsideScenario sc;
  SnipRh rh{sc.rush_mask, SnipRhConfig{}};
  const auto r = run_experiment(sc, rh, quick_config(86.4, 16.0, sc));
  EXPECT_GT(r.probing_energy_j, 0.0);
  EXPECT_GT(r.transfer_energy_j, 0.0);
  // Probing at ~56 mW for ~48 s/epoch: ~2.7 J.
  EXPECT_NEAR(r.probing_energy_j, 48.0 * 0.0564, 0.7);
}

}  // namespace
}  // namespace snipr::core
