/// Ablation A6: robustness of the knee duty to the contact-length
/// distribution (footnote 1 of the paper).
///
/// The knee d = Ton/T̄contact is derived for fixed-length contacts; the
/// paper claims it remains a good choice when lengths vary (exponential
/// case shown analytically). This bench compares, for four length
/// distributions with the same mean:
///  - the capacity-weighted Υ at the knee (analytic/Monte-Carlo), and
///  - simulated SNIP-RH ζ/Φ/ρ with the length learner running.

#include <cstdio>
#include <memory>

#include "snipr/core/experiment.hpp"
#include "snipr/core/snip_rh.hpp"
#include "snipr/model/snip_model.hpp"

namespace {

using namespace snipr;

struct Case {
  const char* name;
  std::unique_ptr<sim::Distribution> dist;
};

}  // namespace

int main() {
  const core::RoadsideScenario base;
  const double mean = base.tcontact_s;  // 2 s
  const double knee = base.make_model().knee();
  sim::Rng mc_rng{5};

  Case cases[] = {
      {"fixed", std::make_unique<sim::FixedDistribution>(mean)},
      {"normal(m/10)",
       std::make_unique<sim::TruncatedNormalDistribution>(mean, mean / 10.0)},
      {"exponential", std::make_unique<sim::ExponentialDistribution>(mean)},
      {"lognormal(0.5)",
       std::make_unique<sim::LognormalDistribution>(mean, 0.5)},
  };

  std::printf("# A6: contact-length distribution robustness "
              "(mean = %.1f s, knee duty = %.4f)\n", mean, knee);
  std::printf("# %-16s %14s | %10s %10s %8s\n", "distribution",
              "upsilon@knee", "zeta_sim", "phi_sim", "rho_sim");

  for (Case& c : cases) {
    const double upsilon = model::upsilon_monte_carlo(
        knee, *c.dist, base.snip.ton_s, 200000, mc_rng);

    // Simulated RH with the real learner; the environment draws lengths
    // from this distribution instead of the paper's default.
    core::RoadsideScenario sc = base;
    sim::Rng env_rng{77};
    contact::IntervalContactProcess process{
        sc.profile, c.dist->clone(), contact::IntervalJitter::kNormalTenth};
    contact::ContactSchedule schedule{
        contact::materialize(process, sim::Duration::hours(24) * 14,
                             env_rng)};
    core::SnipRh rh{sc.rush_mask, core::SnipRhConfig{}};
    core::ExperimentConfig cfg;
    cfg.epochs = 14;
    cfg.phi_max_s = 1e9;
    cfg.sensing_rate_bps = 1e6;
    cfg.seed = 13;
    const auto r = core::run_experiment_on_schedule(sc, std::move(schedule),
                                                    rh, cfg);

    std::printf("  %-16s %14.4f | %10.2f %10.2f %8.2f\n", c.name, upsilon,
                r.mean_zeta_s, r.mean_phi_s, r.rho());
  }

  std::printf("# expectation: exponential lengths double the linear-regime"
              " upsilon (E[l^2] = 2m^2) yet the knee duty keeps rho within"
              " a small factor across all shapes\n");
  return 0;
}
