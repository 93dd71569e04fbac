/// Ablation A1: sensitivity of SNIP-RH to the duty-cycle choice.
///
/// Sec. VI-C argues d_rh = Ton/T̄contact (the knee) maximises rush-hour
/// capacity at the minimum per-unit cost ρ, and that ρ "does not increase
/// abruptly" slightly above the knee. This bench sweeps multiples of the
/// knee in both the fluid model and the two-week simulation; the
/// simulation points run concurrently through the shared BatchRunner
/// (pinned-duty schedulers via the custom-factory escape hatch).

#include <cstdio>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/snip_rh.hpp"

int main() {
  using namespace snipr;

  const core::RoadsideScenario sc;
  const model::EpochModel m = sc.make_model();
  const double knee = m.knee();
  const double target = 1e9;  // uncapped: measure raw capacity and cost
  const double phi_max = 1e9;
  const std::vector<double> multipliers{0.25, 0.5, 0.75,
                                        1.0,  1.25, 1.5,
                                        2.0,  4.0};

  std::vector<core::BatchRun> runs;
  for (const double mult : multipliers) {
    const double duty = knee * mult;
    core::BatchRun run;
    run.label = "A1-duty-sweep";
    run.scenario = sc;
    run.strategy = core::Strategy::kSnipRh;
    run.zeta_target_s = target;
    run.phi_max_s = phi_max;
    run.seed = 31;
    run.scheduler_factory = [&sc, duty] {
      core::SnipRhConfig rh_cfg;
      // Pin the duty by fixing the length estimate: duty = ton / estimate.
      rh_cfg.initial_tcontact_s = sc.snip.ton_s / duty;
      rh_cfg.length_ewma_weight = 1e-9;  // effectively frozen
      return std::make_unique<core::SnipRh>(sc.rush_mask, rh_cfg);
    };
    runs.push_back(std::move(run));
  }
  // The derived sensing rate is astronomical at target 1e9: data never
  // gates probing, matching the original hand-rolled loop's 1e6 B/s.
  const auto results = core::BatchRunner{}.run(runs);

  std::printf("# A1: duty sweep around the knee (knee = %.4f)\n", knee);
  std::printf("# %10s %10s | %10s %10s %8s | %10s %10s %8s\n", "duty/knee",
              "duty", "zeta_ana", "phi_ana", "rho_ana", "zeta_sim",
              "phi_sim", "rho_sim");

  for (std::size_t i = 0; i < multipliers.size(); ++i) {
    const double mult = multipliers[i];
    const double duty = knee * mult;
    const auto ana = m.snip_rh(sc.rush_mask.bits(), target, phi_max, duty);
    const core::RunResult& sim = results[i].run;
    std::printf("  %10.2f %10.4f | %10.2f %10.2f %8.2f | %10.2f %10.2f "
                "%8.2f\n",
                mult, duty, ana.metrics.zeta_s, ana.metrics.phi_s,
                ana.metrics.rho(), sim.mean_zeta_s, sim.mean_phi_s, sim.rho());
  }

  std::printf("# expectation: rho flat below the knee, gentle rise just "
              "above it, steep beyond 2x\n");
  return 0;
}
