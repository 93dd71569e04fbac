#pragma once

/// Shared helpers for the figure-regeneration benches.
///
/// Every `bench_fig*` binary prints the data series behind one figure of
/// the paper (Wu, Brown, Sreenan, ICDCSW 2011) in a gnuplot-friendly
/// column format; README.md ("Run experiments") shows how to run them.
///
/// Analysis figures (5/6) evaluate the fluid model directly; simulation
/// figures (7/8) fan their mechanism × ζtarget grid out through the
/// shared `core::BatchRunner` instead of looping serially. Environments
/// are resolved by name from the `core::ScenarioCatalog` — the same
/// entries the golden corpus pins — instead of being hand-rolled here.

#include <cstdio>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/metrics.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"

namespace snipr::bench {

struct Point {
  double zeta;
  double phi;
  [[nodiscard]] double rho() const { return core::rho(phi, zeta); }
};

inline constexpr std::array<core::Strategy, 3> kFigureStrategies{
    core::Strategy::kSnipAt, core::Strategy::kSnipOpt, core::Strategy::kSnipRh};

/// Fluid-model outcome of one mechanism at one (target, budget) point.
inline Point analysis_point(const core::RoadsideScenario& sc,
                            const model::EpochModel& m,
                            core::Strategy mechanism, double target,
                            double phi_max) {
  model::ScheduleOutcome out;
  switch (mechanism) {
    case core::Strategy::kSnipAt:
      out = m.snip_at(target, phi_max);
      break;
    case core::Strategy::kSnipOpt:
      out = m.snip_opt(target, phi_max);
      break;
    default:
      out = m.snip_rh(sc.rush_mask.bits(), target, phi_max);
      break;
  }
  return {out.metrics.zeta_s, out.metrics.phi_s};
}

/// Print the three-panel series (ζ, Φ, ρ vs ζtarget) of one Fig. 5-8 style
/// figure. `point` maps (mechanism, target) to a Point.
template <typename PointFn>
void print_figure(const char* title, double phi_max, PointFn&& point) {
  std::printf("# %s  (phi_max = %.1f s)\n", title, phi_max);
  std::printf("# %8s | %10s %10s %10s | %10s %10s %10s | %8s %8s %8s\n",
              "target_s", "zeta_AT", "zeta_OPT", "zeta_RH", "phi_AT",
              "phi_OPT", "phi_RH", "rho_AT", "rho_OPT", "rho_RH");
  for (const double target : core::RoadsideScenario::zeta_targets_s()) {
    const Point at = point(core::Strategy::kSnipAt, target);
    const Point opt = point(core::Strategy::kSnipOpt, target);
    const Point rh = point(core::Strategy::kSnipRh, target);
    std::printf("  %8.0f | %10.2f %10.2f %10.2f | %10.2f %10.2f %10.2f | "
                "%8.2f %8.2f %8.2f\n",
                target, at.zeta, opt.zeta, rh.zeta, at.phi, opt.phi, rh.phi,
                at.rho(), opt.rho(), rh.rho());
  }
  std::printf("\n");
}

/// Run one simulated figure (AT/OPT/RH × published targets at one Φmax,
/// Figs. 7/8 methodology: normal-jittered intervals and lengths, per-day
/// averages) through the BatchRunner worker pool and print it. Also emits
/// the aggregate JSON to `json_path` when non-null, so figure data feeds
/// the same pipeline as `snipr_cli batch`. Returns false when that dump
/// was requested but could not be written.
[[nodiscard]] inline bool print_simulated_figure(
    const char* title, const core::RoadsideScenario& sc, double phi_max,
    std::uint64_t seed, const char* json_path = nullptr) {
  core::SweepSpec sweep;
  sweep.scenario = sc;
  sweep.strategies.assign(kFigureStrategies.begin(), kFigureStrategies.end());
  const auto targets = core::RoadsideScenario::zeta_targets_s();
  sweep.zeta_targets_s.assign(targets.begin(), targets.end());
  sweep.phi_maxes_s = {phi_max};
  sweep.seeds = {seed};

  const std::vector<core::BatchRun> runs = core::expand_sweep(sweep);
  const auto results = core::BatchRunner{}.run(runs);

  auto lookup = [&](core::Strategy mechanism, double target) -> Point {
    for (const core::BatchRunResult& r : results) {
      if (r.strategy == mechanism && r.zeta_target_s == target) {
        return {r.run.mean_zeta_s, r.run.mean_phi_s};
      }
    }
    return {0.0, 0.0};
  };
  print_figure(title, phi_max, lookup);

  if (json_path != nullptr) {
    if (!core::BatchRunner::write_json_file(core::BatchRunner::to_json(results),
                                            json_path)) {
      return false;
    }
    std::printf("# aggregate JSON written to %s\n", json_path);
  }
  return true;
}

/// Catalog-entry variant: the entry carries both the environment and its
/// published budget.
[[nodiscard]] inline bool print_simulated_figure(
    const char* title, const core::CatalogEntry& entry, std::uint64_t seed,
    const char* json_path = nullptr) {
  return print_simulated_figure(title, entry.scenario, entry.phi_max_s, seed,
                                json_path);
}

}  // namespace snipr::bench
