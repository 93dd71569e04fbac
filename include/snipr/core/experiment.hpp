#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/core/metrics.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/node/lone_node.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/node/sensor_node.hpp"

/// \file experiment.hpp
/// End-to-end experiment driver: scenario + scheduler -> per-epoch metrics.
///
/// This regenerates the paper's simulation results (Figs. 7-8): it runs
/// one duty-cycled sensor node over a contact schedule for a number of
/// epochs (node::run_lone_node, the world every fleet node runs in too)
/// and reports per-epoch ζ (probed capacity), Φ (probing overhead),
/// ρ = Φ/ζ, upload volume, contact miss ratio and delivery latency.

namespace snipr::core {

/// Aggregated outcome of a run: the node::NodeSummary means over the
/// epochs after warm-up, plus the full per-epoch history.
struct RunResult : node::NodeSummary {
  std::string scheduler_name;
  std::vector<node::EpochStats> per_epoch;

  /// ρ = Φ/ζ of the epoch means (core::rho).
  [[nodiscard]] double rho() const noexcept {
    return core::rho(mean_phi_s, mean_zeta_s);
  }
};

struct ExperimentConfig {
  std::size_t epochs{14};  ///< the paper simulates two weeks
  /// Per-epoch probing budget Φmax (seconds of radio-on time).
  double phi_max_s{86.4};
  /// Data generation rate (bytes/s); use
  /// RoadsideScenario::sensing_rate_for_target.
  double sensing_rate_bps{1.0};
  /// Contact-interval jitter (kNone = analysis env, kNormalTenth = paper's
  /// simulation env).
  contact::IntervalJitter jitter{contact::IntervalJitter::kNormalTenth};
  /// Seeds the schedule run_experiment draws; a run over a given
  /// schedule draws nothing.
  std::uint64_t seed{1};
  /// Epochs dropped from the aggregate as warm-up (learning transients).
  std::size_t warmup_epochs{0};
};

/// Run `scheduler` over `scenario` and aggregate the outcome. Throws
/// std::invalid_argument naming the bad field of an unusable `config`.
[[nodiscard]] RunResult run_experiment(const RoadsideScenario& scenario,
                                       node::Scheduler& scheduler,
                                       const ExperimentConfig& config);

/// Variant over an explicit pre-built schedule (trace-driven runs).
[[nodiscard]] RunResult run_experiment_on_schedule(
    const RoadsideScenario& scenario, contact::ContactSchedule schedule,
    node::Scheduler& scheduler, const ExperimentConfig& config);

/// Variant over a shared immutable schedule: many runs (a BatchRunner
/// grid cell, concurrent workers) can execute against one materialised
/// schedule without copying it. A null schedule throws
/// std::invalid_argument.
[[nodiscard]] RunResult run_experiment_on_schedule(
    const RoadsideScenario& scenario,
    std::shared_ptr<const contact::ContactSchedule> schedule,
    node::Scheduler& scheduler, const ExperimentConfig& config);

}  // namespace snipr::core
