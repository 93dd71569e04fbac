#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/core/strategy.hpp"

/// \file batch_runner.hpp
/// Parallel batch experiment engine.
///
/// The paper's evaluation is a grid: mechanism × ζtarget × Φmax × seed
/// (Figs. 5-8), and every scaling question we care about — more scenarios,
/// more seeds, more strategies — is the same grid grown larger. The
/// BatchRunner takes that grid as a declarative list of `BatchRun`s, fans
/// the runs out across a `core::ThreadPool` (each run owns an independent
/// node seeded from its own spec, so no state is shared between
/// workers), and returns results in spec order. Because each run's
/// RNG stream is a pure function of its spec, the output — including the
/// aggregated JSON — is byte-identical no matter how many workers execute
/// it.
///
/// `bench_fig7/8`, the ablation drivers and `snipr_cli batch` all feed
/// this one engine instead of hand-rolling their own sweep loops.

namespace snipr::core {

/// One fully specified experiment: scenario × strategy × point × seed.
struct BatchRun {
  /// Scenario grouping key carried through to results and JSON (e.g.
  /// "roadside", "roadside+shift").
  std::string label{"roadside"};
  RoadsideScenario scenario{};
  Strategy strategy{Strategy::kSnipRh};
  double zeta_target_s{16.0};
  double phi_max_s{86.4};
  std::uint64_t seed{1};
  std::size_t epochs{14};
  std::size_t warmup_epochs{0};
  contact::IntervalJitter jitter{contact::IntervalJitter::kNormalTenth};
  /// Escape hatch for bespoke drivers (pinned duties, ablations): when
  /// set, used instead of `make_scheduler(scenario, strategy, ...)`. Must
  /// be safe to call from a worker thread; each call must return a fresh
  /// scheduler.
  std::function<std::unique_ptr<node::Scheduler>()> scheduler_factory{};

  /// The ExperimentConfig this spec denotes (sensing rate derived from
  /// ζtarget as in Sec. VII-A.2).
  [[nodiscard]] ExperimentConfig experiment_config() const;
};

/// Outcome of one BatchRun, carrying its identity for grouping.
struct BatchRunResult {
  std::string label;
  Strategy strategy{Strategy::kSnipRh};
  double zeta_target_s{0.0};
  double phi_max_s{0.0};
  std::uint64_t seed{0};
  RunResult run;

  /// Joules (probing + transfer) per probed contact; 0 when no contact
  /// was probed.
  [[nodiscard]] double energy_per_contact_j() const noexcept {
    const double joules_per_epoch =
        run.probing_energy_j + run.transfer_energy_j;
    return run.mean_contacts_probed > 0.0
               ? joules_per_epoch / run.mean_contacts_probed
               : 0.0;
  }
};

/// Seed-averaged view of one (label, strategy, ζtarget, Φmax) cell.
struct BatchAggregate {
  std::string label;
  Strategy strategy{Strategy::kSnipRh};
  double zeta_target_s{0.0};
  double phi_max_s{0.0};
  std::size_t seeds{0};
  double mean_zeta_s{0.0};
  double mean_phi_s{0.0};
  double mean_miss_ratio{0.0};
  double mean_probes_issued{0.0};  ///< SNIP wakeups per epoch
  double mean_energy_per_contact_j{0.0};
  double mean_probing_energy_j{0.0};
  double mean_delivery_latency_s{0.0};

  /// ρ = Φ/ζ of the seed-averaged means (core::rho).
  [[nodiscard]] double rho() const noexcept {
    return core::rho(mean_phi_s, mean_zeta_s);
  }
};

/// Declarative grid: the cartesian product strategies × targets × budgets
/// × seeds over one scenario.
struct SweepSpec {
  std::string label{"roadside"};
  RoadsideScenario scenario{};
  std::vector<Strategy> strategies{Strategy::kSnipAt, Strategy::kSnipOpt,
                                   Strategy::kSnipRh};
  std::vector<double> zeta_targets_s{16.0, 24.0, 32.0, 40.0, 48.0, 56.0};
  std::vector<double> phi_maxes_s{86.4};
  std::vector<std::uint64_t> seeds{1};
  std::size_t epochs{14};
  std::size_t warmup_epochs{0};
  contact::IntervalJitter jitter{contact::IntervalJitter::kNormalTenth};
};

/// Expand a sweep into concrete runs, in deterministic grid order
/// (strategy-major, then target, budget, seed).
[[nodiscard]] std::vector<BatchRun> expand_sweep(const SweepSpec& sweep);

class BatchRunner {
 public:
  struct Config {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    std::size_t threads{0};
  };

  BatchRunner() : BatchRunner(Config{}) {}
  explicit BatchRunner(Config config);

  /// Execute every run. Results are in spec order and independent of the
  /// worker count. A run that throws stops the hand-out of later runs,
  /// and the exception of the lowest failed run index is rethrown after
  /// all workers join.
  ///
  /// Contact schedules are shared across the grid: a schedule is a pure
  /// function of (scenario, epochs, jitter, seed), so every distinct
  /// combination is materialised exactly once (in parallel) and the runs
  /// of a group — typically all strategies × targets × budgets of one
  /// seed — execute against one immutable shared schedule. Results are
  /// byte-identical to building a private schedule per run.
  [[nodiscard]] std::vector<BatchRunResult> run(
      const std::vector<BatchRun>& runs) const;

  /// Process-wide count of schedules materialised by run() so far.
  /// Tests use deltas to pin the build-each-schedule-once guarantee.
  [[nodiscard]] static std::uint64_t schedule_builds() noexcept;

  /// Group results by (label, strategy, ζtarget, Φmax), averaging across
  /// seeds. Order follows first appearance in `results`.
  [[nodiscard]] static std::vector<BatchAggregate> aggregate(
      const std::vector<BatchRunResult>& results);

  /// Serialise per-run and aggregated metrics as JSON (schema
  /// "snipr.batch.v1"). Deterministic: same results, same bytes.
  [[nodiscard]] static std::string to_json(
      const std::vector<BatchRunResult>& results);

  /// Write `json` to `path`, verifying the full payload reached the
  /// filesystem; a diagnostic goes to stderr on any failure.
  [[nodiscard]] static bool write_json_file(const std::string& json,
                                            const char* path);

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  std::size_t threads_;
};

}  // namespace snipr::core
