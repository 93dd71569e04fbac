#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snipr/contact/schedule.hpp"
#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/model/epoch_model.hpp"
#include "snipr/node/scheduler.hpp"

/// \file regret_harness.hpp
/// Shared machinery for the censored-feedback regret benches
/// (bench_regret, bench_ablation_seasonal_shift).
///
/// A DriftScenario is a piecewise-stationary environment: a sequence of
/// RegimeSegments, each holding a catalog-derived RoadsideScenario for a
/// number of epochs. One ground-truth contact schedule is drawn per run
/// (segment by segment, spliced at epoch boundaries), and every policy —
/// plus the clairvoyant benchmark — replays the *same* schedule, so
/// per-epoch ζ differences measure scheduling quality, not draw luck.
///
/// The benchmark is SNIP-OPT with per-segment clairvoyance: at each
/// regime switch it is handed the water-filling max-capacity duty plan
/// for the new regime's true arrival profile (EpochModel::snip_opt with
/// an unreachable ζtarget saturates the budget). Regret of a policy is
/// Σ_e (ζ_opt[e] − ζ_policy[e]): what the learner's censored view of the
/// environment cost it, epoch by epoch.
// snipr-lint: oracle-file — a clairvoyant benchmark reads ground truth.

namespace snipr::bench {

struct RegimeSegment {
  core::RoadsideScenario scenario;
  std::size_t epochs{0};
};

struct DriftScenario {
  std::string name;
  std::vector<RegimeSegment> segments;

  [[nodiscard]] std::size_t total_epochs() const {
    std::size_t n = 0;
    for (const auto& seg : segments) n += seg.epochs;
    return n;
  }
  [[nodiscard]] const core::RoadsideScenario& front() const {
    return segments.front().scenario;
  }
};

/// The roadside profile with every rush hour moved `shift_hours` later.
inline contact::ArrivalProfile shifted_roadside(std::size_t shift_hours) {
  std::vector<double> intervals(24, 1800.0);
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) {
    intervals[(rush + shift_hours) % 24] = 300.0;
  }
  return contact::ArrivalProfile{sim::Duration::hours(24),
                                 std::move(intervals)};
}

/// Catalog entry's environment, by name (throws with the menu on typos).
inline core::RoadsideScenario catalog_scenario(std::string_view name) {
  return core::ScenarioCatalog::instance().at(name).scenario;
}

/// One ground-truth schedule across all segments, each segment offset to
/// its epoch range. A single Rng drives all segments in order, so the
/// whole drift scenario is one deterministic draw per seed.
inline contact::ContactSchedule build_drift_schedule(
    const DriftScenario& drift, contact::IntervalJitter jitter,
    sim::Rng& rng) {
  if (drift.segments.empty()) {
    throw std::invalid_argument("DriftScenario: no segments");
  }
  const sim::Duration epoch = drift.front().profile.epoch();
  std::vector<contact::Contact> all;
  std::size_t epochs_done = 0;
  for (const auto& seg : drift.segments) {
    if (seg.scenario.profile.epoch() != epoch) {
      throw std::invalid_argument(
          "DriftScenario: segments must share one epoch length");
    }
    const contact::ContactSchedule part =
        seg.scenario.make_schedule(seg.epochs, jitter, rng);
    const sim::Duration offset =
        epoch * static_cast<std::int64_t>(epochs_done);
    for (contact::Contact c : part.contacts()) {
      c.arrival = c.arrival + offset;
      all.push_back(c);
    }
    epochs_done += seg.epochs;
  }
  return contact::ContactSchedule{std::move(all)};
}

/// Clairvoyant per-segment SNIP-OPT: swaps in each regime's water-filling
/// max-capacity plan the moment the regime starts. The regret benchmark —
/// no real node can know the profile, let alone the switch times.
class SegmentedSnipOpt final : public node::Scheduler {
 public:
  SegmentedSnipOpt(const DriftScenario& drift, double phi_max_s) {
    // A ζtarget no plan can reach makes snip_opt return the pure
    // water-filling capacity maximiser under the budget.
    constexpr double kUnreachableZeta = 1e12;
    std::size_t epochs_done = 0;
    for (const auto& seg : drift.segments) {
      const model::EpochModel model = seg.scenario.make_model();
      const auto plan = model.snip_opt(kUnreachableZeta, phi_max_s);
      plans_.push_back(std::make_unique<core::SnipOpt>(
          plan.duties, seg.scenario.profile.epoch(),
          sim::Duration::seconds(seg.scenario.snip.ton_s)));
      epochs_done += seg.epochs;
      segment_end_epoch_.push_back(epochs_done);
    }
  }

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override {
    return active(ctx.epoch_index).on_wakeup(ctx);
  }
  /// A run never crosses the epoch boundary, so one plan vouches for it.
  [[nodiscard]] std::int64_t repeat_bound(
      const node::SensorContext& ctx, node::SchedulerDecision verdict,
      sim::Duration charge) const override {
    return active(ctx.epoch_index).repeat_bound(ctx, verdict, charge);
  }
  void commit_repeats(const node::SensorContext& ctx,
                      node::SchedulerDecision verdict,
                      std::int64_t k) override {
    active(ctx.epoch_index).commit_repeats(ctx, verdict, k);
  }
  [[nodiscard]] std::string name() const override {
    return "SNIP-OPT/clairvoyant";
  }

 private:
  [[nodiscard]] core::SnipOpt& active(std::int64_t epoch_index) const {
    const auto e = static_cast<std::size_t>(epoch_index < 0 ? 0 : epoch_index);
    for (std::size_t i = 0; i < segment_end_epoch_.size(); ++i) {
      if (e < segment_end_epoch_[i]) return *plans_[i];
    }
    return *plans_.back();
  }

  std::vector<std::unique_ptr<core::SnipOpt>> plans_;
  std::vector<std::size_t> segment_end_epoch_;
};

/// Per-epoch probed capacity ζ of one scheduler replaying `schedule`.
/// Generous sensing rate (no data gating) isolates probing quality; the
/// small per-epoch budget (Φmax = Tepoch/1000 by default) makes wasted
/// probing effort — the cost of a stale mask — actually hurt.
inline std::vector<double> run_per_epoch_zeta(
    node::Scheduler& scheduler, const contact::ContactSchedule& schedule,
    const core::RoadsideScenario& sc, std::size_t epochs,
    double phi_max_s) {
  core::ExperimentConfig cfg;
  cfg.epochs = epochs;
  cfg.phi_max_s = phi_max_s;
  cfg.sensing_rate_bps = 1e6;  // no data gating: isolates mask quality
  cfg.seed = 3;
  const core::RunResult run =
      core::run_experiment_on_schedule(sc, schedule, scheduler, cfg);
  std::vector<double> zetas;
  for (const auto& e : run.per_epoch) {
    zetas.push_back(e.zeta.to_seconds());
  }
  return zetas;
}

/// One competing policy: a named AdaptiveSnipRh configuration.
struct PolicySpec {
  std::string name;
  core::AdaptiveSnipRhConfig config;
};

/// The bench operating point: Φmax = Tepoch/500. Tight enough that a
/// 4-slot knee-duty mask (≈Tepoch/600 per slot-hour) nearly fills it —
/// wasted probing hurts — yet with enough headroom that a deliberate
/// exploration duty is a choice, not a death sentence.
[[nodiscard]] inline double regret_budget_s(
    const core::RoadsideScenario& sc) {
  return sc.profile.epoch().to_seconds() / 500.0;
}

/// The bench's policy panel. All share the learning phase and rush-slot
/// count; they differ only in how (whether) they keep observing slots the
/// adopted mask censors:
///  - naive: tracking and exploration off — the fully censored learner.
///  - eps-floor / ucb: tracking off, exploration duty floor on; the duty
///    is sized so the panel spends comparable off-mask energy.
///  - optimistic: no extra wakeups; under-explored slots get trial mask
///    membership via inflated scores.
inline std::vector<PolicySpec> regret_policies() {
  const auto base = [] {
    core::AdaptiveSnipRhConfig cfg;
    cfg.learning_epochs = 3;
    // Must fit the bench budget: Φmax = Tepoch/1000 sustains exactly duty
    // 1e-3 around the clock. Any more and SNIP-AT exhausts the budget
    // mid-day — the learner then literally never sees the afternoon, and
    // every policy "learns" that evenings are empty.
    cfg.learning_duty = 0.001;
    cfg.tracking_duty = 0.0;
    cfg.rush_slots = 4;
    return cfg;
  };
  std::vector<PolicySpec> policies;
  {
    PolicySpec p{.name = "naive", .config = base()};
    policies.push_back(std::move(p));
  }
  {
    // Two slots per epoch at a duty high enough that one epoch's visit
    // yields a trustworthy rate sample (full 24h coverage every ~10
    // epochs). Many low-duty slots instead produce lucky-single-probe
    // samples that churn the mask.
    PolicySpec p{.name = "eps-floor", .config = base()};
    p.config.exploration.kind = core::ExplorationPolicyKind::kEpsilonFloor;
    p.config.exploration.epsilon = 0.125;
    p.config.exploration.explore_duty = 0.002;
    policies.push_back(std::move(p));
  }
  {
    PolicySpec p{.name = "ucb", .config = base()};
    p.config.exploration.kind = core::ExplorationPolicyKind::kUcb;
    p.config.exploration.epsilon = 0.125;
    p.config.exploration.explore_duty = 0.002;
    p.config.exploration.ucb_c = 0.7;
    policies.push_back(std::move(p));
  }
  {
    // Trial-membership exploration: the least-explored slot's score is
    // lifted toward the best incumbent's, so the hysteresis admits it
    // exactly when an incumbent has decayed (drift!); a trial epoch at
    // knee duty then produces an honest sample, and the lifetime-effort
    // bookkeeping rotates the next trial elsewhere.
    PolicySpec p{.name = "optimistic", .config = base()};
    p.config.exploration.kind = core::ExplorationPolicyKind::kOptimistic;
    p.config.exploration.optimism_slots = 1;
    p.config.exploration.optimism_scale = 0.8;
    p.config.exploration.optimism_effort_floor_s = 25.0;
    policies.push_back(std::move(p));
  }
  return policies;
}

/// The drift catalog: four stationary environments straight from the
/// scenario catalog (learning-cost regret) and three piecewise regimes
/// (censoring regret — the mask learned in one regime is wrong in the
/// next, and only exploration notices).
inline std::vector<DriftScenario> drift_catalog() {
  std::vector<DriftScenario> out;

  const auto stationary = [&](std::string_view name, std::size_t epochs) {
    DriftScenario d;
    d.name = std::string{name};
    d.segments.push_back({catalog_scenario(name), epochs});
    out.push_back(std::move(d));
  };
  stationary("roadside", 24);
  stationary("commuter-asym", 24);
  stationary("night-shift", 24);
  stationary("bursty-convoy", 24);

  {
    // Weekday/weekend alternation: commute rushes five epochs, leisure
    // peaks two, repeating — the weekly censoring trap.
    DriftScenario d;
    d.name = "weekday-weekend";
    const core::RoadsideScenario weekday = catalog_scenario("roadside");
    const core::RoadsideScenario weekend = catalog_scenario("weekend");
    for (int week = 0; week < 4; ++week) {
      d.segments.push_back({weekday, 5});
      d.segments.push_back({weekend, 2});
    }
    out.push_back(std::move(d));
  }
  {
    // Rush hours migrate +2 h every week; a frozen mask decays one slot
    // at a time.
    DriftScenario d;
    d.name = "migrating-peaks";
    for (const std::size_t shift : {0U, 2U, 4U, 6U}) {
      core::RoadsideScenario sc;
      sc.profile = shifted_roadside(shift);
      d.segments.push_back({std::move(sc), 7});
    }
    out.push_back(std::move(d));
  }
  {
    // A flat-adversarial interlude erases the diurnal structure for a
    // week, then the original rushes return. Policies that unlearn the
    // mask during the interlude must rediscover it — without ground
    // truth, only via whatever off-mask probing they still do.
    DriftScenario d;
    d.name = "flat-interlude";
    d.segments.push_back({catalog_scenario("roadside"), 10});
    d.segments.push_back({catalog_scenario("flat-adversarial"), 8});
    d.segments.push_back({catalog_scenario("roadside"), 10});
    out.push_back(std::move(d));
  }
  return out;
}

/// Aggregate regret of one policy run against the clairvoyant ζ trace.
struct RegretSummary {
  double cumulative_regret_s{0.0};
  double mean_regret_s{0.0};
  double mean_zeta_s{0.0};
  double opt_mean_zeta_s{0.0};
};

inline RegretSummary summarize_regret(const std::vector<double>& opt_zeta,
                                      const std::vector<double>& policy_zeta) {
  RegretSummary s;
  const std::size_t n = std::min(opt_zeta.size(), policy_zeta.size());
  if (n == 0) return s;
  for (std::size_t e = 0; e < n; ++e) {
    s.cumulative_regret_s += opt_zeta[e] - policy_zeta[e];
    s.mean_zeta_s += policy_zeta[e];
    s.opt_mean_zeta_s += opt_zeta[e];
  }
  s.mean_regret_s = s.cumulative_regret_s / static_cast<double>(n);
  s.mean_zeta_s /= static_cast<double>(n);
  s.opt_mean_zeta_s /= static_cast<double>(n);
  return s;
}

}  // namespace snipr::bench
