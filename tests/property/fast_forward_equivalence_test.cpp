/// Property: fast-forwarding runs of repeated verdicts changes no output
/// bit.
///
/// A node whose scheduler overrides `Scheduler::skip_missed_probes`
/// charges a run of provably empty SNIP wakeups, or of idle polls, in one
/// step; wrapped in the pass-through decorator
/// (tests/support/pass_through_scheduler.hpp), which withholds that
/// hook, the same scheduler runs every wakeup through `on_wakeup`. The
/// two must agree byte for byte:
///  - on a reduced copy of every fleet catalog entry, through
///    `FleetEngine::run`'s schedules overload (`snipr.fleet.v1`/`v3`
///    JSON), faults included — `chaos-lossy-radio`'s spurious detections
///    keep every probing wakeup on the per-wakeup path, which the tally
///    confirms;
///  - on single-node experiments for every strategy × exploration policy
///    over several scenarios, one with a Φmax tight enough that runs end
///    on the budget (every RunResult field and per-epoch row, hexfloat);
///  - on a slice of the paper's Fig. 7/8 grid, where adaptive SNIP-RH
///    must skip both budget-spent polls and lone tracker probes.
/// A third, hook-forwarding counting run shows the fast path really ran:
/// its scheduler calls plus skipped wakeups equal the reference's calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snipr/contact/trace_replay.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/trace/trace_catalog.hpp"
#include "support/pass_through_scheduler.hpp"
#include "support/road_inputs.hpp"

namespace snipr {
namespace {

using testing::PassThroughScheduler;
using testing::PassThroughTally;
using Hook = PassThroughScheduler::Hook;

constexpr std::uint64_t kSeed = 9;

// --- Fleets --------------------------------------------------------------

constexpr std::size_t kFleetNodes = 12;
constexpr std::size_t kFleetEpochs = 5;  // past the adaptive learning phase

/// Node schedules for `spec`, built the way the engine builds them: node
/// streams forked first, then the vehicle flow and exit draws (road), or
/// one rotated, jittered replay per node (trace).
std::vector<contact::ContactSchedule> fleet_schedules(
    const deploy::FleetSpec& spec, sim::Duration horizon) {
  const deploy::TraceWorkload* trace = spec.trace_workload();
  if (trace == nullptr) {
    return testing::road_contact_plan(spec, kSeed, horizon).schedules;
  }
  sim::Rng root{kSeed};
  for (std::size_t i = 0; i < spec.nodes; ++i) (void)root.fork();
  const trace::TraceEntry& entry =
      trace::TraceCatalog::instance().at(trace->trace);
  const std::vector<contact::Contact> base =
      trace::TraceCatalog::load(entry, trace->data_dir);
  std::vector<contact::ContactSchedule> schedules;
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    contact::TraceReplayConfig config;
    config.period = entry.epoch;
    config.offset =
        sim::Duration::seconds(trace->stagger_s * static_cast<double>(i));
    config.jitter_stddev_s = trace->jitter_stddev_s;
    contact::TraceReplayProcess process{base, config};
    sim::Rng rng = root.fork();
    schedules.emplace_back(contact::materialize(process, horizon, rng));
  }
  return schedules;
}

std::vector<std::string> fleet_entry_names() {
  std::vector<std::string> names;
  for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
    if (entry.is_fleet()) names.push_back(entry.name);
  }
  return names;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class FleetFastForward : public ::testing::TestWithParam<std::string> {};

TEST_P(FleetFastForward, SameJsonWithAndWithoutThePassThroughWrapper) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(GetParam());
  deploy::FleetSpec spec = *entry.fleet;
  spec.nodes = std::min(spec.nodes, kFleetNodes);
  deploy::FleetConfig config;
  config.deployment = deploy::make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, kFleetEpochs, kSeed);
  config.shards = 3;
  config.threads = 2;
  const sim::Duration horizon =
      spec.flow_profile.epoch() * static_cast<std::int64_t>(kFleetEpochs);
  const std::vector<contact::ContactSchedule> schedules =
      fleet_schedules(spec, horizon);
  const double phi_max_s =
      config.deployment.node.budget_limit.to_seconds();
  const auto make = [&] {
    return core::make_scheduler(entry.scenario, spec.strategy,
                                spec.zeta_target_s, phi_max_s,
                                spec.exploration);
  };

  const deploy::FleetEngine engine;
  const std::string plain = deploy::FleetEngine::to_json(engine.run(
      schedules, [&](std::size_t) { return make(); }, config,
      spec.faults.get()));
  PassThroughTally reference_tally;
  const std::string reference = deploy::FleetEngine::to_json(engine.run(
      schedules,
      [&](std::size_t) {
        return std::make_unique<PassThroughScheduler>(
            make(), Hook::kWithhold, &reference_tally);
      },
      config, spec.faults.get()));
  PassThroughTally forward_tally;
  const std::string counted = deploy::FleetEngine::to_json(engine.run(
      schedules,
      [&](std::size_t) {
        return std::make_unique<PassThroughScheduler>(make(), Hook::kForward,
                                                      &forward_tally);
      },
      config, spec.faults.get()));

  EXPECT_EQ(plain, reference) << entry.name;
  EXPECT_EQ(plain, counted) << entry.name;
  EXPECT_EQ(reference_tally.skipped(), 0U);
  EXPECT_EQ(forward_tally.wakeup_calls.load() + forward_tally.skipped(),
            reference_tally.wakeup_calls.load())
      << entry.name;
  const bool spurious = spec.faults != nullptr &&
                        spec.faults->radio.spurious_detect_prob > 0.0;
  if (spurious) {
    // A spurious-detection draw is possible on every miss: no probe is
    // skipped.
    EXPECT_EQ(forward_tally.skipped_probes.load(), 0U) << entry.name;
  } else {
    EXPECT_GT(forward_tally.skipped_probes.load(), 0U) << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryFleetEntry, FleetFastForward,
                         ::testing::ValuesIn(fleet_entry_names()), test_name);

TEST(FleetFastForward, CatalogHasTheSpuriousFaultEntry) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("chaos-lossy-radio");
  ASSERT_TRUE(entry.is_fleet());
  ASSERT_NE(entry.fleet->faults, nullptr);
  EXPECT_GT(entry.fleet->faults->radio.spurious_detect_prob, 0.0);
}

// --- Single-node experiments ----------------------------------------------

constexpr std::size_t kExperimentEpochs = 7;

void append_hex(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a,", v);
  out += buf;
}

/// Every RunResult field, doubles in hexfloat, so equal strings mean
/// bit-identical results.
std::string fingerprint(const core::RunResult& r) {
  std::string out = r.scheduler_name + ',' + std::to_string(r.epochs) + ',';
  for (const double v :
       {r.mean_zeta_s, r.mean_phi_s, r.mean_bytes_uploaded,
        r.mean_contacts_probed, r.mean_wakeups, r.miss_ratio,
        r.mean_delivery_latency_s, r.probing_energy_j, r.transfer_energy_j}) {
    append_hex(out, v);
  }
  for (const node::EpochStats& e : r.per_epoch) {
    out += std::to_string(e.epoch_index) + ',' +
           std::to_string(e.phi.count()) + ',' +
           std::to_string(e.zeta.count()) + ',' +
           std::to_string(e.contacts_probed) + ',' +
           std::to_string(e.wakeups) + ',';
    append_hex(out, e.bytes_uploaded);
    append_hex(out, e.probing_energy_j);
    append_hex(out, e.transfer_energy_j);
    out += ';';
  }
  return out;
}

/// One single-node experiment three ways: plain, with the hook withheld
/// (the reference) and forwarded through a counter that adds to `tally`.
/// Fails the test unless all three are bit-identical and the counted
/// calls plus skipped wakeups equal the reference's calls. Returns the
/// plain run's result.
core::RunResult expect_same_bits(
    const core::RoadsideScenario& scenario,
    const std::shared_ptr<const contact::ContactSchedule>& schedule,
    const core::ExperimentConfig& config,
    const std::function<std::unique_ptr<node::Scheduler>()>& make,
    const std::string& label, PassThroughTally& tally) {
  const std::unique_ptr<node::Scheduler> plain = make();
  PassThroughScheduler reference{make(), Hook::kWithhold};
  std::uint64_t counted_calls = 0;
  std::uint64_t counted_skips = 0;
  core::RunResult f;
  {
    PassThroughScheduler counted{make(), Hook::kForward, &tally};
    f = core::run_experiment_on_schedule(scenario, schedule, counted, config);
    counted_calls = counted.wakeup_calls();
    counted_skips = counted.skipped_probes() + counted.skipped_polls();
  }
  const core::RunResult a =
      core::run_experiment_on_schedule(scenario, schedule, *plain, config);
  const core::RunResult b =
      core::run_experiment_on_schedule(scenario, schedule, reference, config);
  EXPECT_EQ(fingerprint(a), fingerprint(b)) << label;
  EXPECT_EQ(fingerprint(a), fingerprint(f)) << label;
  EXPECT_EQ(counted_calls + counted_skips, reference.wakeup_calls()) << label;
  return a;
}

constexpr std::array<core::ExplorationPolicyKind, 4> kEveryPolicy{
    core::ExplorationPolicyKind::kNone,
    core::ExplorationPolicyKind::kEpsilonFloor,
    core::ExplorationPolicyKind::kUcb,
    core::ExplorationPolicyKind::kOptimistic};

struct ExperimentCase {
  std::string scenario;
  /// Φmax override; 0 = the entry's default.
  double phi_max_s{0.0};
};

TEST(ExperimentFastForward, EveryStrategyAndExplorationPolicyMatches) {
  const std::vector<ExperimentCase> cases{
      {"roadside", 0.0},
      {"highway-short-contacts", 0.0},
      {"multi-peak-urban", 0.0},
      // Tight enough that every strategy runs out of budget each epoch.
      {"roadside", 4.0},
  };
  PassThroughTally tally;
  std::uint64_t budget_bound_runs = 0;
  for (const ExperimentCase& c : cases) {
    const core::CatalogEntry& entry =
        core::ScenarioCatalog::instance().at(c.scenario);
    ASSERT_FALSE(entry.is_fleet());
    const double phi_max_s = c.phi_max_s > 0.0 ? c.phi_max_s : entry.phi_max_s;
    const double target = entry.zeta_targets_s.front();
    core::ExperimentConfig config;
    config.epochs = kExperimentEpochs;
    config.phi_max_s = phi_max_s;
    config.sensing_rate_bps = entry.scenario.sensing_rate_for_target(target);
    config.seed = kSeed;
    sim::Rng rng{config.seed};
    const auto schedule = std::make_shared<const contact::ContactSchedule>(
        entry.scenario.make_schedule(config.epochs, config.jitter, rng));

    for (const core::Strategy strategy : core::all_strategies()) {
      for (const core::ExplorationPolicyKind kind : kEveryPolicy) {
        core::ExplorationConfig exploration;
        exploration.kind = kind;
        const std::string label =
            c.scenario + "/" + std::to_string(phi_max_s) + "/" +
            std::string{core::strategy_id(strategy)} + "/" +
            std::string{core::exploration_policy_kind_id(kind)};
        const core::RunResult a = expect_same_bits(
            entry.scenario, schedule, config,
            [&] {
              return core::make_scheduler(entry.scenario, strategy, target,
                                          phi_max_s, exploration);
            },
            label, tally);
        if (c.phi_max_s > 0.0 && a.mean_phi_s >= 0.9 * phi_max_s) {
          ++budget_bound_runs;
        }
      }
    }
  }
  EXPECT_GT(tally.skipped_probes.load(), 0U);
  // The tight-budget case must really end runs on the budget.
  EXPECT_GT(budget_bound_runs, 0U);
}

TEST(ExperimentFastForward, PaperGridSliceMatchesWithPollAndTrackerRuns) {
  // A slice of the Fig. 7/8 grid: every strategy at both of the paper's
  // budgets and three ζ targets over 14 epochs on the road-side scenario,
  // adaptive SNIP-RH under every exploration policy (the fixed schedulers
  // take none). Adaptive SNIP-RH spends its budget in the exploit phase
  // and polls, and its tracker probes outside the mask: the counted runs
  // must skip both, so neither run kind can pass this test vacuously.
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("roadside");
  constexpr std::size_t kPaperEpochs = 14;
  sim::Rng rng{kSeed};
  core::ExperimentConfig base;
  base.epochs = kPaperEpochs;
  base.seed = kSeed;
  const auto schedule = std::make_shared<const contact::ContactSchedule>(
      entry.scenario.make_schedule(base.epochs, base.jitter, rng));
  PassThroughTally tally;
  for (const double phi_max_s : {43.2, 86.4}) {
    for (const double target : {16.0, 32.0, 56.0}) {
      core::ExperimentConfig config = base;
      config.phi_max_s = phi_max_s;
      config.sensing_rate_bps = entry.scenario.sensing_rate_for_target(target);
      for (const core::Strategy strategy : core::all_strategies()) {
        const bool adaptive = strategy == core::Strategy::kAdaptive;
        for (const core::ExplorationPolicyKind kind : kEveryPolicy) {
          if (!adaptive && kind != core::ExplorationPolicyKind::kNone) break;
          core::ExplorationConfig exploration;
          exploration.kind = kind;
          const std::string label =
              std::to_string(phi_max_s) + "/" + std::to_string(target) + "/" +
              std::string{core::strategy_id(strategy)} + "/" +
              std::string{core::exploration_policy_kind_id(kind)};
          (void)expect_same_bits(
              entry.scenario, schedule, config,
              [&] {
                return core::make_scheduler(entry.scenario, strategy, target,
                                            phi_max_s, exploration);
              },
              label, tally);
        }
      }
    }
  }
  EXPECT_GT(tally.skipped_polls.load(), 0U);
  EXPECT_GT(tally.skipped_tracker_probes.load(), 0U);
}

}  // namespace
}  // namespace snipr
