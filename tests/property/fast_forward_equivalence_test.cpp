/// Property: fast-forwarding runs of repeated verdicts changes no output
/// bit.
///
/// A node whose scheduler overrides `Scheduler::repeat_bound` (and
/// `commit_repeats`) charges a run of provably empty SNIP wakeups, or of
/// idle polls, in one step; wrapped in the pass-through decorator
/// (tests/support/pass_through_scheduler.hpp), which withholds that
/// pair, the same scheduler runs every wakeup through `on_wakeup`. The
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
///    must skip both budget-spent polls and lone tracker probes;
///  - on adversarial schedules built to trip the contact step-over:
///    contacts shorter than the cycle, back-to-back and zero-length
///    contacts, and probes landing inside a contact's last beacon
///    airtime, under probe-miss and abort faults (a spurious-detection
///    fault keeps every probe on the per-wakeup path),
///    for every strategy and adaptive SNIP-RH under every exploration
///    policy with a nonzero tracking duty, and with the scheduler's bound
///    capped at a few wakeups so walks end exactly on, or 1 µs before,
///    a contact (zero-length ones included).
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
#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_at.hpp"
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

/// A fleet of `make` schedulers three ways: plain, hook withheld and hook
/// forwarded, the last counted into `forward_tally`. Fails the test
/// unless the three JSON outcomes are identical, the withheld run skipped
/// nothing and the forwarded run's calls plus skipped wakeups equal the
/// withheld run's calls.
void expect_same_fleet_json(
    const std::vector<contact::ContactSchedule>& schedules,
    const std::function<std::unique_ptr<node::Scheduler>()>& make,
    const deploy::FleetConfig& config, const fault::FaultSpec* faults,
    const std::string& label, PassThroughTally& forward_tally) {
  const deploy::FleetEngine engine;
  const std::string plain = deploy::FleetEngine::to_json(engine.run(
      schedules, [&](std::size_t) { return make(); }, config, faults));
  PassThroughTally reference_tally;
  const std::string reference = deploy::FleetEngine::to_json(engine.run(
      schedules,
      [&](std::size_t) {
        return std::make_unique<PassThroughScheduler>(
            make(), Hook::kWithhold, &reference_tally);
      },
      config, faults));
  const std::string counted = deploy::FleetEngine::to_json(engine.run(
      schedules,
      [&](std::size_t) {
        return std::make_unique<PassThroughScheduler>(make(), Hook::kForward,
                                                      &forward_tally);
      },
      config, faults));
  EXPECT_EQ(plain, reference) << label;
  EXPECT_EQ(plain, counted) << label;
  EXPECT_EQ(reference_tally.skipped(), 0U) << label;
  EXPECT_EQ(forward_tally.wakeup_calls.load() + forward_tally.skipped(),
            reference_tally.wakeup_calls.load())
      << label;
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

  PassThroughTally forward_tally;
  expect_same_fleet_json(schedules, make, config, spec.faults.get(),
                         entry.name, forward_tally);
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


// --- Adversarial schedules ------------------------------------------------

constexpr std::size_t kAdversarialNodes = 4;
constexpr std::size_t kAdversarialEpochs = 6;

sim::Duration random_span(sim::Rng& rng, double lo_s, double hi_s) {
  return sim::Duration::seconds(rng.uniform(lo_s, hi_s));
}

/// Contacts that probe grids step over or just catch: a third of zero
/// length, a third shorter than a second, the rest up to a minute; one
/// in four back-to-back with the one before, the others after a gap
/// that is ten times shorter in two daily rush windows (7–9 h and
/// 16–18 h), so adaptive nodes learn a mask.
contact::ContactSchedule adversarial_schedule(sim::Rng& rng,
                                              sim::Duration horizon) {
  const sim::TimePoint end = sim::TimePoint::zero() + horizon;
  std::vector<contact::Contact> contacts;
  sim::TimePoint t = sim::TimePoint::zero();
  while (true) {
    if (!rng.bernoulli(0.25)) {
      const double hour =
          static_cast<double>((t - sim::TimePoint::zero()).count() %
                              sim::Duration::hours(24).count()) /
          3.6e9;
      const bool rush = (hour >= 7 && hour < 9) || (hour >= 16 && hour < 18);
      t += random_span(rng, 0.001, rush ? 60.0 : 600.0);
    }
    const double kind = rng.uniform();
    const sim::Duration length = kind < 1.0 / 3   ? sim::Duration::zero()
                                 : kind < 2.0 / 3 ? random_span(rng, 1e-6, 1.0)
                                                  : random_span(rng, 1.0, 60.0);
    if (t + length >= end) break;
    contacts.push_back({t, length});
    t += length;
  }
  return contact::ContactSchedule{std::move(contacts)};
}

/// The road-side scenario's node and link over kAdversarialEpochs days,
/// at Φmax `phi_max_s`.
deploy::FleetConfig adversarial_config(const core::RoadsideScenario& scenario,
                                       double phi_max_s) {
  deploy::FleetConfig config;
  deploy::DeploymentConfig& d = config.deployment;
  d.node.ton = sim::Duration::seconds(scenario.snip.ton_s);
  d.node.epoch = scenario.profile.epoch();
  d.node.budget_limit = sim::Duration::seconds(phi_max_s);
  d.node.sensing_rate_bps = scenario.sensing_rate_for_target(16.0);
  d.link = scenario.link;
  d.epochs = kAdversarialEpochs;
  d.seed = kSeed;
  config.shards = 2;
  config.threads = 2;
  return config;
}

TEST(AdversarialFastForward, EveryStrategyMatchesUnderLossAndFaults) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("roadside");
  const core::RoadsideScenario& scenario = entry.scenario;
  sim::Rng rng{kSeed};
  std::vector<contact::ContactSchedule> schedules;
  for (std::size_t i = 0; i < kAdversarialNodes; ++i) {
    schedules.push_back(adversarial_schedule(
        rng, scenario.profile.epoch() *
                 static_cast<std::int64_t>(kAdversarialEpochs)));
  }

  // Every leg loses probes at 0.3.
  fault::FaultSpec miss;
  miss.radio.probe_miss_prob = 0.3;
  fault::FaultSpec miss_and_abort = miss;
  miss_and_abort.radio.snr_edge_weight = 1.0;
  miss_and_abort.radio.transfer_abort_prob = 0.3;
  fault::FaultSpec spurious = miss;
  spurious.radio.spurious_detect_prob = 0.01;
  const std::array<const fault::FaultSpec*, 3> fault_specs{
      &miss, &miss_and_abort, &spurious};

  // The fixed plans through the planner; adaptive SNIP-RH built with a
  // tracker ten times the default duty, so its lone tracker probes meet
  // many contacts, and a floor cycle of 10 s.
  std::vector<std::pair<std::string,
                        std::function<std::unique_ptr<node::Scheduler>()>>>
      makers;
  for (const core::Strategy strategy :
       {core::Strategy::kSnipAt, core::Strategy::kSnipOpt,
        core::Strategy::kSnipRh}) {
    makers.emplace_back(
        std::string{core::strategy_id(strategy)},
        core::plan_scheduler(scenario, strategy, 16.0, entry.phi_max_s, {}));
  }
  for (const core::ExplorationPolicyKind kind : kEveryPolicy) {
    core::AdaptiveSnipRhConfig adaptive;
    adaptive.learning_epochs = 2;
    adaptive.tracking_duty = 1e-3;
    adaptive.rh.ton = sim::Duration::seconds(scenario.snip.ton_s);
    adaptive.rh.initial_tcontact_s = scenario.tcontact_s;
    adaptive.exploration.kind = kind;
    adaptive.exploration.epsilon = 0.3;
    adaptive.exploration.explore_duty = 0.002;
    const sim::Duration epoch = scenario.profile.epoch();
    const std::size_t slots = scenario.profile.slot_count();
    makers.emplace_back(
        "adaptive/" + std::string{core::exploration_policy_kind_id(kind)},
        [epoch, slots, adaptive] {
          return std::make_unique<core::AdaptiveSnipRh>(epoch, slots,
                                                        adaptive);
        });
  }

  for (const auto& [name, make] : makers) {
    for (const double phi_max_s : {entry.phi_max_s, 4.0}) {
      const deploy::FleetConfig config =
          adversarial_config(scenario, phi_max_s);
      for (const fault::FaultSpec* faults : fault_specs) {
        const std::string label =
            name + "/" + std::to_string(phi_max_s) + "/" +
            (faults == &miss       ? "miss"
             : faults == &spurious ? "spurious"
                                   : "miss-and-abort");
        PassThroughTally tally;
        expect_same_fleet_json(schedules, make, config, faults, label, tally);
        if (faults == &spurious) {
          EXPECT_EQ(tally.skipped_probes.load(), 0U) << label;
        } else {
          EXPECT_GT(tally.skipped_probes.load(), 0U) << label;
        }
      }
    }
  }
}

TEST(AdversarialFastForward, ProbesInsideAContactsLastAirtimeOrAtItsArrival) {
  // A SNIP-AT node probing every 20 s from t = 0 with nothing detected
  // keeps its grid j·20 s. Every third grid point falls 0.5 ms before a
  // 3 ms contact departs, inside the last beacon airtime (1 ms): the
  // contact covers the probe, but the beacon cannot finish, so the probe
  // misses without a fault draw. Contacts between grid points are
  // stepped over; runs stop before each covering one. The last contact,
  // 5 ms long, arrives exactly on the third grid point of a run: without
  // probe misses it is the one contact probed.
  const core::RoadsideScenario& scenario =
      core::ScenarioCatalog::instance().at("roadside").scenario;
  const sim::Duration ton = sim::Duration::seconds(scenario.snip.ton_s);
  const sim::Duration cycle = core::SnipAt{0.001, ton}.cycle();
  const sim::Duration ms = sim::Duration::milliseconds(1);
  ASSERT_EQ(scenario.link.beacon_airtime, ms);
  ASSERT_EQ(scenario.link.reply_airtime, ms);
  const sim::Duration horizon =
      scenario.profile.epoch() * static_cast<std::int64_t>(kAdversarialEpochs);
  std::vector<contact::Contact> contacts;
  std::int64_t j = 3;
  for (; cycle * (j + 8) < horizon; j += 3) {
    const sim::TimePoint grid = sim::TimePoint::zero() + cycle * j;
    contacts.push_back({grid - sim::Duration::microseconds(2500), ms * 3});
    contacts.push_back({grid + cycle / 2, ms * 5});
  }
  contacts.push_back({sim::TimePoint::zero() + cycle * (j + 1), ms * 5});
  const std::vector<contact::ContactSchedule> schedules{
      contact::ContactSchedule{std::move(contacts)}};
  fault::FaultSpec lossy;
  lossy.radio.probe_miss_prob = 0.5;
  const std::array<const fault::FaultSpec*, 2> legs{&lossy, nullptr};
  for (const fault::FaultSpec* faults : legs) {
    const std::string label = faults != nullptr ? "lossy" : "lossless";
    PassThroughTally tally;
    expect_same_fleet_json(
        schedules,
        [ton] { return std::make_unique<core::SnipAt>(0.001, ton); },
        adversarial_config(scenario, 1e9), faults, label, tally);
    EXPECT_GT(tally.skipped_probes.load(), 0U) << label;
    if (faults == nullptr) {
      EXPECT_EQ(tally.contacts_probed.load(), 1U);
    }
  }
}

/// Caps its scheduler's bound at `cap` wakeups, so node walks end at
/// grid points a contact may sit on; forwards everything else.
class CappedBound final : public node::Scheduler {
 public:
  CappedBound(std::unique_ptr<node::Scheduler> inner, std::int64_t cap)
      : inner_{std::move(inner)}, cap_{cap} {}
  node::SchedulerDecision on_wakeup(const node::SensorContext& ctx) override {
    return inner_->on_wakeup(ctx);
  }
  std::int64_t repeat_bound(const node::SensorContext& ctx,
                            node::SchedulerDecision verdict,
                            sim::Duration charge) const override {
    return std::min(cap_, inner_->repeat_bound(ctx, verdict, charge));
  }
  void commit_repeats(const node::SensorContext& ctx,
                      node::SchedulerDecision verdict,
                      std::int64_t k) override {
    inner_->commit_repeats(ctx, verdict, k);
  }
  void on_probe_detected(sim::TimePoint when) override {
    inner_->on_probe_detected(when);
  }
  void on_contact_probed(const node::ProbedContactObservation& obs) override {
    inner_->on_contact_probed(obs);
  }
  void on_epoch_start(std::int64_t epoch_index) override {
    inner_->on_epoch_start(epoch_index);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<node::Scheduler> inner_;
  std::int64_t cap_;
};

TEST(AdversarialFastForward, CappedWalksEndingOnAContact) {
  // A SNIP-AT node probing every 20 s from t = 0 keeps its grid j·20 s
  // while it detects nothing, and every miss starts a run whose bound
  // (capped at B) ends on a grid point. Contacts sit on random grid
  // points: zero-length ones exactly on them (a grid point lands in
  // them, but no beacon fits, so the grid survives), and ones shorter
  // than the cycle 1 µs after them (stepped over). A run whose last
  // grid point holds a contact stops one short of B; one 1 µs after it
  // keeps B. The last contact, 5 ms long, arrives exactly on a grid
  // point and is probed without probe misses.
  const core::RoadsideScenario& scenario =
      core::ScenarioCatalog::instance().at("roadside").scenario;
  const sim::Duration ton = sim::Duration::seconds(scenario.snip.ton_s);
  const sim::Duration cycle = core::SnipAt{0.001, ton}.cycle();
  const sim::Duration micro = sim::Duration::microseconds(1);
  const sim::Duration horizon =
      scenario.profile.epoch() * static_cast<std::int64_t>(kAdversarialEpochs);
  sim::Rng rng{kSeed};
  std::vector<contact::Contact> contacts;
  std::int64_t j = 1;
  for (; cycle * (j + 8) < horizon;
       j += 1 + static_cast<std::int64_t>(rng.uniform_int(4))) {
    const sim::TimePoint grid = sim::TimePoint::zero() + cycle * j;
    if (rng.bernoulli(0.5)) {
      contacts.push_back({grid, sim::Duration::zero()});
    } else {
      contacts.push_back({grid + micro, random_span(rng, 1e-6, 10.0)});
    }
  }
  contacts.push_back({sim::TimePoint::zero() + cycle * (j + 1),
                      sim::Duration::milliseconds(5)});
  const std::vector<contact::ContactSchedule> schedules{
      contact::ContactSchedule{std::move(contacts)}};
  fault::FaultSpec lossy;
  lossy.radio.probe_miss_prob = 0.5;
  const std::array<const fault::FaultSpec*, 2> legs{&lossy, nullptr};
  for (const std::int64_t cap : {1, 2, 3, 7}) {
    for (const fault::FaultSpec* faults : legs) {
      const std::string label = "cap " + std::to_string(cap) +
                                (faults != nullptr ? ", lossy" : "");
      PassThroughTally tally;
      expect_same_fleet_json(
          schedules,
          [ton, cap] {
            return std::make_unique<CappedBound>(
                std::make_unique<core::SnipAt>(0.001, ton), cap);
          },
          adversarial_config(scenario, 1e9), faults, label, tally);
      EXPECT_GT(tally.skipped_probes.load(), 0U) << label;
      if (faults == nullptr) {
        EXPECT_EQ(tally.contacts_probed.load(), 1U) << label;
      }
    }
  }
}

}  // namespace
}  // namespace snipr
