/// Exact work counts, pinned at a fixed seed, for shrunken copies of the
/// four snipbench workloads: an adaptive urban-grid fleet exploring with
/// UCB, the lossy relay-collection fleet, a streaming highway fleet and
/// a Fig. 7/8 grid through BatchRunner.
///
/// Schedulers run inside the hook-forwarding pass-through decorator
/// (tests/support/pass_through_scheduler.hpp), which counts scheduler
/// wakeup calls, the probes, idle polls and lone tracker probes the
/// fast-forward skipped, and probed contacts. Beside those: the contacts
/// the road builder produces, the streaming engine's executed events and
/// probed contacts, the collection pass's custody counts and the
/// BatchRunner's schedule builds.
///
/// The counts are a pure function of the seed, so they are equal on
/// every machine and build type. A change that does more work, such as
/// losing a fast-forward or building a schedule twice, moves a count and
/// fails here; wall-clock speed is snipbench's business. A change meant
/// to move a count updates its pin and says why.
///
/// Each scheduler pin also carries the fleet's wakeup decisions: the
/// on_wakeup() calls a node would make with every wakeup simulated. The
/// executed calls plus the skipped probes and polls must add up to it,
/// so a fast-forward that grows can only move work from executed to
/// skipped, never drop any.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/deploy/fleet_streaming.hpp"
#include "support/pass_through_scheduler.hpp"
#include "support/road_inputs.hpp"

namespace snipr {
namespace {

using testing::PassThroughScheduler;
using testing::PassThroughTally;
using Hook = PassThroughScheduler::Hook;

/// Scheduler work through the decorator, plus the contacts built.
struct Work {
  /// Executed calls + skipped probes + skipped polls (lone tracker
  /// probes are counted among the skipped probes).
  std::uint64_t decisions;
  std::uint64_t wakeup_calls;
  std::uint64_t skipped_probes;
  std::uint64_t skipped_polls;
  std::uint64_t skipped_tracker_probes;
  std::uint64_t contacts_probed;
  std::uint64_t contacts_built;
};

void expect_work(const PassThroughTally& tally, std::uint64_t contacts_built,
                 const Work& pinned) {
  EXPECT_EQ(pinned.wakeup_calls + pinned.skipped_probes + pinned.skipped_polls,
            pinned.decisions);
  EXPECT_EQ(tally.wakeup_calls.load() + tally.skipped(), pinned.decisions);
  EXPECT_EQ(tally.wakeup_calls.load(), pinned.wakeup_calls);
  EXPECT_EQ(tally.skipped_probes.load(), pinned.skipped_probes);
  EXPECT_EQ(tally.skipped_polls.load(), pinned.skipped_polls);
  EXPECT_EQ(tally.skipped_tracker_probes.load(),
            pinned.skipped_tracker_probes);
  EXPECT_EQ(tally.contacts_probed.load(), pinned.contacts_probed);
  EXPECT_EQ(contacts_built, pinned.contacts_built);
}

std::uint64_t contacts_in(const std::vector<contact::ContactSchedule>& s) {
  std::uint64_t n = 0;
  for (const contact::ContactSchedule& schedule : s) n += schedule.size();
  return n;
}

/// A road fleet's contact plan, built the way the engine builds it.
deploy::RoadContactPlan road_plan(const deploy::FleetSpec& spec,
                                  const deploy::FleetConfig& config) {
  return testing::road_contact_plan(
      spec, config.deployment.seed,
      spec.flow_profile.epoch() *
          static_cast<std::int64_t>(config.deployment.epochs));
}

/// A catalog fleet shrunk to `nodes` x `epochs`, on three shards.
struct Fleet {
  const core::CatalogEntry& entry;
  deploy::FleetSpec spec;
  deploy::FleetConfig config;

  Fleet(const char* name, std::size_t nodes, std::size_t epochs,
        std::uint64_t seed)
      : entry{core::ScenarioCatalog::instance().at(name)},
        spec{*entry.fleet} {
    spec.nodes = nodes;
    config.deployment = deploy::make_fleet_deployment_config(
        entry.scenario, spec, entry.phi_max_s, epochs, seed);
    config.shards = 3;
    config.threads = 2;
  }

  /// Run the schedules through FleetEngine with counted schedulers.
  deploy::DeploymentOutcome run_counted(
      std::vector<contact::ContactSchedule> schedules,
      PassThroughTally& tally) const {
    const double phi_max_s = config.deployment.node.budget_limit.to_seconds();
    return deploy::FleetEngine{}.run(
        std::move(schedules),
        [&](std::size_t) {
          return std::make_unique<PassThroughScheduler>(
              core::make_scheduler(entry.scenario, spec.strategy,
                                   spec.zeta_target_s, phi_max_s,
                                   spec.exploration),
              Hook::kForward, &tally);
        },
        config, spec.faults.get());
  }
};

TEST(WorkCounters, UrbanGridAdaptiveUcb) {
  // Five epochs: past the three-epoch learning phase, so the exploit
  // phase's polls and lone tracker probes are fast-forwarded.
  Fleet fleet{"fleet-urban-grid", 32, 5, 1};
  fleet.spec.exploration.kind = core::ExplorationPolicyKind::kUcb;
  std::vector<contact::ContactSchedule> schedules =
      road_plan(fleet.spec, fleet.config).schedules;
  const std::uint64_t built = contacts_in(schedules);
  PassThroughTally tally;
  (void)fleet.run_counted(std::move(schedules), tally);
  expect_work(tally, built, {471279, 9141, 462138, 0, 24657, 1795, 15315});
}

TEST(WorkCounters, ChaosLossyCollectionRelay) {
  // The catalog's 96 nodes, so its sink stays node 95.
  Fleet fleet{"chaos-lossy-collection", 96, 4, 1};
  const deploy::RoadContactPlan plan = road_plan(fleet.spec, fleet.config);
  PassThroughTally tally;
  (void)fleet.run_counted(plan.schedules, tally);
  // One collection session per probed contact.
  expect_work(tally, contacts_in(plan.schedules),
              {461280, 2681, 458599, 0, 0, 335, 5375});

  const deploy::DeploymentOutcome routed = deploy::FleetEngine{}.run(
      fleet.entry.scenario, fleet.spec, fleet.config);
  ASSERT_TRUE(routed.network.has_value());
  EXPECT_EQ(routed.network->pickups, 125U);
  EXPECT_EQ(routed.network->deposits, 7U);
  EXPECT_EQ(routed.network->deliveries, 15U);
}

TEST(WorkCounters, StreamingHighway) {
  // snipbench mega-stream's geometry: 1 m spacing, a fixed 20 m/s flow on
  // a uniform one-hour profile, Φmax 30 s.
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at("fleet-highway-1k");
  deploy::RoadWorkload road;
  road.first_position_m = 50.0;
  road.spacing_m = 1.0;
  road.range_m = 10.0;
  road.speed_mean_mps = 20.0;
  road.speed_stddev_mps = 0.0;
  deploy::FleetSpec spec = deploy::FleetSpec::road(
      400, road, entry.fleet->strategy, entry.fleet->zeta_target_s);
  spec.flow_profile =
      contact::ArrivalProfile::uniform(sim::Duration::hours(1), 24, 300.0);
  deploy::FleetConfig config;
  config.deployment = deploy::make_fleet_deployment_config(
      entry.scenario, spec, 30.0, 12, 11);
  config.shards = 5;
  config.threads = 2;

  const std::optional<deploy::FleetSummary> summary =
      deploy::run_streaming_fleet(entry.scenario, spec, config);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->events_executed, 611628U);
  EXPECT_EQ(summary->contacts_probed, 1983U);
  EXPECT_EQ(contacts_in(road_plan(spec, config).schedules), 54400U);
}

TEST(WorkCounters, PaperGridThroughBatchRunner) {
  core::SweepSpec sweep;
  sweep.scenario = core::ScenarioCatalog::instance().at("roadside").scenario;
  const auto strategies = core::all_strategies();
  sweep.strategies.assign(strategies.begin(), strategies.end());
  sweep.zeta_targets_s = {16.0, 56.0};
  sweep.phi_maxes_s = {43.2, 86.4};
  sweep.seeds = {1, 2};
  sweep.epochs = 4;
  std::vector<core::BatchRun> runs = core::expand_sweep(sweep);
  PassThroughTally tally;
  for (core::BatchRun& run : runs) {
    run.scheduler_factory = [&tally, &run] {
      return std::make_unique<PassThroughScheduler>(
          core::make_scheduler(run.scenario, run.strategy, run.zeta_target_s,
                               run.phi_max_s),
          Hook::kForward, &tally);
    };
  }

  const std::uint64_t builds_before = core::BatchRunner::schedule_builds();
  (void)core::BatchRunner{core::BatchRunner::Config{2}}.run(runs);
  const std::uint64_t builds =
      core::BatchRunner::schedule_builds() - builds_before;

  std::uint64_t built = 0;
  for (const std::uint64_t seed : sweep.seeds) {
    sim::Rng rng{seed};
    built += sweep.scenario.make_schedule(sweep.epochs, sweep.jitter, rng)
                 .size();
  }
  expect_work(tally, built, {408730, 6193, 365356, 37181, 2643, 1550, 707});
  // One schedule per seed, shared by every run on it.
  EXPECT_EQ(builds, 2U);
}

}  // namespace
}  // namespace snipr
