#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "snipr/contact/profile.hpp"
#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/node/mobile_node.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/radio/channel.hpp"
#include "snipr/sim/rng.hpp"

/// The headline censored-feedback scenario, end to end. A node learns the
/// roadside rush hours {7,8,17,18} — while slots {12,13,22,23} are dead
/// (no traffic at all, so their honest score is zero) — adopts its mask,
/// and then the entire rush migrates into exactly those dead slots. For
/// the naive learner this is provably terminal: after adoption it spends
/// zero effort there, so their scores are frozen at zero, and the refresh
/// hysteresis can never admit a zero-score outsider over any incumbent
/// (bandit starvation with radio duty as the arm-pull budget). The
/// ε-floor and UCB exploration policies spend a deliberate sliver of duty
/// outside the mask and must re-find the moved rush hours within a
/// bounded number of epochs.

namespace snipr::integration {
namespace {

using core::AdaptiveSnipRh;
using core::AdaptiveSnipRhConfig;
using core::ExplorationPolicyKind;
using sim::Duration;

constexpr std::size_t kPhase1Epochs = 8;
constexpr std::size_t kPhase2Epochs = 16;
// {7,8,17,18} -> {12,13,22,23}: the slots that are dead in phase 1.
constexpr std::size_t kShiftHours = 5;
// An interval far beyond the slot length: the slot produces no contacts.
constexpr double kDeadIntervalS = 1e9;

std::vector<std::size_t> shifted_rush_slots() {
  std::vector<std::size_t> slots;
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) {
    slots.push_back((rush + kShiftHours) % 24);
  }
  return slots;
}

contact::ArrivalProfile phase1_profile() {
  std::vector<double> intervals(24, 1800.0);
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) intervals[rush] = 300.0;
  for (const std::size_t dead : shifted_rush_slots()) {
    intervals[dead] = kDeadIntervalS;
  }
  return contact::ArrivalProfile{Duration::hours(24), std::move(intervals)};
}

contact::ArrivalProfile phase2_profile() {
  std::vector<double> intervals(24, 1800.0);
  for (const std::size_t rush : shifted_rush_slots()) {
    intervals[rush] = 300.0;
  }
  return contact::ArrivalProfile{Duration::hours(24), std::move(intervals)};
}

/// One ground-truth schedule: kPhase1Epochs of the default pattern, then
/// kPhase2Epochs of the shifted one, spliced at the epoch boundary. Every
/// policy replays the same draw.
contact::ContactSchedule drifting_schedule() {
  sim::Rng rng{42};
  core::RoadsideScenario before;
  before.profile = phase1_profile();
  core::RoadsideScenario after;
  after.profile = phase2_profile();
  std::vector<contact::Contact> all;
  const contact::ContactSchedule part1 = before.make_schedule(
      kPhase1Epochs, contact::IntervalJitter::kNormalTenth, rng);
  for (const contact::Contact& c : part1.contacts()) all.push_back(c);
  const contact::ContactSchedule part2 = after.make_schedule(
      kPhase2Epochs, contact::IntervalJitter::kNormalTenth, rng);
  const Duration offset =
      Duration::hours(24) * static_cast<std::int64_t>(kPhase1Epochs);
  for (contact::Contact c : part2.contacts()) {
    c.arrival = c.arrival + offset;
    all.push_back(c);
  }
  return contact::ContactSchedule{std::move(all)};
}

AdaptiveSnipRhConfig base_config() {
  AdaptiveSnipRhConfig cfg;
  cfg.learning_epochs = 3;
  cfg.learning_duty = 0.001;  // fits the Tepoch/500 budget around the clock
  cfg.tracking_duty = 0.0;    // isolate exploration as the only escape
  cfg.rush_slots = 4;
  return cfg;
}

/// Replay the drifting schedule through one AdaptiveSnipRh configuration;
/// return the final mask and the per-epoch ζ trace.
std::pair<core::RushHourMask, std::vector<double>> run_policy(
    const AdaptiveSnipRhConfig& cfg, const contact::ContactSchedule& sched) {
  const core::RoadsideScenario sc;
  const std::size_t epochs = kPhase1Epochs + kPhase2Epochs;
  radio::Channel channel{sched, sc.link};
  node::MobileNode sink;
  AdaptiveSnipRh scheduler{sc.profile.epoch(), sc.profile.slot_count(), cfg};
  node::SensorNodeConfig node_cfg;
  node_cfg.ton = Duration::seconds(sc.snip.ton_s);
  node_cfg.epoch = sc.profile.epoch();
  node_cfg.budget_limit =
      Duration::seconds(sc.profile.epoch().to_seconds() / 500.0);
  node_cfg.sensing_rate_bps = 1e6;
  node::SensorNode sensor{channel, sink, scheduler, node_cfg};
  sensor.start();
  sensor.run_until(sim::TimePoint::zero() +
                   sc.profile.epoch() * static_cast<std::int64_t>(epochs));
  std::vector<double> zetas;
  for (const auto& e : sensor.epoch_history()) {
    zetas.push_back(e.zeta.to_seconds());
  }
  return {scheduler.current_mask(), std::move(zetas)};
}

std::size_t shifted_slots_in_mask(const core::RushHourMask& mask) {
  std::size_t hits = 0;
  for (const std::size_t rush : shifted_rush_slots()) {
    if (mask.is_rush_slot(rush)) ++hits;
  }
  return hits;
}

double tail_mean(const std::vector<double>& zetas, std::size_t last) {
  double sum = 0.0;
  for (std::size_t i = zetas.size() - last; i < zetas.size(); ++i) {
    sum += zetas[i];
  }
  return sum / static_cast<double>(last);
}

TEST(CensoredRecovery, ExplorationRefindsAMigratedRushHourNaiveNever) {
  const contact::ContactSchedule schedule = drifting_schedule();

  AdaptiveSnipRhConfig eps = base_config();
  eps.exploration.kind = ExplorationPolicyKind::kEpsilonFloor;
  eps.exploration.epsilon = 0.125;
  eps.exploration.explore_duty = 0.002;
  AdaptiveSnipRhConfig ucb = eps;
  ucb.exploration.kind = ExplorationPolicyKind::kUcb;
  // A dead slot's UCB index is pure confidence bonus (score 0); with a
  // small c the bonus cannot outweigh the mediocre-but-nonzero frozen
  // scores of the other outsiders within the test horizon. c = 2 makes
  // effort chase uncertainty hard enough to reach the dead slots in a
  // couple of rotations.
  ucb.exploration.ucb_c = 2.0;

  const auto [naive_mask, naive_zeta] = run_policy(base_config(), schedule);
  const auto [eps_mask, eps_zeta] = run_policy(eps, schedule);
  const auto [ucb_mask, ucb_zeta] = run_policy(ucb, schedule);

  // The naive censored learner is provably stuck: out-of-mask slots keep
  // score zero (zero effort, zero detections), and the hysteresis can
  // never admit a zero-score outsider. 16 epochs of the new pattern
  // change nothing.
  EXPECT_EQ(shifted_slots_in_mask(naive_mask), 0U);
  EXPECT_TRUE(naive_mask.is_rush_slot(7));
  EXPECT_TRUE(naive_mask.is_rush_slot(17));

  // Both exploring policies recover most of the migrated mask within the
  // 16 drifted epochs...
  EXPECT_GE(shifted_slots_in_mask(eps_mask), 2U);
  EXPECT_GE(shifted_slots_in_mask(ucb_mask), 2U);

  // ...and their recovered masks actually pay: better probed capacity
  // than the stuck mask over the final week.
  const double naive_tail = tail_mean(naive_zeta, 7);
  EXPECT_GT(tail_mean(eps_zeta, 7), naive_tail);
  EXPECT_GT(tail_mean(ucb_zeta, 7), naive_tail);
}

}  // namespace
}  // namespace snipr::integration
