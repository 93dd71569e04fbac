/// Steady-state zero-allocation guarantee for a node's event loop.
///
/// This binary replaces global operator new with the shared counting
/// hook. After a warm-up day (which is allowed to allocate: the history
/// and the learner's state reach their capacity), a node's
/// SensorNode::run_until through wakeups, fast-forwarded runs, probes,
/// transfers and epoch boundaries must perform exactly zero allocations —
/// the guarantee the node's two plain timers exist to keep, and the one a
/// stray std::function or node-based container on the hot path would
/// break.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/node/sensor_node.hpp"
#include "support/counting_alloc_hook.hpp"
#include "support/pass_through_scheduler.hpp"

namespace snipr::sim {
namespace {

/// A SNIP node whose probes mostly miss: runs of misses are
/// fast-forwarded between hourly contacts, and neither the skip nor the
/// probes, transfers and epoch boundaries around it may allocate.
void expect_miss_runs_allocate_nothing(const node::SensorNodeConfig& config) {
  std::vector<contact::Contact> contacts;
  for (std::int64_t h = 0; h < 24 * 8; ++h) {
    contacts.push_back({TimePoint::zero() + Duration::hours(h) +
                            Duration::seconds(1800),
                        Duration::seconds(30)});
  }
  radio::Channel channel{contact::ContactSchedule{std::move(contacts)},
                         radio::LinkParams{}};
  node::MobileNode sink;
  core::SnipAt scheduler{0.01, Duration::milliseconds(20)};
  node::SensorNode sensor{channel, sink, scheduler, config};
  sensor.start();
  sensor.run_until(TimePoint::zero() + Duration::hours(24));

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  const std::size_t events =
      sensor.run_until(TimePoint::zero() + Duration::hours(24 * 7));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before);
  EXPECT_GT(events, 100000U) << "skipped wakeups count as events";
  EXPECT_GT(sensor.counters().probed_sessions, 100U);
  EXPECT_EQ(sensor.epoch_history().size(),
            config.record_epoch_history ? 7U : 0U);
}

TEST(ZeroAllocTest, SensorNodeMissRunsAllocateNothing) {
  node::SensorNodeConfig config;
  config.record_epoch_history = false;
  config.record_probed_contacts = false;
  expect_miss_runs_allocate_nothing(config);
}

TEST(ZeroAllocTest, LoneNodeRunnerConfigAllocatesNothing) {
  // The node config node::run_lone_node runs every experiment and fleet
  // node with: the per-epoch history on and reserved for the whole run,
  // and, as in a fleet without routing, no probed-contact log.
  node::SensorNodeConfig config;
  config.expected_epochs = 8;
  config.record_probed_contacts = false;
  expect_miss_runs_allocate_nothing(config);
}

TEST(ZeroAllocTest, AdaptiveNodePollAndTrackerRunsAllocateNothing) {
  // Adaptive SNIP-RH past its learning days, with contacts only in hours
  // 7 and 17: outside the mask its tracker probes form runs, and once the
  // 8 s budget is spent it polls at 1 Hz to the end of the day. Within an
  // exploit day neither run kind, nor the probes, transfers and learner
  // updates around them, may allocate. (The epoch boundary's mask
  // refresh builds new masks and is outside the measured day.)
  std::vector<contact::Contact> contacts;
  for (std::int64_t day = 0; day < 4; ++day) {
    for (const std::int64_t hour : {7, 17}) {
      for (std::int64_t minute = 2; minute < 60; minute += 5) {
        contacts.push_back({TimePoint::zero() + Duration::hours(24 * day) +
                                Duration::hours(hour) +
                                Duration::minutes(minute),
                            Duration::seconds(120)});
      }
    }
  }
  radio::Channel channel{contact::ContactSchedule{std::move(contacts)},
                         radio::LinkParams{}};
  node::MobileNode sink;
  core::AdaptiveSnipRhConfig adaptive;
  adaptive.learning_epochs = 2;
  adaptive.learning_duty = 1e-4;
  adaptive.rush_slots = 2;
  adaptive.rh.ton = Duration::milliseconds(20);
  testing::PassThroughScheduler scheduler{
      std::make_unique<core::AdaptiveSnipRh>(Duration::hours(24), 24,
                                             adaptive),
      testing::PassThroughScheduler::Hook::kForward};
  node::SensorNodeConfig config;
  config.epoch = Duration::hours(24);
  config.budget_limit = Duration::seconds(8);
  config.record_epoch_history = false;
  config.record_probed_contacts = false;
  node::SensorNode sensor{channel, sink, scheduler, config};
  sensor.start();
  sensor.run_until(TimePoint::zero() + Duration::hours(24 * 3) +
                   Duration::seconds(1));

  const std::uint64_t polls_before = scheduler.skipped_polls();
  const std::uint64_t tracker_before = scheduler.skipped_tracker_probes();
  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  sensor.run_until(TimePoint::zero() + Duration::hours(24 * 4) -
                   Duration::seconds(1));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before);
  EXPECT_GT(scheduler.skipped_polls() - polls_before, 1000U);
  EXPECT_GT(scheduler.skipped_tracker_probes() - tracker_before, 100U);
  EXPECT_GT(sensor.counters().probed_sessions, 0U);
}

}  // namespace
}  // namespace snipr::sim
