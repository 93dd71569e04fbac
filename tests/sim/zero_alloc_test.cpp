/// Steady-state zero-allocation guarantee for the event loop.
///
/// This binary replaces global operator new with the shared counting
/// hook. After a warm-up (which is allowed to allocate: the heap, slot
/// and free-list vectors grow to their steady-state capacity), a
/// forward-running mix of self-rescheduling timers and one-shot churn
/// through Simulator::run_until must perform exactly zero allocations —
/// the guarantee the InlineCallback + recycled-slot EventQueue exists to
/// provide, and the one a stray std::function or node-based container on
/// the hot path would break.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/node/sensor_node.hpp"
#include "snipr/sim/simulator.hpp"
#include "support/counting_alloc_hook.hpp"
#include "support/pass_through_scheduler.hpp"

namespace snipr::sim {
namespace {

/// Self-rescheduling timer with a deliberately fat closure (the size
/// class of SensorNode::begin_transfer's completion callback).
struct FatTick {
  Simulator* simulator;
  Duration period;
  std::uint64_t* fired;
  std::uint64_t payload[3];

  void operator()() const {
    ++*fired;
    simulator->schedule_after(period, *this);
  }
};

/// One-shot churn: every fire schedules a short-lived one-shot event
/// beside its own next fire, so slots retire and recycle through the
/// free list on every event while the pending population stays bounded
/// (about eight events).
struct Churner {
  Simulator* simulator;
  std::uint64_t* fired;

  void operator()() const {
    ++*fired;
    simulator->schedule_after(Duration::milliseconds(50),
                              [count = fired] { ++*count; });
    simulator->schedule_after(Duration::milliseconds(7), *this);
  }
};

TEST(ZeroAllocTest, EventLoopSteadyStateAllocatesNothing) {
  Simulator simulator{1};
  std::uint64_t fired = 0;
  for (std::int64_t i = 0; i < 16; ++i) {
    FatTick tick{};
    tick.simulator = &simulator;
    tick.period = Duration::microseconds(911 + 17 * i);
    tick.fired = &fired;
    tick.payload[0] = static_cast<std::uint64_t>(i);
    simulator.schedule_after(tick.period, tick);
  }
  simulator.schedule_after(Duration::milliseconds(1),
                           Churner{&simulator, &fired});

  // Warm-up: vectors (heap, slots, free list) reach steady capacity.
  simulator.run_until(simulator.now() + Duration::seconds(2));
  const std::uint64_t fired_before = fired;

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  simulator.run_until(simulator.now() + Duration::seconds(10));
  const std::uint64_t allocs_after =
      testing::alloc_calls.load(std::memory_order_relaxed);

  EXPECT_GT(fired - fired_before, 100000U) << "hot loop barely ran";
  EXPECT_EQ(allocs_after, allocs_before)
      << "the steady-state event loop must not allocate";
}

TEST(ZeroAllocTest, OneShotChurnAllocatesNothingAfterWarmup) {
  Simulator simulator{7};
  // Pure one-shot churn (no timer mix): slot reuse through the free list
  // runs inside the measured region and must stay allocation-free too.
  std::uint64_t fired = 0;
  simulator.schedule_after(Duration::milliseconds(1),
                           Churner{&simulator, &fired});
  simulator.run_until(simulator.now() + Duration::seconds(5));

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  simulator.run_until(simulator.now() + Duration::seconds(60));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before);
  EXPECT_GT(fired, 1000U);
}

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
  Simulator simulator{3};
  radio::Channel channel{contact::ContactSchedule{std::move(contacts)},
                         radio::LinkParams{}, Rng{5}};
  node::MobileNode sink;
  core::SnipAt scheduler{0.01, Duration::milliseconds(20)};
  node::SensorNode sensor{simulator, channel, sink, scheduler, config};
  sensor.start();
  simulator.run_until(TimePoint::zero() + Duration::hours(24));

  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  const std::size_t events =
      simulator.run_until(TimePoint::zero() + Duration::hours(24 * 7));
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
  Simulator simulator{3};
  radio::Channel channel{contact::ContactSchedule{std::move(contacts)},
                         radio::LinkParams{}, Rng{5}};
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
  node::SensorNode sensor{simulator, channel, sink, scheduler, config};
  sensor.start();
  simulator.run_until(TimePoint::zero() + Duration::hours(24 * 3) +
                      Duration::seconds(1));

  const std::uint64_t polls_before = scheduler.skipped_polls();
  const std::uint64_t tracker_before = scheduler.skipped_tracker_probes();
  const std::uint64_t allocs_before =
      testing::alloc_calls.load(std::memory_order_relaxed);
  simulator.run_until(TimePoint::zero() + Duration::hours(24 * 4) -
                      Duration::seconds(1));
  EXPECT_EQ(testing::alloc_calls.load(std::memory_order_relaxed),
            allocs_before);
  EXPECT_GT(scheduler.skipped_polls() - polls_before, 1000U);
  EXPECT_GT(scheduler.skipped_tracker_probes() - tracker_before, 100U);
  EXPECT_GT(sensor.counters().probed_sessions, 0U);
}

}  // namespace
}  // namespace snipr::sim
