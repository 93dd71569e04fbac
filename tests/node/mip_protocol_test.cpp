#include <gtest/gtest.h>

#include "snipr/node/sensor_node.hpp"

/// End-to-end tests of the mobile-initiated probing (MIP) protocol path
/// in the sensor node — the baseline SNIP is compared against in Sec. III
/// of the paper.

namespace snipr::node {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

class AlwaysProbe final : public Scheduler {
 public:
  explicit AlwaysProbe(Duration cycle) : cycle_{cycle} {}
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = true, .next_wakeup = cycle_};
  }
  std::string name() const override { return "always"; }

 private:
  Duration cycle_;
};

SensorNodeConfig mip_config() {
  SensorNodeConfig cfg;
  cfg.ton = Duration::milliseconds(20);
  cfg.epoch = Duration::hours(1);
  cfg.budget_limit = Duration::max();
  cfg.sensing_rate_bps = 10.0;
  cfg.protocol = ProbingProtocol::kMip;
  return cfg;
}

struct World {
  radio::Channel channel;
  MobileNode sink;

  explicit World(std::vector<Contact> contacts, radio::LinkParams link = {})
      : channel{ContactSchedule{std::move(contacts)}, link, sim::Rng{7}} {}
};

TEST(MipProtocol, BeaconInsideListenWindowProbes) {
  // Contact [100, 102); wakeups every 1 s land at 100: the mobile beacons
  // at arrival, so awareness comes at 100 + beacon + ack = 100.002.
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.channel, w.sink, sched, mip_config()};
  node.start();
  node.run_until(at_s(200));
  ASSERT_EQ(node.probed_contacts().size(), 1U);
  EXPECT_EQ(node.probed_contacts().front().probe_time,
            at_s(100) + Duration::milliseconds(2));
}

TEST(MipProtocol, LaterBeaconCaughtMidWindow) {
  // Contact starts at 100.005, listen window [100, 100.02): beacons at
  // 100.005 (arrival). Awareness at 100.007.
  World w{{{at_s(100.005), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(100)};
  SensorNode node{w.channel, w.sink, sched, mip_config()};
  node.start();
  node.run_until(at_s(150));
  ASSERT_EQ(node.probed_contacts().size(), 1U);
  EXPECT_EQ(node.probed_contacts().front().probe_time,
            at_s(100.005) + Duration::milliseconds(2));
}

TEST(MipProtocol, MissesWhenNoBeaconAligns) {
  // Contact [100.5, 102.5) never overlaps a listen window of the 10 s
  // grid (windows at 100.0-100.02, 110.0-110.02, ...).
  World w{{{at_s(100.5), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(10)};
  SensorNode node{w.channel, w.sink, sched, mip_config()};
  node.start();
  node.run_until(at_s(200));
  EXPECT_TRUE(node.probed_contacts().empty());
  // Every wakeup cost the full Ton of listening.
  EXPECT_EQ(node.current_epoch().phi,
            Duration::milliseconds(20) *
                static_cast<std::int64_t>(node.current_epoch().wakeups));
}

TEST(MipProtocol, ProbedWakeupChargesOnlyUntilAwareness) {
  World w{{{at_s(100), Duration::seconds(2)}}};
  AlwaysProbe sched{Duration::seconds(100)};
  SensorNode node{w.channel, w.sink, sched, mip_config()};
  node.start();
  node.run_until(at_s(150));
  // Wakeups at 0 (idle, 20 ms) and 100 (probed at +2 ms).
  EXPECT_EQ(node.current_epoch().phi,
            Duration::milliseconds(20) + Duration::milliseconds(2));
}

TEST(MipProtocol, LossyBeaconsRetryWithinWindow) {
  // 50% frame loss with a 5 ms beacon period: ~4 beacon opportunities per
  // 20 ms listen window, each needing beacon AND ack to survive (~0.25),
  // two windows per 2 s contact — ~90% per contact. Across 20 contacts
  // the expected count is ~18; far more than the ~1-2 a single-beacon
  // (no-retry) window could deliver.
  radio::LinkParams link;
  link.frame_loss = 0.5;
  link.mobile_beacon_period = Duration::milliseconds(5);
  std::vector<Contact> contacts;
  for (int i = 0; i < 20; ++i) {
    contacts.push_back({at_s(100.0 + 60.0 * i), Duration::seconds(2)});
  }
  World w{contacts, link};
  AlwaysProbe sched{Duration::seconds(1)};
  SensorNode node{w.channel, w.sink, sched, mip_config()};
  node.start();
  node.run_until(at_s(100.0 + 60.0 * 20));
  EXPECT_GE(node.probed_contacts().size(), 14U);
  EXPECT_LE(node.probed_contacts().size(), 20U);
}

TEST(MipProtocol, SnipOutperformsMipAtEqualDuty) {
  // The paper's Sec. III claim, in the full DES: same duty-cycle, same
  // contacts; SNIP probes more capacity than MIP.
  std::vector<Contact> contacts;
  for (int i = 0; i < 50; ++i) {
    contacts.push_back({at_s(20.0 + 67.37 * i), Duration::seconds(2)});
  }
  const Duration cycle = Duration::seconds(2);  // duty 1%

  auto run = [&](ProbingProtocol protocol) {
    World w{contacts};
    AlwaysProbe sched{cycle};
    SensorNodeConfig cfg = mip_config();
    cfg.protocol = protocol;
    cfg.epoch = Duration::hours(2);
    SensorNode node{w.channel, w.sink, sched, cfg};
    node.start();
    node.run_until(at_s(3600));
    return node.current_epoch().zeta.to_seconds();
  };

  const double snip_zeta = run(ProbingProtocol::kSnip);
  const double mip_zeta = run(ProbingProtocol::kMip);
  EXPECT_GT(snip_zeta, 2.0 * mip_zeta);
}

}  // namespace
}  // namespace snipr::node
