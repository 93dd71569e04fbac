/// SensorNode-level tests of the fast-forward of missed probes and idle
/// polls. Each case runs the same world three times: with the plain
/// scheduler (runs are skipped), wrapped in the pass-through decorator
/// that withholds `repeat_bound` (every wakeup simulated: the
/// reference), and wrapped in its hook-forwarding counting form. The
/// runs must agree on `run_until` event counts, the clocks, every
/// counter, every field of the per-epoch history, the probing meter (as
/// Joules, hexfloat) and the probed-contact log — at contacts arriving
/// exactly on a would-be wakeup, contacts a run steps over between two
/// wakeups, a walk capped by the scheduler's bound (a contact on the
/// bound's grid point, 1 µs after it, zero-length, a bound of 1), a
/// wakeup tied with the epoch boundary, zero-length contacts, a cycle
/// shorter than Ton, run_until split into pieces, two nodes on one
/// simulator, poll runs ending at an epoch boundary or running past
/// another node's transfer, an adaptive node's polls and tracker probes
/// with and without crash plans, fault plans and the MIP protocol.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/fault/fault_plan.hpp"
#include "snipr/node/sensor_node.hpp"
#include "support/pass_through_scheduler.hpp"

namespace snipr::node {
namespace {

using contact::Contact;
using contact::ContactSchedule;
using sim::Duration;
using sim::TimePoint;
using testing::PassThroughScheduler;
using Hook = PassThroughScheduler::Hook;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

/// Probes on every wakeup at one cycle and vouches for a run of it up to
/// `bound` wakeups long; records each run the node commits.
class FixedProbe final : public Scheduler {
 public:
  struct Run {
    TimePoint now;
    std::int64_t k;
  };

  explicit FixedProbe(
      Duration cycle,
      std::int64_t bound = std::numeric_limits<std::int64_t>::max())
      : cycle_{cycle}, bound_{bound} {}
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = true, .next_wakeup = cycle_};
  }
  std::int64_t repeat_bound(const SensorContext&, SchedulerDecision verdict,
                            Duration) const override {
    ++hook_calls;
    return verdict.probe && verdict.next_wakeup == cycle_ ? bound_ : 0;
  }
  void commit_repeats(const SensorContext& ctx, SchedulerDecision,
                      std::int64_t k) override {
    runs.push_back({ctx.now, k});
  }
  std::string name() const override { return "fixed"; }
  mutable std::uint64_t hook_calls{0};
  std::vector<Run> runs;

 private:
  Duration cycle_;
  std::int64_t bound_;
};

/// Never probes, polls at one period, and vouches for any run of polls;
/// records each run the node commits (`max_k`: the run's length, all the
/// node's limits allowed).
class FixedPoll final : public Scheduler {
 public:
  struct Offer {
    TimePoint now;
    std::int64_t max_k;
  };

  explicit FixedPoll(Duration period) : period_{period} {}
  SchedulerDecision on_wakeup(const SensorContext&) override {
    return {.probe = false, .next_wakeup = period_};
  }
  std::int64_t repeat_bound(const SensorContext&, SchedulerDecision verdict,
                            Duration charge) const override {
    EXPECT_FALSE(verdict.probe);
    EXPECT_EQ(verdict.next_wakeup, period_);
    EXPECT_TRUE(charge.is_zero());
    return std::numeric_limits<std::int64_t>::max();
  }
  void commit_repeats(const SensorContext& ctx, SchedulerDecision verdict,
                      std::int64_t k) override {
    EXPECT_FALSE(verdict.probe);
    offers.push_back({ctx.now, k});
  }
  std::string name() const override { return "poll"; }
  std::vector<Offer> offers;

 private:
  Duration period_;
};

SensorNodeConfig config() {
  SensorNodeConfig cfg;
  cfg.ton = Duration::milliseconds(20);
  cfg.epoch = Duration::hours(1);
  cfg.budget_limit = Duration::max();
  cfg.sensing_rate_bps = 10.0;
  return cfg;
}

enum class Variant { kPlain, kReference, kCounted };

std::unique_ptr<Scheduler> wrap(std::unique_ptr<Scheduler> s, Variant v) {
  switch (v) {
    case Variant::kPlain:
      return s;
    case Variant::kReference:
      return std::make_unique<PassThroughScheduler>(std::move(s),
                                                    Hook::kWithhold);
    case Variant::kCounted:
      return std::make_unique<PassThroughScheduler>(std::move(s),
                                                    Hook::kForward);
  }
  return s;
}

/// One node (or several) in one simulator, each with its own lane.
struct World {
  sim::Simulator simulator{3};
  NodeBlock block;
  std::vector<std::unique_ptr<radio::Channel>> channels;
  std::vector<std::unique_ptr<MobileNode>> sinks;
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  std::vector<std::unique_ptr<fault::NodeFaultInjector>> faults;
  std::vector<std::unique_ptr<SensorNode>> nodes;

  explicit World(std::size_t n) : block{n} {}

  SensorNode& add(std::vector<Contact> contacts,
                  std::unique_ptr<Scheduler> scheduler,
                  SensorNodeConfig cfg = config(),
                  radio::LinkParams link = {},
                  const fault::FaultSpec* fault_spec = nullptr) {
    const std::size_t lane = nodes.size();
    channels.push_back(std::make_unique<radio::Channel>(
        ContactSchedule{std::move(contacts)}, link, sim::Rng{99 + lane}));
    sinks.push_back(std::make_unique<MobileNode>());
    schedulers.push_back(std::move(scheduler));
    nodes.push_back(std::make_unique<SensorNode>(
        simulator, *channels.back(), *sinks.back(), *schedulers.back(), cfg,
        block, lane));
    if (fault_spec != nullptr) {
      faults.push_back(std::make_unique<fault::NodeFaultInjector>(
          fault_spec, sim::Rng{7 + lane}));
      nodes.back()->attach_faults(faults.back().get());
    }
    nodes.back()->start();
    return *nodes.back();
  }

  [[nodiscard]] PassThroughScheduler& counted(std::size_t lane) {
    return dynamic_cast<PassThroughScheduler&>(*schedulers[lane]);
  }
};

void append_hex(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a,", v);
  out += buf;
}

/// Everything the fast-forward could disturb, doubles in hexfloat.
std::string fingerprint(World& w) {
  std::string out = std::to_string(w.simulator.now().count()) + ';';
  for (std::size_t i = 0; i < w.nodes.size(); ++i) {
    const SensorNode& node = *w.nodes[i];
    const NodeCounters& c = w.block.lanes[i];
    out += std::to_string(node.now().count()) + ',';
    for (const std::int64_t v : {c.phi_us, c.zeta_us, c.budget_used_us,
                                 c.last_wakeup_us, c.last_probed_arrival_us}) {
      out += std::to_string(v) + ',';
    }
    for (const std::uint64_t v :
         {c.contacts_probed, c.wakeups, c.probed_sessions}) {
      out += std::to_string(v) + ',';
    }
    append_hex(out, c.bytes_uploaded);
    const EpochStats now = node.current_epoch();
    append_hex(out, now.probing_energy_j);
    append_hex(out, now.transfer_energy_j);
    for (const EpochStats& e : node.epoch_history()) {
      for (const std::int64_t v :
           {e.epoch_index, e.phi.count(), e.zeta.count()}) {
        out += std::to_string(v) + ',';
      }
      for (const std::uint64_t v : {e.contacts_probed, e.wakeups}) {
        out += std::to_string(v) + ',';
      }
      append_hex(out, e.bytes_uploaded);
      append_hex(out, e.probing_energy_j);
      append_hex(out, e.transfer_energy_j);
    }
    for (const ProbedContactRecord& r : node.probed_contacts()) {
      out += std::to_string(r.contact.arrival.count()) + '/' +
             std::to_string(r.contact.length.count()) + '/' +
             std::to_string(r.probe_time.count()) + '/';
      append_hex(out, r.bytes_uploaded);
    }
    out += ';';
  }
  return out;
}

using MakeScheduler = std::function<std::unique_ptr<Scheduler>()>;

std::unique_ptr<Scheduler> snip_at() {
  // d = 0.01 with Ton = 20 ms: a 2 s cycle.
  return std::make_unique<core::SnipAt>(0.01, Duration::milliseconds(20));
}

/// The three variants over one contact list, run to `until`; returns the
/// plain run's skipped-probe count (from the counted variant).
std::uint64_t expect_identical(const std::vector<Contact>& contacts,
                               MakeScheduler make, TimePoint until,
                               radio::LinkParams link = {}) {
  std::vector<std::string> prints;
  std::vector<std::size_t> events;
  std::uint64_t skipped = 0;
  for (const Variant v :
       {Variant::kPlain, Variant::kReference, Variant::kCounted}) {
    World w{1};
    w.add(contacts, wrap(make(), v), config(), link);
    events.push_back(w.simulator.run_until(until));
    prints.push_back(fingerprint(w));
    if (v == Variant::kCounted) skipped = w.counted(0).skipped_probes();
  }
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(events[0], events[2]);
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
  return skipped;
}

TEST(FastForward, ContactArrivingExactlyAtAWouldBeWakeup) {
  // Wakeups every 2 s from t = 0 until the first transfer retimes them:
  // 20 s is a wakeup instant.
  const std::vector<Contact> contacts{
      {at_s(20), Duration::seconds(1)},
      {at_s(41) + Duration::microseconds(1), Duration::seconds(3)},
      {at_s(60), Duration::milliseconds(5)},
  };
  EXPECT_GT(expect_identical(contacts, snip_at, at_s(200)), 0U);
  // The wakeup at 20 s ends the first run of misses and probes at once;
  // one microsecond later, the run takes in the 20 s wakeup and the
  // contact is probed at 22 s.
  for (const Duration late : {Duration::zero(), Duration::microseconds(1)}) {
    const std::vector<Contact> one{{at_s(20) + late, Duration::seconds(3)}};
    EXPECT_GT(expect_identical(one, snip_at, at_s(60)), 0U);
    World w{1};
    const SensorNode& node = w.add(one, snip_at());
    w.simulator.run_until(at_s(60));
    ASSERT_EQ(node.probed_contacts().size(), 1U);
    EXPECT_EQ(node.probed_contacts()[0].probe_time,
              (late.is_zero() ? at_s(20) : at_s(22)) +
                  Duration::milliseconds(2));
  }
}

TEST(FastForward, RunStepsOverContactsBetweenGridPoints) {
  // Wakeups every 2 s from t = 0. A lone contact, a back-to-back pair and
  // a zero-length contact all fall between two wakeups, so the run from
  // the miss at t = 0 steps over them and ends at 48 s, before the
  // contact the 50 s probe lands in.
  const std::vector<Contact> contacts{
      {at_s(10.5), Duration::milliseconds(500)},
      {at_s(21.2), Duration::milliseconds(300)},
      {at_s(21.5), Duration::milliseconds(400)},
      {at_s(33), Duration::zero()},
      {at_s(49.9), Duration::milliseconds(500)},
  };
  EXPECT_GT(expect_identical(contacts, snip_at, at_s(60)), 0U);
  World w{1};
  const SensorNode& node = w.add(contacts, wrap(snip_at(), Variant::kCounted));
  w.simulator.run_until(at_s(50) - Duration::microseconds(1));
  EXPECT_EQ(w.counted(0).wakeup_calls(), 1U);
  EXPECT_EQ(w.counted(0).skipped_probes(), 24U);
  w.simulator.run_until(at_s(60));
  ASSERT_EQ(node.probed_contacts().size(), 1U);
  EXPECT_EQ(node.probed_contacts()[0].contact.arrival, at_s(49.9));
}

TEST(FastForward, WakeupOnTheEpochBoundaryRunsAfterIt) {
  // With no contact before 2 h, wakeups on the 2 s grid land exactly on
  // the hourly epoch boundaries. The boundary timer was armed first, so
  // it wins the tie: a run must stop short of it, and the wakeup on
  // the boundary is charged to the new epoch.
  const std::vector<Contact> contacts{{at_s(7300), Duration::seconds(1)}};
  EXPECT_GT(expect_identical(contacts, snip_at, at_s(3 * 3600)), 0U);
  World w{1};
  const SensorNode& node = w.add(contacts, snip_at());
  w.simulator.run_until(at_s(3600));
  ASSERT_EQ(node.epoch_history().size(), 1U);
  EXPECT_EQ(node.epoch_history()[0].wakeups, 1800U);
}

TEST(FastForward, ZeroLengthContacts) {
  // On a wakeup instant, between two, and back to back with a real one.
  const std::vector<Contact> contacts{
      {at_s(20), Duration::zero()},
      {at_s(31), Duration::zero()},
      {at_s(50), Duration::zero()},
      {at_s(50), Duration::seconds(2)},
  };
  EXPECT_GT(expect_identical(contacts, snip_at, at_s(300)), 0U);
  // A zero-airtime beacon takes the closed-interval delivery path, which
  // succeeds exactly at a zero-length contact's instant.
  radio::LinkParams link;
  link.beacon_airtime = Duration::zero();
  EXPECT_GT(expect_identical(contacts, snip_at, at_s(300), link), 0U);
}

TEST(FastForward, CycleShorterThanTonIsNeverSkipped) {
  // The node stretches a 10 ms cycle to Ton = 20 ms, so its next delay is
  // not the scheduler's: the hook is never even asked.
  for (const Variant v : {Variant::kPlain, Variant::kReference}) {
    World w{1};
    auto fixed = std::make_unique<FixedProbe>(Duration::milliseconds(10));
    FixedProbe* probe = fixed.get();
    w.add({{at_s(3), Duration::seconds(1)}}, wrap(std::move(fixed), v));
    w.simulator.run_until(at_s(10));
    EXPECT_EQ(probe->hook_calls, 0U);
  }
  // At cycle == Ton runs are skipped, and the bytes still match.
  const MakeScheduler exact = [] {
    return std::unique_ptr<Scheduler>{
        std::make_unique<FixedProbe>(Duration::milliseconds(20))};
  };
  EXPECT_GT(expect_identical({{at_s(3), Duration::seconds(1)}}, exact,
                             at_s(10)),
            0U);
  const MakeScheduler short_cycle = [] {
    return std::unique_ptr<Scheduler>{
        std::make_unique<FixedProbe>(Duration::milliseconds(10))};
  };
  EXPECT_EQ(expect_identical({{at_s(3), Duration::seconds(1)}}, short_cycle,
                             at_s(10)),
            0U);
}

TEST(FastForward, WalkStopsAtTheSchedulersBound) {
  // Probes every 2 s from t = 0 under a scheduler that vouches for at
  // most B wakeups per miss, so the node walks the schedule only to
  // t0 + B·cycle. A contact arriving exactly on that last grid point, even
  // a zero-length one, is a probe the run may not skip: the first run
  // stops at B − 1. One arriving 1 µs later is stepped over up to the
  // bound, and the run takes all B wakeups.
  struct Case {
    std::int64_t bound;
    Duration late;
    Duration length;
    std::int64_t first_run;
  };
  const Duration micro = Duration::microseconds(1);
  for (const Case& c : {Case{5, Duration::zero(), Duration::seconds(3), 4},
                        Case{5, micro, Duration::seconds(3), 5},
                        Case{5, Duration::zero(), Duration::zero(), 4},
                        Case{5, micro, Duration::zero(), 5},
                        Case{1, Duration::zero(), Duration::seconds(3), 0},
                        Case{1, micro, Duration::seconds(3), 1},
                        Case{1, Duration::zero(), Duration::zero(), 0}}) {
    const Duration cycle = Duration::seconds(2);
    const std::vector<Contact> contacts{
        {TimePoint::zero() + cycle * c.bound + c.late, c.length},
        {at_s(101), Duration::seconds(1)}};
    const MakeScheduler make = [&] {
      return std::unique_ptr<Scheduler>{
          std::make_unique<FixedProbe>(cycle, c.bound)};
    };
    EXPECT_GT(expect_identical(contacts, make, at_s(200)), 0U);
    World w{1};
    auto fixed = std::make_unique<FixedProbe>(cycle, c.bound);
    const FixedProbe& probe = *fixed;
    w.add(contacts, std::move(fixed));
    w.simulator.run_until(at_s(200));
    ASSERT_FALSE(probe.runs.empty());
    const std::string label = std::to_string(c.bound) + "/" +
                              std::to_string(c.late.count()) + "/" +
                              std::to_string(c.length.count());
    if (c.first_run == 0) {
      EXPECT_GT(probe.runs[0].now, at_s(0)) << label;
    } else {
      EXPECT_EQ(probe.runs[0].now, at_s(0)) << label;
      EXPECT_EQ(probe.runs[0].k, c.first_run) << label;
    }
    for (const FixedProbe::Run& r : probe.runs) {
      EXPECT_GT(r.k, 0) << label;
      EXPECT_LE(r.k, c.bound) << label;
    }
  }
}

TEST(FastForward, RunUntilSplitIntoPieces) {
  const std::vector<Contact> contacts{{at_s(20), Duration::seconds(1)},
                                      {at_s(3700), Duration::seconds(4)}};
  const std::vector<TimePoint> pieces{
      at_s(7.3),  at_s(20) - Duration::microseconds(1), at_s(20),
      at_s(59),   at_s(3600),                           at_s(3600.5),
      at_s(7300), at_s(7300)};
  std::vector<std::vector<std::size_t>> counts;
  std::vector<std::vector<std::string>> prints;
  for (const Variant v : {Variant::kPlain, Variant::kReference}) {
    World w{1};
    w.add(contacts, wrap(snip_at(), v));
    counts.emplace_back();
    prints.emplace_back();
    for (const TimePoint until : pieces) {
      counts.back().push_back(w.simulator.run_until(until));
      prints.back().push_back(fingerprint(w));
    }
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(prints[0], prints[1]);
  // Pieces add up to the same total as one run.
  World whole{1};
  whole.add(contacts, snip_at());
  std::size_t sum = 0;
  for (const std::size_t c : counts[0]) sum += c;
  EXPECT_EQ(whole.simulator.run_until(at_s(7300)), sum);
  EXPECT_EQ(fingerprint(whole), prints[0].back());
}

TEST(FastForward, NodesSharingOneSimulator) {
  // A 10 min SNIP-OPT cycle beside a 2 s SNIP-AT one. The simulator runs
  // each node to the bound in turn, so only a node's own timers bound
  // its runs, and the summed events match the per-wakeup reference.
  const std::vector<Contact> a{{at_s(20), Duration::seconds(1)},
                               {at_s(3000), Duration::seconds(5)}};
  const std::vector<Contact> b{{at_s(1200), Duration::seconds(2)}};
  const auto make_opt = [] {
    return std::unique_ptr<Scheduler>{std::make_unique<core::SnipOpt>(
        std::vector<double>(24, 0.02 / 600.0), Duration::hours(24),
        Duration::milliseconds(20))};
  };
  std::vector<std::string> prints;
  std::uint64_t skipped = 0;
  for (const Variant v :
       {Variant::kPlain, Variant::kReference, Variant::kCounted}) {
    World w{2};
    w.add(a, wrap(snip_at(), v));
    w.add(b, wrap(make_opt(), v));
    const std::size_t events = w.simulator.run_until(at_s(7200));
    prints.push_back(fingerprint(w) + std::to_string(events));
    if (v == Variant::kCounted) skipped = w.counted(0).skipped_probes();
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
  EXPECT_GT(skipped, 0U);
}

TEST(FastForward, PollRunStopsBeforeTheEpochEvent) {
  // 1 s polls from t = 0 beside hourly epoch boundaries: the first run
  // takes the wakeups at 1..3599 s, and the one at 3600 s runs after the
  // boundary, which was armed first.
  std::vector<std::size_t> events;
  std::vector<std::string> prints;
  for (const Variant v : {Variant::kPlain, Variant::kReference}) {
    World w{1};
    auto poll = std::make_unique<FixedPoll>(Duration::seconds(1));
    FixedPoll* fixed = poll.get();
    w.add({}, wrap(std::move(poll), v));
    events.push_back(w.simulator.run_until(at_s(2 * 3600 + 0.5)));
    prints.push_back(fingerprint(w));
    if (v == Variant::kPlain) {
      // The run_until bound leaves no room for a run after the poll at
      // 7200 s, so no run is committed there.
      ASSERT_EQ(fixed->offers.size(), 2U);
      EXPECT_EQ(fixed->offers[0].now, at_s(0));
      EXPECT_EQ(fixed->offers[0].max_k, 3599);
      EXPECT_EQ(fixed->offers[1].now, at_s(3600));
      EXPECT_EQ(fixed->offers[1].max_k, 3599);
    } else {
      EXPECT_TRUE(fixed->offers.empty());
    }
  }
  // Every poll and both boundaries count as events either way.
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(events[0], 7201U + 2U);
  EXPECT_EQ(prints[0], prints[1]);
}

TEST(FastForward, PollRunIgnoresAnotherNodesTransfer) {
  // Node 0 probes a 100 s contact at 20 s and, with a link slower than
  // its sensing rate, uploads until the contact departs at 120 s. Node 1
  // polls every second on the same simulator; its own timers and the run
  // bound are all that bound its runs, so its first run takes every poll
  // through the bound at 300 s.
  radio::LinkParams slow;
  slow.data_rate_bps = 5.0;
  std::vector<std::string> prints;
  for (const Variant v : {Variant::kPlain, Variant::kReference}) {
    World w{2};
    w.add({{at_s(20), Duration::seconds(100)}}, wrap(snip_at(), v), config(),
          slow);
    auto poll = std::make_unique<FixedPoll>(Duration::seconds(1));
    FixedPoll* fixed = poll.get();
    w.add({}, wrap(std::move(poll), v));
    const std::size_t events = w.simulator.run_until(at_s(300));
    prints.push_back(fingerprint(w) + std::to_string(events));
    ASSERT_EQ(w.nodes[0]->probed_contacts().size(), 1U);
    if (v == Variant::kPlain) {
      ASSERT_EQ(fixed->offers.size(), 1U);
      EXPECT_EQ(fixed->offers[0].now, at_s(0));
      EXPECT_EQ(fixed->offers[0].max_k, 300);
    }
  }
  EXPECT_EQ(prints[0], prints[1]);
}

/// Days whose only contacts are 2 min long, every 5 min in hours 7 and 17.
std::vector<Contact> commuter_days(int days) {
  std::vector<Contact> contacts;
  for (int day = 0; day < days; ++day) {
    for (const int hour : {7, 17}) {
      for (int minute = 2; minute < 60; minute += 5) {
        contacts.push_back(
            {at_s(day * 86400.0 + hour * 3600.0 + minute * 60.0),
             Duration::seconds(120)});
      }
    }
  }
  return contacts;
}

TEST(FastForward, AdaptiveNodeSkipsPollsAndTrackerProbes) {
  // Two learning days at the tracker's duty, then adaptive SNIP-RH with
  // two rush slots, a 200 s tracker and an 8 s budget: tracker probes
  // outside the mask form runs, and once the budget is spent the node
  // polls at 1 Hz to the end of the day. Crash plans reboot it at four
  // epoch boundaries. An amnesiac reboot relearns the mask; a restored
  // one here adopts slots 0 and 1, spends the budget there each morning
  // and then only polls, so it has no tracker runs to skip.
  const auto make = [] {
    core::AdaptiveSnipRhConfig cfg;
    cfg.learning_epochs = 2;
    cfg.learning_duty = 1e-4;
    cfg.rush_slots = 2;
    cfg.rh.ton = Duration::milliseconds(20);
    return std::unique_ptr<Scheduler>{std::make_unique<core::AdaptiveSnipRh>(
        Duration::hours(24), 24, cfg)};
  };
  SensorNodeConfig cfg = config();
  cfg.epoch = Duration::hours(24);
  cfg.budget_limit = Duration::seconds(8);
  fault::FaultSpec amnesia;
  amnesia.node.crash_prob_per_epoch = 0.4;
  fault::FaultSpec restore = amnesia;
  restore.node.restore_from_checkpoint = true;
  struct Plan {
    const fault::FaultSpec* faults;
    bool tracker_runs;
  };
  for (const Plan& plan : {Plan{nullptr, true}, Plan{&amnesia, true},
                           Plan{&restore, false}}) {
    std::vector<std::string> prints;
    for (const Variant v :
         {Variant::kPlain, Variant::kReference, Variant::kCounted}) {
      World w{1};
      w.add(commuter_days(10), wrap(make(), v), cfg, {}, plan.faults);
      const std::size_t events = w.simulator.run_until(at_s(10 * 86400.0));
      prints.push_back(fingerprint(w) + std::to_string(events));
      if (plan.faults != nullptr) {
        EXPECT_EQ(w.faults[0]->counters().crashes, 4U);
      }
      if (v == Variant::kCounted) {
        EXPECT_GT(w.counted(0).skipped_polls(), 10000U);
        EXPECT_EQ(w.counted(0).skipped_tracker_probes() > 1000U,
                  plan.tracker_runs);
      }
    }
    EXPECT_EQ(prints[0], prints[1]);
    EXPECT_EQ(prints[0], prints[2]);
  }
}

TEST(FastForward, FaultPlansKeepTheirBytes) {
  const std::vector<Contact> contacts{{at_s(20), Duration::seconds(1)},
                                      {at_s(91), Duration::seconds(4)},
                                      {at_s(1400), Duration::seconds(3)}};
  fault::FaultSpec misses;
  misses.radio.probe_miss_prob = 0.5;
  misses.radio.transfer_abort_prob = 0.5;
  fault::FaultSpec spurious = misses;
  spurious.radio.spurious_detect_prob = 0.01;

  struct Case {
    const fault::FaultSpec* faults;
    bool skips;
  };
  for (const Case& c : {Case{&misses, true}, Case{&spurious, false}}) {
    std::vector<std::string> prints;
    std::uint64_t skipped = 0;
    for (const Variant v :
         {Variant::kPlain, Variant::kReference, Variant::kCounted}) {
      World w{1};
      w.add(contacts, wrap(snip_at(), v), config(), {}, c.faults);
      w.simulator.run_until(at_s(3 * 3600));
      prints.push_back(fingerprint(w));
      if (v == Variant::kCounted) skipped = w.counted(0).skipped_probes();
    }
    EXPECT_EQ(prints[0], prints[1]);
    EXPECT_EQ(prints[0], prints[2]);
    // Spurious detections draw on every miss: they keep the per-wakeup
    // path.
    EXPECT_EQ(skipped > 0, c.skips);
  }
}

}  // namespace
}  // namespace snipr::node
