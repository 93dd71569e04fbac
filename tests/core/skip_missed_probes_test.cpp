/// Unit tests of the fast-forward pair `Scheduler::repeat_bound` /
/// `commit_repeats` for the four core schedulers, driven as a node drives
/// them (tests/support/skip_run.hpp: the bound capped at `max_k`, then
/// committed). Every case runs two identically configured schedulers:
/// one skips a run of missed probes or idle polls through the pair, its
/// twin makes the same wakeups one on_wakeup() call at a time, and the
/// two must agree on every verdict and end in the same state
/// (checkpoint(), which carries the adaptive learner's effort sums in
/// hexfloat, so equal strings mean bit-identical sums). The edge cases
/// pin the exact run lengths: the budget running out at the k-th skipped
/// probe, SNIP-OPT, SNIP-RH and budget-spent poll runs ending 1 µs before
/// a slot boundary, runs ending one cycle short of the tracker's due
/// time, adaptive SNIP-RH's learning runs and lone tracker probes
/// crossing slot boundaries with each probe's effort in its own slot, the
/// tracker's runs stopping one cycle short of the next rush slot, the
/// budget-spent poll stopping one delay before the epoch end, and the
/// cached SNIP-RH cycle following every change of its estimate. A run an
/// unbounded budget would not stop gets a finite max_k, so its twin makes
/// few wakeups. A lockstep replay then drives whole epochs of all-miss
/// wakeups through both twins.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/core/snip_rh.hpp"
#include "support/skip_run.hpp"

namespace snipr::core {
namespace {

using node::Scheduler;
using node::SchedulerDecision;
using node::SensorContext;
using sim::Duration;
using sim::TimePoint;
using testing::skip_run;

constexpr Duration kTon = Duration::milliseconds(20);
constexpr Duration kMicro = Duration::microseconds(1);

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

SchedulerDecision probing(Duration cycle) {
  return {.probe = true, .next_wakeup = cycle};
}

SensorContext context(TimePoint now, Duration budget_used = Duration::zero(),
                      Duration budget_limit = Duration::max(),
                      double buffer_bytes = 1e9) {
  SensorContext ctx;
  ctx.now = now;
  ctx.buffer_bytes = buffer_bytes;
  ctx.budget_used = budget_used;
  ctx.budget_limit = budget_limit;
  return ctx;
}

/// The wakeup at `ctx` on both twins (it must probe, or for `probing`
/// false must not), its miss charged, then up to `max_k` skipped by
/// `fast` and made one by one by `ref`. Returns k; fails the test when
/// the twins disagree.
std::int64_t skip_against_twin(Scheduler& fast, Scheduler& ref,
                               SensorContext ctx, std::int64_t max_k,
                               bool probing = true) {
  const SchedulerDecision first = fast.on_wakeup(ctx);
  const SchedulerDecision twin = ref.on_wakeup(ctx);
  EXPECT_EQ(first.probe, twin.probe);
  EXPECT_EQ(first.next_wakeup, twin.next_wakeup);
  if (first.probe != probing) {
    ADD_FAILURE() << "the first wakeup must " << (probing ? "" : "not ")
                  << "probe";
    return -1;
  }
  const Duration charge = probing ? kTon : Duration::zero();
  ctx.budget_used += charge;
  const std::int64_t k = skip_run(fast, ctx, first, charge, max_k);
  EXPECT_GE(k, 0);
  EXPECT_LE(k, max_k);
  SensorContext step = ctx;
  for (std::int64_t j = 1; j <= k; ++j) {
    step.now = ctx.now + first.next_wakeup * j;
    const SchedulerDecision d = ref.on_wakeup(step);
    if (d.probe != first.probe || d.next_wakeup != first.next_wakeup) {
      ADD_FAILURE() << "skipped wakeup " << j << " would not repeat";
      return k;
    }
    step.budget_used += charge;
  }
  EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  return k;
}

/// The verdict on_wakeup() gives right after a run of k skipped probes.
SchedulerDecision wakeup_after_run(Scheduler& ref, SensorContext ctx,
                                   Duration cycle, std::int64_t k) {
  ctx.now = ctx.now + cycle * (k + 1);
  ctx.budget_used += kTon * (k + 1);
  return ref.on_wakeup(ctx);
}

constexpr std::int64_t kUnbounded = 1'000'000'000;

// --- SNIP-AT ----------------------------------------------------------------

TEST(SkipMissedProbes, SnipAtStopsWhereTheBudgetRunsOut) {
  // d = 0.01 -> 2 s cycle. Φmax = 10 Ton; 5 wakeups spent before t0, the
  // sixth is t0 itself: wakeups 7..10 still fit, the 11th does not.
  const Duration limit = kTon * 10;
  const SensorContext ctx = context(at_s(100), kTon * 5, limit);
  SnipAt fast{0.01, kTon};
  SnipAt ref{0.01, kTon};
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 4);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, fast.cycle(), 4).probe);
}

TEST(SkipMissedProbes, SnipAtHonoursMaxKAndItsOwnCycle) {
  SnipAt fast{0.01, kTon};
  SnipAt ref{0.01, kTon};
  EXPECT_EQ(skip_against_twin(fast, ref, context(at_s(0)), 3), 3);
  // A cycle the scheduler would not return (a decorator's, say): no run.
  SnipAt at{0.01, kTon};
  EXPECT_EQ(skip_run(at, context(at_s(0), kTon), probing(at.cycle() + kMicro),
                     kTon, kUnbounded),
            0);
  // The hook is only ever offered a run the budget allows; an exhausted
  // budget at ctx.now skips nothing.
  EXPECT_EQ(skip_run(at, context(at_s(0), kTon * 10, kTon * 10),
                     probing(at.cycle()), kTon, kUnbounded),
            0);
}

// --- SNIP-OPT ---------------------------------------------------------------

SnipOpt two_slot_plan() {
  // 24 one-hour slots: 2 s cycle in slot 0, 1 s in slot 1, idle after.
  std::vector<double> duties(24, 0.0);
  duties[0] = 0.01;
  duties[1] = 0.02;
  return SnipOpt{duties, Duration::hours(24), kTon};
}

TEST(SkipMissedProbes, SnipOptRunEndsOneMicrosecondBeforeTheSlotBoundary) {
  // t0 + 10 · 2 s = 3600 s − 1 µs, the last instant of slot 0.
  const SensorContext ctx = context(at_s(3580) - kMicro);
  SnipOpt fast = two_slot_plan();
  SnipOpt ref = two_slot_plan();
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 10);
  // The next wakeup falls in slot 1 and probes at slot 1's cycle.
  const SchedulerDecision next =
      wakeup_after_run(ref, ctx, Duration::seconds(2), 10);
  EXPECT_TRUE(next.probe);
  EXPECT_EQ(next.next_wakeup, Duration::seconds(1));

  // One microsecond later, the tenth wakeup lands on the boundary itself.
  SnipOpt fast2 = two_slot_plan();
  SnipOpt ref2 = two_slot_plan();
  EXPECT_EQ(skip_against_twin(fast2, ref2, context(at_s(3580)), kUnbounded),
            9);
}

TEST(SkipMissedProbes, SnipOptStopsWhereTheBudgetRunsOut) {
  const SensorContext ctx = context(at_s(10), Duration::zero(), kTon * 4);
  SnipOpt fast = two_slot_plan();
  SnipOpt ref = two_slot_plan();
  // t0 is wakeup 1; wakeups 2..4 fit.
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 3);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, Duration::seconds(2), 3).probe);
}

// --- SNIP-RH ----------------------------------------------------------------

SnipRh rush_seven(double tcontact_s = 2.0) {
  SnipRhConfig config;
  config.ton = kTon;
  config.initial_tcontact_s = tcontact_s;
  return SnipRh{RushHourMask::from_hours({7}), config};
}

TEST(SkipMissedProbes, SnipRhRunEndsOneMicrosecondBeforeTheRushSlotEnds) {
  // Rush slot 7 ends at 28800 s; 2 s cycle.
  const SensorContext ctx = context(at_s(28800 - 40) - kMicro);
  SnipRh fast = rush_seven();
  SnipRh ref = rush_seven();
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 20);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, Duration::seconds(2), 20).probe);
}

TEST(SkipMissedProbes, SnipRhStopsWhereTheBudgetRunsOut) {
  const SensorContext ctx = context(at_s(25300), kTon * 7, kTon * 12);
  SnipRh fast = rush_seven();
  SnipRh ref = rush_seven();
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 4);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, Duration::seconds(2), 4).probe);
}

TEST(SkipMissedProbes, SnipRhSkipsNothingBelowTheUploadThreshold) {
  SnipRh rh = rush_seven();
  const Duration cycle = rh.on_wakeup(context(at_s(25300))).next_wakeup;
  // The 1-byte upload floor: an empty buffer would not probe.
  EXPECT_EQ(skip_run(rh, context(at_s(25300), kTon, Duration::max(), 0.5),
                     probing(cycle), kTon, kUnbounded),
            0);
  // Outside the rush slot nothing is skipped either.
  EXPECT_EQ(skip_run(rh, context(at_s(3600), kTon), probing(cycle), kTon,
                     kUnbounded),
            0);
}

TEST(SkipMissedProbes, SnipRhCachedCycleFollowsEveryEstimateChange) {
  // The probing cycle on_wakeup() and the hook use is cached; it must be
  // max(Ton/d, Ton) for the live estimate after every change of it.
  const auto expect_fresh = [](SnipRh& rh) {
    const SchedulerDecision d = rh.on_wakeup(context(at_s(25300)));
    ASSERT_TRUE(d.probe);
    EXPECT_EQ(d.next_wakeup,
              std::max(Duration::seconds(kTon.to_seconds() / rh.duty()),
                       kTon));
    EXPECT_EQ(skip_run(rh, context(at_s(25300), kTon), d, kTon, 1), 1);
  };
  SnipRh rh = rush_seven();
  expect_fresh(rh);
  node::ProbedContactObservation obs;
  obs.probe_time = at_s(25300);
  obs.observed_probed_len = Duration::seconds(7);
  obs.cycle_at_probe = Duration::seconds(2);
  obs.bytes_uploaded = 10.0;
  rh.on_contact_probed(obs);
  expect_fresh(rh);
  const std::string learned = rh.checkpoint();

  SnipRh restored = rush_seven();
  ASSERT_TRUE(restored.restore(learned));
  EXPECT_EQ(restored.duty(), rh.duty());
  expect_fresh(restored);

  rh.reset();
  EXPECT_EQ(rh.duty(), rush_seven().duty());
  expect_fresh(rh);
}

// --- Adaptive SNIP-RH -------------------------------------------------------

AdaptiveSnipRhConfig adaptive_config(double tracking_duty,
                                     double tcontact_s = 2.0) {
  AdaptiveSnipRhConfig config;
  config.learning_epochs = 2;
  config.rush_slots = 2;
  config.tracking_duty = tracking_duty;
  config.rh.ton = kTon;
  config.rh.initial_tcontact_s = tcontact_s;
  return config;
}

/// Two learning epochs whose detections favour slots 7 and 17, so the
/// adopted mask is {7, 17} from day 2 on.
void learn_rush_seven_and_seventeen(AdaptiveSnipRh& s) {
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 8; ++i) {
      s.on_probe_detected(at_s(day * 86400.0 + 7.5 * 3600));
      s.on_probe_detected(at_s(day * 86400.0 + 17.5 * 3600));
    }
    s.on_epoch_start(day + 1);
  }
  ASSERT_FALSE(s.learning());
}

/// The sum of `n` effort samples of one Ton, added one at a time as the
/// per-wakeup path adds them.
double effort_of(int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += kTon.to_seconds();
  return sum;
}

TEST(SkipMissedProbes, AdaptiveLearningRunCrossesSlotsWithExactEffort) {
  // Learning duty 0.001 -> 20 s cycle. SNIP-AT ignores slots, so only
  // max_k bounds a run under an unbounded budget: from 3400 s − 1 µs the
  // 400 skipped wakeups reach 11400 s − 1 µs, across slots 0 to 3.
  const SensorContext ctx = context(at_s(3600 - 200) - kMicro);
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(0.0)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(0.0)};
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, 400), 400);
  // Each wakeup's effort went to its own slot, one sample at a time: t0
  // and ten skipped ones in slot 0, 180 in each of slots 1 and 2, and 30
  // in slot 3. The sums match the twin's bit for bit.
  fast.on_epoch_start(1);
  ref.on_epoch_start(1);
  EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  const std::vector<double>& effort = fast.learner().total_effort_s();
  const std::vector<double>& twin = ref.learner().total_effort_s();
  const std::vector<int> samples{11, 180, 180, 30, 0};
  for (std::size_t slot = 0; slot < samples.size(); ++slot) {
    EXPECT_EQ(effort[slot], twin[slot]) << "slot " << slot;
    EXPECT_EQ(effort[slot], effort_of(samples[slot])) << "slot " << slot;
  }
}

TEST(SkipMissedProbes, AdaptiveLearningStopsWhereTheBudgetRunsOut) {
  const SensorContext ctx = context(at_s(100), kTon * 2, kTon * 6);
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(0.0)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(0.0)};
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 3);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, Duration::seconds(20), 3).probe);
}

TEST(SkipMissedProbes, AdaptiveExploitRunEndsOneCycleShortOfTheTracker) {
  // Tracker duty 1e-4 -> due 200 s after the tracker wakeup at t0; the
  // plain path returns SNIP-RH's cycle c only while due − t >= c, so the
  // run ends at the last wakeup <= due − c: k = (200 s − c) / c. The
  // contact-length priors make c divide 200 s exactly, miss it by 1 µs
  // either way, or not divide it at all.
  const SnipAt tracker{1e-4, kTon};
  for (const double tcontact_s : {2.0, 1.999999, 2.000001, 3.3}) {
    AdaptiveSnipRh fast{Duration::hours(24), 24,
                        adaptive_config(1e-4, tcontact_s)};
    AdaptiveSnipRh ref{Duration::hours(24), 24,
                       adaptive_config(1e-4, tcontact_s)};
    learn_rush_seven_and_seventeen(fast);
    learn_rush_seven_and_seventeen(ref);
    const SensorContext ctx = context(at_s(2 * 86400.0 + 7 * 3600 + 10));
    SnipRh plain{RushHourMask::from_hours({7}),
                 adaptive_config(1e-4, tcontact_s).rh};
    const Duration cycle = plain.on_wakeup(ctx).next_wakeup;
    const std::int64_t expected =
        (tracker.cycle() - cycle).count() / cycle.count();
    EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), expected)
        << "tcontact " << tcontact_s;
  }
}

/// An adaptive checkpoint as tokens, to restore an edited state. The
/// trailing tokens are the exploration mask's slot count and 24 bits,
/// then the tracker's and the floor's due times (µs).
std::vector<std::string> tokens_of(const AdaptiveSnipRh& s) {
  std::vector<std::string> tokens;
  const std::string blob = s.checkpoint();
  std::size_t at = 0;
  while (at < blob.size()) {
    const std::size_t end = std::min(blob.find(' ', at), blob.size());
    if (end > at) tokens.push_back(blob.substr(at, end - at));
    at = end + 1;
  }
  return tokens;
}

std::string joined(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) out += token + ' ';
  return out;
}

std::size_t track_due_token(const std::vector<std::string>& tokens) {
  return tokens.size() - 2;
}
std::size_t explore_due_token(const std::vector<std::string>& tokens) {
  return tokens.size() - 1;
}

std::string due_us(TimePoint t) { return std::to_string(t.count()); }
std::string bit(bool set) { return set ? "1" : "0"; }

/// `s`'s checkpoint with the exploration mask set to `slots`, its floor
/// due at `explore_due`.
std::string with_plan(const AdaptiveSnipRh& s,
                      const std::vector<std::size_t>& slots,
                      TimePoint explore_due = TimePoint::zero()) {
  std::vector<std::string> tokens = tokens_of(s);
  const std::size_t bits = tokens.size() - 2 - 24;
  for (std::size_t slot = 0; slot < 24; ++slot) {
    const bool planned =
        std::find(slots.begin(), slots.end(), slot) != slots.end();
    tokens[bits + slot] = bit(planned);
  }
  tokens[explore_due_token(tokens)] = due_us(explore_due);
  return joined(tokens);
}

TEST(SkipMissedProbes, AdaptiveExploitRunStopsShortOfTheExplorationFloor) {
  // Exploration plans pick slots outside the rush mask, so a run never
  // meets the floor in practice; a restored plan over rush slot 7 and
  // over slot 8, right after it, exercises both bounds anyway.
  AdaptiveSnipRhConfig config = adaptive_config(0.0);
  config.exploration.kind = ExplorationPolicyKind::kEpsilonFloor;
  config.exploration.explore_duty = 0.002;  // a 10 s floor cycle
  AdaptiveSnipRh learned{Duration::hours(24), 24, config};
  learn_rush_seven_and_seventeen(learned);
  ASSERT_GT(learned.exploration_mask().rush_slot_count(), 0U);

  // Inside the planned slot the floor probes at t0, due again 10 s later;
  // SNIP-RH's 2 s cycle may run to due − 2 s: four skipped wakeups.
  const std::string inside = with_plan(learned, {7});
  AdaptiveSnipRh fast{Duration::hours(24), 24, config};
  AdaptiveSnipRh ref{Duration::hours(24), 24, config};
  ASSERT_TRUE(fast.restore(inside));
  ASSERT_TRUE(ref.restore(inside));
  EXPECT_EQ(skip_against_twin(fast, ref,
                              context(at_s(2 * 86400.0 + 7 * 3600 + 10)),
                              kUnbounded),
            4);

  // Before a planned slot, with a cycle over 1 s, the run stops one cycle
  // short of the plan's next start (8 h): the last skipped wakeup is at
  // 8 h − 2 s, not 8 h − 1 µs as the slot end alone would allow.
  const std::string after = with_plan(learned, {8});
  AdaptiveSnipRh fast2{Duration::hours(24), 24, config};
  AdaptiveSnipRh ref2{Duration::hours(24), 24, config};
  ASSERT_TRUE(fast2.restore(after));
  ASSERT_TRUE(ref2.restore(after));
  EXPECT_EQ(skip_against_twin(fast2, ref2,
                              context(at_s(2 * 86400.0 + 8 * 3600 - 21)),
                              kUnbounded),
            9);
}

TEST(SkipMissedProbes, AdaptiveExploitOutsideTheMaskSkipsNothing) {
  AdaptiveSnipRh s{Duration::hours(24), 24, adaptive_config(0.0)};
  learn_rush_seven_and_seventeen(s);
  const SensorContext ctx = context(at_s(2 * 86400.0 + 3 * 3600), kTon);
  EXPECT_EQ(
      skip_run(s, ctx, probing(Duration::seconds(2)), kTon, kUnbounded),
      0);
}

// --- Adaptive SNIP-RH: lone tracker probes ----------------------------------

/// A time on day 2, the first exploit day after
/// learn_rush_seven_and_seventeen(); the tracker is overdue from then on.
TimePoint day2(double hours) { return at_s(2 * 86400.0 + hours * 3600); }

constexpr Duration kTrackerCycle = Duration::seconds(200);  // 20 ms / 1e-4

TEST(SkipMissedProbes, TrackerRunCrossesSlotsToOneCycleBeforeTheRushSlot) {
  // Slots 3 to 6 lie outside the mask {7, 17}, and the tracker's path
  // never reads the slot. From 7 h − 14200 s the 70th skipped tracker
  // probe is at 7 h − 200 s, the last wakeup whose SNIP-RH sleep to the
  // rush slot is no shorter than the tracker's cycle; 1 µs later only 69
  // fit.
  for (const Duration late : {Duration::zero(), kMicro}) {
    AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
    AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
    learn_rush_seven_and_seventeen(fast);
    learn_rush_seven_and_seventeen(ref);
    ASSERT_EQ(fast.tracker_cycle(), kTrackerCycle);
    const SensorContext ctx =
        context(day2(7) - Duration::seconds(14200) + late);
    EXPECT_EQ(skip_against_twin(fast, ref, ctx, 100),
              late.is_zero() ? 70 : 69);
    // The effort went to slots 3 to 6, one sample at a time.
    fast.on_epoch_start(3);
    ref.on_epoch_start(3);
    EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  }
}

TEST(SkipMissedProbes, TrackerRunStopsOneCycleShortOfTheNextRushSlot) {
  // Slot 6 ends where rush slot 7 starts. The slot end alone would allow
  // 17 probes from 7 h − 3450 s; at the 17th, 50 s before the rush slot,
  // SNIP-RH's shorter sleep sets the delay, so the run stops at 16.
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(fast);
  learn_rush_seven_and_seventeen(ref);
  const SensorContext ctx = context(day2(7) - Duration::seconds(3450));
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 16);
  const SchedulerDecision next =
      wakeup_after_run(ref, ctx, kTrackerCycle, 16);
  EXPECT_TRUE(next.probe);
  EXPECT_EQ(next.next_wakeup, Duration::seconds(50));
}

TEST(SkipMissedProbes, TrackerRunStopsWhereTheBudgetRunsOut) {
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(fast);
  learn_rush_seven_and_seventeen(ref);
  // t0 is the third wakeup the budget pays for; wakeups 4..6 still fit.
  const SensorContext ctx = context(day2(3) + Duration::seconds(10), kTon * 2,
                                    kTon * 6);
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 3);
  EXPECT_FALSE(wakeup_after_run(ref, ctx, kTrackerCycle, 3).probe);
}

TEST(SkipMissedProbes, TrackerRunUnderAnAllZeroMask) {
  // A restored all-zero mask has no next rush slot: SNIP-RH sleeps one
  // epoch at every wakeup, so no rush start bounds the run and max_k
  // does, across slots 6 to 11. Under the mask {7, 17} the same instant
  // runs only to one cycle before the rush slot.
  AdaptiveSnipRh learned{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(learned);
  std::vector<std::string> tokens = tokens_of(learned);
  // Magic, phase, slot count, six per-slot arrays, effort mode, epochs;
  // then SNIP-RH's magic and slot count precede its mask bits.
  const std::size_t rh_bits = 3 + 6 * 24 + 2 + 2;
  ASSERT_EQ(tokens[rh_bits - 2], "snip-rh-v1");
  for (std::size_t slot = 0; slot < 24; ++slot) {
    tokens[rh_bits + slot] = bit(false);
  }
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
  ASSERT_TRUE(fast.restore(joined(tokens)));
  ASSERT_TRUE(ref.restore(joined(tokens)));
  ASSERT_EQ(fast.current_mask().rush_slot_count(), 0U);
  const SensorContext ctx =
      context(day2(7) - Duration::seconds(3400) - kMicro);
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, 100), 100);

  AdaptiveSnipRh masked_fast{Duration::hours(24), 24, adaptive_config(1e-4)};
  AdaptiveSnipRh masked_ref{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(masked_fast);
  learn_rush_seven_and_seventeen(masked_ref);
  EXPECT_EQ(skip_against_twin(masked_fast, masked_ref, ctx, 100), 16);
}

TEST(SkipMissedProbes, TrackerRunNeedsTheTrackersOwnProbeOutsideTheMask) {
  // Inside the mask the tracker's probe returns SNIP-RH's shorter cycle;
  // a verdict at the tracker's cycle there (a decorator's, say) is not
  // vouched for, though the tracker is due one cycle later.
  AdaptiveSnipRh in_mask{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(in_mask);
  const SchedulerDecision rush = in_mask.on_wakeup(context(day2(7.5)));
  ASSERT_TRUE(rush.probe);
  EXPECT_LT(rush.next_wakeup, kTrackerCycle);
  const SchedulerDecision tracker{.probe = true, .next_wakeup = kTrackerCycle};
  EXPECT_EQ(skip_run(in_mask, context(day2(7.5), kTon), tracker, kTon,
                     kUnbounded),
            0);
  // Outside the mask, but with the tracker not due one cycle later: no
  // run.
  AdaptiveSnipRh out{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(out);
  ASSERT_EQ(out.on_wakeup(context(day2(3))).next_wakeup, kTrackerCycle);
  EXPECT_EQ(skip_run(out, context(day2(3) + kMicro, kTon), tracker, kTon,
                     kUnbounded),
            0);
  // The same verdict in the learning phase: the learning duty's cycle is
  // not the tracker's, so nothing is skipped.
  AdaptiveSnipRh learning{Duration::hours(24), 24, adaptive_config(1e-4)};
  EXPECT_EQ(skip_run(learning, context(at_s(100), kTon), tracker, kTon,
                     kUnbounded),
            0);
}

// --- Adaptive SNIP-RH: the budget-spent poll --------------------------------

/// A context whose budget cannot afford another Ton.
SensorContext spent(TimePoint now) {
  return context(now, kTon * 10, kTon * 10);
}

constexpr Duration kPoll = Duration::seconds(1);

TEST(SkipMissedProbes, PollRunEndsOneMicrosecondBeforeTheSlotBoundary) {
  // From 4 h − 10 s − 1 µs the tenth skipped poll is at 4 h − 1 µs, the
  // last instant of slot 3.
  for (const Duration late : {Duration::zero(), kMicro}) {
    AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
    AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
    learn_rush_seven_and_seventeen(fast);
    learn_rush_seven_and_seventeen(ref);
    const SensorContext ctx =
        spent(day2(4) - Duration::seconds(10) - kMicro + late);
    EXPECT_EQ(fast.on_wakeup(ctx).next_wakeup, kPoll);
    EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded, false),
              late.is_zero() ? 10 : 9);
  }
}

TEST(SkipMissedProbes, PollRunStopsOneDelayBeforeTheEpochEnds) {
  // In the epoch's last second SNIP-RH's sleep to the boundary is held at
  // its 1 s floor, the poll period: the wakeup 0.25 s before the boundary
  // sleeps 1 s. The run stops one delay before the boundary.
  const TimePoint epoch_end = at_s(3 * 86400.0);
  const SensorContext ctx = spent(epoch_end - Duration::milliseconds(20250));
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(1e-4)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(fast);
  learn_rush_seven_and_seventeen(ref);
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded, false), 19);
  const SchedulerDecision last =
      ref.on_wakeup(spent(epoch_end - Duration::milliseconds(250)));
  EXPECT_FALSE(last.probe);
  EXPECT_EQ(last.next_wakeup, kPoll);
}

TEST(SkipMissedProbes, PollInTheEpochsLastSecondSkipsNothing) {
  AdaptiveSnipRh s{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(s);
  const SensorContext ctx =
      spent(at_s(3 * 86400.0) - Duration::milliseconds(750));
  const SchedulerDecision d = s.on_wakeup(ctx);
  ASSERT_FALSE(d.probe);
  EXPECT_EQ(skip_run(s, ctx, d, Duration::zero(), kUnbounded), 0);
}

TEST(SkipMissedProbes, PollRunNeedsAnExploitPhaseWithAnOverdueTracker) {
  const SchedulerDecision poll{.probe = false, .next_wakeup = kPoll};
  const SensorContext ctx = spent(day2(3));
  // Learning phase: the spent learning SNIP-AT re-checks every 10 min;
  // even a 1 s poll verdict is not vouched for.
  AdaptiveSnipRh learning{Duration::hours(24), 24, adaptive_config(1e-4)};
  EXPECT_EQ(learning.on_wakeup(ctx).next_wakeup, Duration::minutes(10));
  EXPECT_EQ(skip_run(learning, ctx, poll, Duration::zero(), kUnbounded), 0);
  // No tracker: SNIP-RH sleeps to the epoch end, and no poll is vouched
  // for either.
  AdaptiveSnipRh untracked{Duration::hours(24), 24, adaptive_config(0.0)};
  learn_rush_seven_and_seventeen(untracked);
  EXPECT_EQ(untracked.on_wakeup(ctx).next_wakeup, at_s(3 * 86400.0) - ctx.now);
  EXPECT_EQ(skip_run(untracked, ctx, poll, Duration::zero(), kUnbounded), 0);
  // A tracker due 5.5 s from now sets the sleep itself; a 1 s poll
  // verdict is not vouched for before it falls due.
  AdaptiveSnipRh learned{Duration::hours(24), 24, adaptive_config(1e-4)};
  learn_rush_seven_and_seventeen(learned);
  std::vector<std::string> tokens = tokens_of(learned);
  tokens[track_due_token(tokens)] =
      due_us(ctx.now + Duration::milliseconds(5500));
  AdaptiveSnipRh pending{Duration::hours(24), 24, adaptive_config(1e-4)};
  ASSERT_TRUE(pending.restore(joined(tokens)));
  EXPECT_EQ(pending.on_wakeup(ctx).next_wakeup, Duration::milliseconds(5500));
  EXPECT_EQ(skip_run(pending, ctx, poll, Duration::zero(), kUnbounded), 0);
  // An affordable budget: no poll verdict to repeat.
  EXPECT_EQ(skip_run(learned, context(day2(3)), poll, Duration::zero(),
                     kUnbounded),
            0);
  // The overdue tracker with the budget spent: the run reaches the slot
  // end.
  EXPECT_EQ(skip_run(learned, ctx, poll, Duration::zero(), kUnbounded), 3599);
}

TEST(SkipMissedProbes, PollRunWaitsForAPendingExplorationProbe) {
  AdaptiveSnipRhConfig config = adaptive_config(1e-4);
  config.exploration.kind = ExplorationPolicyKind::kEpsilonFloor;
  config.exploration.explore_duty = 0.002;
  AdaptiveSnipRh learned{Duration::hours(24), 24, config};
  learn_rush_seven_and_seventeen(learned);
  const SensorContext ctx = spent(day2(3) + Duration::seconds(10));
  const TimePoint soon = ctx.now + Duration::milliseconds(5500);
  // Inside a planned slot, with the floor due 5.5 s from now, the fifth
  // poll would sleep only 0.5 s: no run.
  AdaptiveSnipRh pending{Duration::hours(24), 24, config};
  ASSERT_TRUE(pending.restore(with_plan(learned, {3}, soon)));
  const SchedulerDecision d = pending.on_wakeup(ctx);
  EXPECT_EQ(d.next_wakeup, kPoll);
  EXPECT_EQ(skip_run(pending, ctx, d, Duration::zero(), kUnbounded), 0);
  EXPECT_EQ(pending.on_wakeup(spent(ctx.now + kPoll * 5)).next_wakeup,
            Duration::milliseconds(500));
  // An overdue floor in the slot, or a pending one outside the planned
  // slots, leaves the poll period alone: runs to the slot end.
  for (const std::string& blob :
       {with_plan(learned, {3}), with_plan(learned, {4}, soon)}) {
    AdaptiveSnipRh fast{Duration::hours(24), 24, config};
    AdaptiveSnipRh ref{Duration::hours(24), 24, config};
    ASSERT_TRUE(fast.restore(blob));
    ASSERT_TRUE(ref.restore(blob));
    EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded, false), 3589);
  }
}

// --- Lockstep replay --------------------------------------------------------

struct Replay {
  std::int64_t epochs{8};
  Duration budget_limit{Duration::max()};
  double sensing_rate_bps{0.05};
};

struct Skipped {
  std::int64_t probes{0};
  std::int64_t polls{0};
};

/// Whole epochs of a node whose probes all miss, run through both twins:
/// `fast` skips every run of probes or idle polls its hook vouches for
/// (bounded by the next epoch boundary, as the node's epoch event bounds
/// it), `ref` makes every wakeup. Each epoch's detections favour slots 7,
/// 8, 17 and 18, so the adaptive learner adopts and refreshes masks.
/// Returns the wakeups skipped.
Skipped replay(Scheduler& fast, Scheduler& ref, const Replay& r) {
  const Duration epoch = Duration::hours(24);
  TimePoint t = TimePoint::zero();
  TimePoint boundary = TimePoint::zero() + epoch;
  const TimePoint horizon = TimePoint::zero() + epoch * r.epochs;
  std::int64_t index = 0;
  Duration used = Duration::zero();
  Skipped skipped;
  const auto at = [&](TimePoint now) {
    SensorContext ctx = context(now, used, r.budget_limit,
                                r.sensing_rate_bps * now.to_seconds());
    ctx.epoch_index = index;
    return ctx;
  };
  while (true) {
    while (boundary <= t) {
      for (const double hour : {7.25, 8.5, 17.75, 18.1, 7.9, 17.2}) {
        const TimePoint when =
            boundary - epoch + Duration::seconds(hour * 3600);
        fast.on_probe_detected(when);
        ref.on_probe_detected(when);
      }
      ++index;
      used = Duration::zero();
      fast.on_epoch_start(index);
      ref.on_epoch_start(index);
      if (fast.checkpoint() != ref.checkpoint()) {
        ADD_FAILURE() << "states differ at epoch " << index;
        return skipped;
      }
      boundary += epoch;
    }
    if (t >= horizon) break;
    const SchedulerDecision df = fast.on_wakeup(at(t));
    const SchedulerDecision dr = ref.on_wakeup(at(t));
    if (df.probe != dr.probe || df.next_wakeup != dr.next_wakeup) {
      ADD_FAILURE() << "verdicts differ at " << t;
      return skipped;
    }
    const Duration charge = df.probe ? kTon : Duration::zero();
    used += charge;
    // The node stretches a probing delay shorter than Ton and then offers
    // no run.
    const Duration delay =
        df.probe ? std::max(df.next_wakeup, kTon) : df.next_wakeup;
    if (delay == df.next_wakeup) {
      const std::int64_t max_k =
          node::wakeups_through(t, delay, boundary - kMicro);
      const std::int64_t k =
          max_k > 0 ? skip_run(fast, at(t), df, charge, max_k) : 0;
      EXPECT_GE(k, 0);
      EXPECT_LE(k, max_k);
      for (std::int64_t j = 1; j <= k; ++j) {
        const SchedulerDecision d = ref.on_wakeup(at(t + delay * j));
        if (d.probe != df.probe || d.next_wakeup != delay) {
          ADD_FAILURE() << "skipped wakeup " << j << " after " << t
                        << " would not repeat";
          return skipped;
        }
        used += charge;
      }
      t += delay * k;
      (df.probe ? skipped.probes : skipped.polls) += k;
    }
    t += delay;
  }
  EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  return skipped;
}

TEST(SkipMissedProbes, LockstepReplayFixedPlans) {
  // Their idle verdicts (budget spent, outside the mask or an active
  // slot) are single long sleeps: only probing runs are vouched for.
  const auto expect_probe_runs_only = [](Skipped s) {
    EXPECT_GT(s.probes, 0);
    EXPECT_EQ(s.polls, 0);
  };
  for (const Duration limit : {Duration::max(), Duration::seconds(3)}) {
    Replay r;
    r.budget_limit = limit;
    SnipAt at_fast{0.004, kTon};
    SnipAt at_ref{0.004, kTon};
    expect_probe_runs_only(replay(at_fast, at_ref, r));
    std::vector<double> duties(24, 0.0);
    for (std::size_t s = 0; s < 24; ++s) duties[s] = 0.001 * (s % 5);
    SnipOpt opt_fast{duties, Duration::hours(24), kTon};
    SnipOpt opt_ref{duties, Duration::hours(24), kTon};
    expect_probe_runs_only(replay(opt_fast, opt_ref, r));
    SnipRhConfig config;
    config.ton = kTon;
    const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
    SnipRh rh_fast{mask, config};
    SnipRh rh_ref{mask, config};
    expect_probe_runs_only(replay(rh_fast, rh_ref, r));
  }
}

TEST(SkipMissedProbes, LockstepReplayAdaptiveEveryExplorationPolicy) {
  for (const ExplorationPolicyKind kind :
       {ExplorationPolicyKind::kNone, ExplorationPolicyKind::kEpsilonFloor,
        ExplorationPolicyKind::kUcb, ExplorationPolicyKind::kOptimistic}) {
    for (const Duration limit : {Duration::max(), Duration::seconds(20)}) {
      AdaptiveSnipRhConfig config = adaptive_config(1e-4);
      config.exploration.kind = kind;
      config.exploration.epsilon = 0.3;
      // A floor duty whose cycle (10 s) exceeds SNIP-RH's, so exploration
      // slots and the rush slots beside them both bound runs.
      config.exploration.explore_duty = 0.002;
      AdaptiveSnipRh fast{Duration::hours(24), 24, config};
      AdaptiveSnipRh ref{Duration::hours(24), 24, config};
      Replay r;
      r.epochs = 12;
      r.budget_limit = limit;
      const Skipped s = replay(fast, ref, r);
      EXPECT_GT(s.probes, 0) << exploration_policy_kind_id(kind);
      // Only a spent budget makes the exploit phase poll.
      EXPECT_EQ(s.polls > 0, limit != Duration::max())
          << exploration_policy_kind_id(kind);
    }
  }
}

}  // namespace
}  // namespace snipr::core
