/// Unit tests of `Scheduler::skip_missed_probes` for the four core
/// schedulers. Every case runs two identically configured schedulers:
/// one skips a run of missed probes through the hook, its twin makes the
/// same wakeups one on_wakeup() call at a time, and the two must agree on
/// every verdict and end in the same state (checkpoint(), which carries
/// the adaptive learner's effort sums in hexfloat, so equal strings mean
/// bit-identical sums). The edge cases pin the exact run lengths: the
/// budget running out at the k-th skipped probe, runs ending 1 µs before
/// a slot boundary or the tracker's due time, and the cached SNIP-RH
/// cycle following every change of its estimate. A lockstep replay then
/// drives whole epochs of all-miss wakeups through both twins.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/core/snip_rh.hpp"

namespace snipr::core {
namespace {

using node::Scheduler;
using node::SchedulerDecision;
using node::SensorContext;
using sim::Duration;
using sim::TimePoint;

constexpr Duration kTon = Duration::milliseconds(20);
constexpr Duration kMicro = Duration::microseconds(1);

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

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

/// The wakeup at `ctx` on both twins (it must probe), its miss charged,
/// then up to `max_k` skipped by `fast` and made one by one by `ref`.
/// Returns k; fails the test when the twins disagree.
std::int64_t skip_against_twin(Scheduler& fast, Scheduler& ref,
                               SensorContext ctx, std::int64_t max_k) {
  const SchedulerDecision first = fast.on_wakeup(ctx);
  const SchedulerDecision twin = ref.on_wakeup(ctx);
  EXPECT_EQ(first.probe, twin.probe);
  EXPECT_EQ(first.next_wakeup, twin.next_wakeup);
  if (!first.probe) {
    ADD_FAILURE() << "the first wakeup must probe";
    return -1;
  }
  const Duration cycle = first.next_wakeup;
  ctx.budget_used += kTon;
  const std::int64_t k = fast.skip_missed_probes(ctx, cycle, kTon, max_k);
  EXPECT_GE(k, 0);
  EXPECT_LE(k, max_k);
  SensorContext step = ctx;
  for (std::int64_t j = 1; j <= k; ++j) {
    step.now = ctx.now + cycle * j;
    const SchedulerDecision d = ref.on_wakeup(step);
    if (!d.probe || d.next_wakeup != cycle) {
      ADD_FAILURE() << "skipped wakeup " << j << " would not repeat";
      return k;
    }
    step.budget_used += kTon;
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
  EXPECT_EQ(at.skip_missed_probes(context(at_s(0), kTon),
                                  at.cycle() + kMicro, kTon, kUnbounded),
            0);
  // The hook is only ever offered a run the budget allows; an exhausted
  // budget at ctx.now skips nothing.
  EXPECT_EQ(at.skip_missed_probes(context(at_s(0), kTon * 10, kTon * 10),
                                  at.cycle(), kTon, kUnbounded),
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
  // min_data_bytes = 1: an empty buffer would not probe.
  EXPECT_EQ(rh.skip_missed_probes(
                context(at_s(25300), kTon, Duration::max(), 0.5), cycle, kTon,
                kUnbounded),
            0);
  // Outside the rush slot nothing is skipped either.
  EXPECT_EQ(rh.skip_missed_probes(context(at_s(3600), kTon), cycle, kTon,
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
    EXPECT_EQ(rh.skip_missed_probes(context(at_s(25300), kTon),
                                    d.next_wakeup, kTon, 1),
              1);
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

TEST(SkipMissedProbes, AdaptiveLearningRunStaysInItsSlotWithExactEffort) {
  // Learning duty 0.001 -> 20 s cycle. From 3400 s − 1 µs the tenth
  // skipped wakeup is 3600 s − 1 µs, the last instant of slot 0.
  const SensorContext ctx = context(at_s(3600 - 200) - kMicro);
  AdaptiveSnipRh fast{Duration::hours(24), 24, adaptive_config(0.0)};
  AdaptiveSnipRh ref{Duration::hours(24), 24, adaptive_config(0.0)};
  EXPECT_EQ(skip_against_twin(fast, ref, ctx, kUnbounded), 10);
  // The effort sums (in the checkpoint) matched bit for bit above; the
  // learner's view of slot 0 holds the eleven wakeups' effort.
  fast.on_epoch_start(1);
  ref.on_epoch_start(1);
  EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  EXPECT_EQ(fast.learner().total_effort_s()[0],
            ref.learner().total_effort_s()[0]);
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

/// `s`'s checkpoint with the exploration plan made active over `slots`,
/// its floor due at time zero. The trailing tokens are the plan's
/// active flag, duty, slot count and bits, then the tracker's and the
/// floor's due times.
std::string with_plan(const AdaptiveSnipRh& s,
                      const std::vector<std::size_t>& slots) {
  std::vector<std::string> tokens;
  const std::string blob = s.checkpoint();
  std::size_t at = 0;
  while (at < blob.size()) {
    const std::size_t end = std::min(blob.find(' ', at), blob.size());
    if (end > at) tokens.push_back(blob.substr(at, end - at));
    at = end + 1;
  }
  const std::size_t bits = tokens.size() - 2 - 24;
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string_view token = tokens[i];
    if (i == bits - 3 || (i >= bits && i < bits + 24)) {
      const bool planned =
          i < bits || std::find(slots.begin(), slots.end(), i - bits) !=
                          slots.end();
      token = planned ? "1" : "0";
    } else if (i + 1 == tokens.size()) {
      token = "0";
    }
    out.append(token);
    out += ' ';
  }
  return out;
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
  ASSERT_TRUE(learned.exploration_plan().active);

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
  EXPECT_EQ(s.skip_missed_probes(ctx, Duration::seconds(2), kTon, kUnbounded),
            0);
}

// --- Lockstep replay --------------------------------------------------------

struct Replay {
  std::int64_t epochs{8};
  Duration budget_limit{Duration::max()};
  double sensing_rate_bps{0.05};
};

/// Whole epochs of a node whose probes all miss, run through both twins:
/// `fast` skips every run its hook vouches for (bounded by the next epoch
/// boundary, as the node's epoch event bounds it), `ref` makes every
/// wakeup. Each epoch's detections favour slots 7, 8, 17 and 18, so the
/// adaptive learner adopts and refreshes masks. Returns the probes
/// skipped.
std::int64_t replay(Scheduler& fast, Scheduler& ref, const Replay& r) {
  const Duration epoch = Duration::hours(24);
  TimePoint t = TimePoint::zero();
  TimePoint boundary = TimePoint::zero() + epoch;
  const TimePoint horizon = TimePoint::zero() + epoch * r.epochs;
  std::int64_t index = 0;
  Duration used = Duration::zero();
  std::int64_t skipped = 0;
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
    if (!df.probe) {
      t += df.next_wakeup;
      continue;
    }
    used += kTon;
    const Duration cycle = std::max(df.next_wakeup, kTon);
    if (df.next_wakeup >= kTon) {
      const std::int64_t max_k =
          node::wakeups_through(t, cycle, boundary - kMicro);
      const std::int64_t k =
          max_k > 0 ? fast.skip_missed_probes(at(t), cycle, kTon, max_k) : 0;
      EXPECT_GE(k, 0);
      EXPECT_LE(k, max_k);
      for (std::int64_t j = 1; j <= k; ++j) {
        const SchedulerDecision d = ref.on_wakeup(at(t + cycle * j));
        if (!d.probe || d.next_wakeup != cycle) {
          ADD_FAILURE() << "skipped wakeup " << j << " after " << t
                        << " would not repeat";
          return skipped;
        }
        used += kTon;
      }
      t += cycle * k;
      skipped += k;
    }
    t += cycle;
  }
  EXPECT_EQ(fast.checkpoint(), ref.checkpoint());
  return skipped;
}

TEST(SkipMissedProbes, LockstepReplayFixedPlans) {
  for (const Duration limit : {Duration::max(), Duration::seconds(3)}) {
    Replay r;
    r.budget_limit = limit;
    SnipAt at_fast{0.004, kTon};
    SnipAt at_ref{0.004, kTon};
    EXPECT_GT(replay(at_fast, at_ref, r), 0);
    std::vector<double> duties(24, 0.0);
    for (std::size_t s = 0; s < 24; ++s) duties[s] = 0.001 * (s % 5);
    SnipOpt opt_fast{duties, Duration::hours(24), kTon};
    SnipOpt opt_ref{duties, Duration::hours(24), kTon};
    EXPECT_GT(replay(opt_fast, opt_ref, r), 0);
    SnipRhConfig config;
    config.ton = kTon;
    const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
    SnipRh rh_fast{mask, config};
    SnipRh rh_ref{mask, config};
    EXPECT_GT(replay(rh_fast, rh_ref, r), 0);
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
      EXPECT_GT(replay(fast, ref, r), 0)
          << exploration_policy_kind_id(kind);
    }
  }
}

}  // namespace
}  // namespace snipr::core
