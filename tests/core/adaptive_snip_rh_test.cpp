#include "snipr/core/adaptive_snip_rh.hpp"

#include <gtest/gtest.h>

namespace snipr::core {
namespace {

using node::ProbedContactObservation;
using node::SensorContext;
using sim::Duration;
using sim::TimePoint;

SensorContext make_ctx(double hours, double buffer = 1e6) {
  SensorContext ctx;
  ctx.now = TimePoint::zero() + Duration::seconds(hours * 3600.0);
  ctx.buffer_bytes = buffer;
  ctx.budget_used = Duration::zero();
  ctx.budget_limit = Duration::max();
  return ctx;
}

TimePoint detect_at(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

ProbedContactObservation probe_at(double hours) {
  ProbedContactObservation obs;
  obs.probe_time = TimePoint::zero() + Duration::seconds(hours * 3600.0);
  obs.observed_probed_len = Duration::seconds(1.0);
  obs.cycle_at_probe = Duration::seconds(2);
  obs.bytes_uploaded = 100.0;
  obs.saw_departure = true;
  return obs;
}

AdaptiveSnipRhConfig quick_config() {
  AdaptiveSnipRhConfig cfg;
  cfg.learning_epochs = 2;
  cfg.rush_slots = 2;
  cfg.tracking_duty = 0.0;  // keep most tests deterministic
  return cfg;
}

TEST(AdaptiveSnipRh, StartsInLearningModeProbingEverywhere) {
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  EXPECT_TRUE(sched.learning());
  // Learning phase = SNIP-AT: probes outside any rush hours too.
  const auto d = sched.on_wakeup(make_ctx(3.0));
  EXPECT_TRUE(d.probe);
  // Learning duty 0.001 -> 20 s cycle.
  EXPECT_EQ(d.next_wakeup, Duration::seconds(20));
}

TEST(AdaptiveSnipRh, AdoptsLearnedMaskAfterLearningEpochs) {
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 12; ++i) {
      sched.on_probe_detected(detect_at(day * 24 + 7.5));
      sched.on_probe_detected(detect_at(day * 24 + 17.5));
    }
    sched.on_probe_detected(detect_at(day * 24 + 3.5));
    sched.on_epoch_start(day + 1);
  }
  EXPECT_FALSE(sched.learning());
  EXPECT_TRUE(sched.current_mask().is_rush_slot(7));
  EXPECT_TRUE(sched.current_mask().is_rush_slot(17));
  EXPECT_FALSE(sched.current_mask().is_rush_slot(3));
  // Exploit phase behaves like SNIP-RH: no probing off-peak...
  EXPECT_FALSE(sched.on_wakeup(make_ctx(100 * 24 + 3.0)).probe);
  // ...probing inside learned rush hours.
  EXPECT_TRUE(sched.on_wakeup(make_ctx(100 * 24 + 7.5)).probe);
}

TEST(AdaptiveSnipRh, TracksSeasonalShift) {
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  // Learn {7, 17} first.
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 12; ++i) {
      sched.on_probe_detected(detect_at(day * 24 + 7.5));
      sched.on_probe_detected(detect_at(day * 24 + 17.5));
    }
    sched.on_epoch_start(day + 1);
  }
  ASSERT_TRUE(sched.current_mask().is_rush_slot(7));
  // The pattern shifts two hours later for a week.
  for (int day = 2; day < 9; ++day) {
    for (int i = 0; i < 12; ++i) {
      sched.on_probe_detected(detect_at(day * 24 + 9.5));
      sched.on_probe_detected(detect_at(day * 24 + 19.5));
    }
    sched.on_epoch_start(day + 1);
  }
  EXPECT_TRUE(sched.current_mask().is_rush_slot(9));
  EXPECT_TRUE(sched.current_mask().is_rush_slot(19));
  EXPECT_FALSE(sched.current_mask().is_rush_slot(7));
}

TEST(AdaptiveSnipRh, BackgroundTrackerProbesOffPeak) {
  AdaptiveSnipRhConfig cfg = quick_config();
  cfg.tracking_duty = 0.0001;
  AdaptiveSnipRh sched{Duration::hours(24), 24, cfg};
  for (int day = 0; day < 2; ++day) {
    sched.on_probe_detected(detect_at(day * 24 + 7.5));
    sched.on_epoch_start(day + 1);
  }
  ASSERT_FALSE(sched.learning());
  // First off-peak wakeup after the switch: the tracker is due.
  const auto d = sched.on_wakeup(make_ctx(10 * 24 + 3.0));
  EXPECT_TRUE(d.probe);
  // Immediately after, the tracker is not due for ~Ton/0.0001 = 200 s.
  const auto d2 = sched.on_wakeup(make_ctx(10 * 24 + 3.0 + 1.0 / 3600.0));
  EXPECT_FALSE(d2.probe);
}

TEST(AdaptiveSnipRh, NameReflectsVariant) {
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  EXPECT_EQ(sched.name(), "SNIP-RH/adaptive");
  AdaptiveSnipRhConfig cfg = quick_config();
  cfg.exploration.kind = ExplorationPolicyKind::kEpsilonFloor;
  AdaptiveSnipRh eps{Duration::hours(24), 24, cfg};
  EXPECT_EQ(eps.name(), "SNIP-RH/adaptive+eps-floor");
}

TEST(AdaptiveSnipRh, TrackingDutyZeroIsSafeAndFreezesTheMask) {
  // Regression: duty 0 must disable the tracker outright — not divide by
  // zero inside SNIP-AT's cycle = Ton/duty — and the node must simply
  // sleep through off-peak hours.
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  for (int day = 0; day < 2; ++day) {
    sched.on_probe_detected(detect_at(day * 24 + 7.5));
    sched.on_probe_detected(detect_at(day * 24 + 17.5));
    sched.on_epoch_start(day + 1);
  }
  ASSERT_FALSE(sched.learning());
  for (int i = 0; i < 50; ++i) {
    const auto d = sched.on_wakeup(make_ctx(10 * 24 + 3.0 + i * 0.01));
    EXPECT_FALSE(d.probe);
    EXPECT_GT(d.next_wakeup, Duration::zero());
    EXPECT_LT(d.next_wakeup, Duration::hours(25));
  }
  // With no tracker and no exploration the censored mask cannot move:
  // out-of-mask slots produce no samples, so their scores stay zero and
  // the hysteresis never admits them.
  for (int day = 2; day < 8; ++day) {
    sched.on_epoch_start(day + 1);
  }
  EXPECT_TRUE(sched.current_mask().is_rush_slot(7));
  EXPECT_TRUE(sched.current_mask().is_rush_slot(17));
}

TEST(AdaptiveSnipRh, ScoreWeightIsThirtyPercent) {
  // A slot's first sample seeds its score; each later epoch's sample is
  // blended in with weight 0.3: 10 detections, then 20, score 13.
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 10 * (day + 1); ++i) {
      sched.on_probe_detected(detect_at(day * 24 + 7.5));
    }
    sched.on_epoch_start(day + 1);
  }
  EXPECT_DOUBLE_EQ(sched.learner().scores()[7], 13.0);
}

TEST(AdaptiveSnipRh, MaskRefreshAdmitsAnOutsiderOnlyPastThirtyPercent) {
  // The refresh's hysteresis margin is 30%: against incumbents scoring
  // 1000, an outsider scoring 1299 stays out and one scoring 1302 enters.
  // Slot 3 scores 0 until epoch 2 blends its count c in with the 0.3
  // weight, so c = 4330 scores 1299 and c = 4340 scores 1302.
  for (const int outsider : {4330, 4340}) {
    AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
    const auto run_epoch = [&](int day, int slot_three_probes) {
      for (int i = 0; i < 1000; ++i) {
        sched.on_probe_detected(detect_at(day * 24 + 7.5));
        sched.on_probe_detected(detect_at(day * 24 + 17.5));
      }
      for (int i = 0; i < slot_three_probes; ++i) {
        sched.on_probe_detected(detect_at(day * 24 + 3.5));
      }
      sched.on_epoch_start(day + 1);
    };
    run_epoch(0, 0);
    run_epoch(1, 0);
    ASSERT_FALSE(sched.learning());
    ASSERT_FALSE(sched.current_mask().is_rush_slot(3));
    run_epoch(2, outsider);
    const double score = sched.learner().scores()[3];
    ASSERT_NEAR(score, 0.3 * outsider, 1e-9);
    EXPECT_EQ(sched.current_mask().is_rush_slot(3), score > 1300.0)
        << "outsider score " << score;
  }
}

TEST(AdaptiveSnipRh, CompletionObservationsNeverReachTheLearner) {
  // The censoring contract: on_contact_probed carries transfer metadata
  // for SNIP-RH's Tcontact estimate; the learner's per-slot counts are
  // fed only via on_probe_detected at detection time. A completion-side
  // feed would double-count and attribute straddling transfers to the
  // wrong epoch.
  AdaptiveSnipRh sched{Duration::hours(24), 24, quick_config()};
  const auto before = sched.learner().scores();
  for (int i = 0; i < 20; ++i) {
    sched.on_contact_probed(probe_at(7.5));
  }
  EXPECT_EQ(sched.learner().scores(), before);
}

TEST(AdaptiveSnipRh, ExplorationFloorProbesPlannedCensoredSlot) {
  AdaptiveSnipRhConfig cfg = quick_config();
  cfg.exploration.kind = ExplorationPolicyKind::kEpsilonFloor;
  cfg.exploration.epsilon = 0.125;
  cfg.exploration.explore_duty = 0.002;
  AdaptiveSnipRh sched{Duration::hours(24), 24, cfg};
  // Nothing to plan yet.
  EXPECT_EQ(sched.exploration_mask().rush_slot_count(), 0U);
  for (int day = 0; day < 2; ++day) {
    sched.on_probe_detected(detect_at(day * 24 + 7.5));
    sched.on_probe_detected(detect_at(day * 24 + 17.5));
    sched.on_epoch_start(day + 1);
  }
  ASSERT_FALSE(sched.learning());
  const RushHourMask& plan = sched.exploration_mask();
  ASSERT_GT(plan.rush_slot_count(), 0U);
  EXPECT_FALSE(plan.is_rush_slot(7));
  EXPECT_FALSE(plan.is_rush_slot(17));
  // Inside a planned slot the duty floor probes even though SNIP-RH
  // would sleep there.
  std::size_t planned = 24;
  for (std::size_t s = 0; s < 24 && planned == 24; ++s) {
    if (plan.is_rush_slot(s)) planned = s;
  }
  ASSERT_LT(planned, 24U);
  const auto d =
      sched.on_wakeup(make_ctx(10 * 24 + static_cast<double>(planned) + 0.5));
  EXPECT_TRUE(d.probe);
}

TEST(AdaptiveSnipRh, Validation) {
  AdaptiveSnipRhConfig bad = quick_config();
  bad.learning_epochs = 0;
  EXPECT_THROW((AdaptiveSnipRh{Duration::hours(24), 24, bad}),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::core
