#include "snipr/core/rush_hour_learner.hpp"

#include <gtest/gtest.h>

namespace snipr::core {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_h(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

RushHourLearner make_learner(std::size_t rush_slots = 4) {
  return RushHourLearner{Duration::hours(24), 24, rush_slots};
}

void feed_epoch(RushHourLearner& learner, double day,
                const std::vector<std::pair<double, int>>& hour_counts) {
  for (const auto& [hour, count] : hour_counts) {
    for (int i = 0; i < count; ++i) {
      learner.record_probe(at_h(day * 24.0 + hour));
    }
  }
  learner.finish_epoch();
}

TEST(RushHourLearner, RecoversGroundTruthMask) {
  RushHourLearner learner = make_learner();
  for (int day = 0; day < 3; ++day) {
    feed_epoch(learner, day,
               {{7.5, 12}, {8.5, 12}, {17.5, 12}, {18.5, 12}, {3.5, 2},
                {12.5, 2}});
  }
  EXPECT_EQ(learner.epochs_observed(), 3U);
  const RushHourMask mask = learner.mask();
  EXPECT_TRUE(mask.is_rush_slot(7));
  EXPECT_TRUE(mask.is_rush_slot(8));
  EXPECT_TRUE(mask.is_rush_slot(17));
  EXPECT_TRUE(mask.is_rush_slot(18));
  EXPECT_EQ(mask.rush_slot_count(), 4U);
}

TEST(RushHourLearner, EffortModeMaskInvariantUnderUniformEffortScaling) {
  // The score is a probes-per-second rate, damped by the 2 s effort
  // prior: multiplying every recorded effort by the same constant that
  // keeps the efforts large against the prior rescales all rates alike,
  // so the ranking — and the mask — cannot move.
  const double scales[] = {1.0, 10.0, 1000.0};
  std::vector<RushHourMask> masks;
  std::vector<std::vector<contact::SlotIndex>> orders;
  for (const double k : scales) {
    RushHourLearner learner = make_learner();
    for (int day = 0; day < 3; ++day) {
      // Non-uniform effort across slots (a mask in force): rates, not raw
      // counts, decide — slot 12 gets many probes only because it gets
      // far more effort.
      learner.record_effort(at_h(day * 24.0 + 7.5), Duration::seconds(4.0 * k));
      learner.record_probe(at_h(day * 24.0 + 7.5));
      learner.record_probe(at_h(day * 24.0 + 7.5));
      learner.record_effort(at_h(day * 24.0 + 12.5),
                            Duration::seconds(40.0 * k));
      for (int i = 0; i < 8; ++i) {
        learner.record_probe(at_h(day * 24.0 + 12.5));
      }
      learner.record_effort(at_h(day * 24.0 + 17.5),
                            Duration::seconds(2.0 * k));
      learner.record_probe(at_h(day * 24.0 + 17.5));
      learner.record_effort(at_h(day * 24.0 + 3.5), Duration::seconds(8.0 * k));
      learner.record_probe(at_h(day * 24.0 + 3.5));
      learner.finish_epoch();
    }
    masks.push_back(learner.mask());
    orders.push_back(learner.slots_by_score());
  }
  for (std::size_t i = 1; i < masks.size(); ++i) {
    EXPECT_EQ(orders[i], orders[0]) << "scale " << scales[i];
    for (std::size_t s = 0; s < 24; ++s) {
      EXPECT_EQ(masks[i].is_rush_slot(s), masks[0].is_rush_slot(s))
          << "scale " << scales[i] << " slot " << s;
    }
  }
  // And the ranking is the rate ranking: 7 (2 probes in 4 s) and 17 (1 in
  // 2 s) share a raw 0.5/s, which the prior splits in favour of the slot
  // with more effort; both beat 12 (0.2/s) and 3 (0.125/s).
  EXPECT_EQ(orders[0][0], 7U);
  EXPECT_EQ(orders[0][1], 17U);
  EXPECT_EQ(orders[0][2], 12U);
}

TEST(RushHourLearner, EffortModeWithPriorInvariantUnderUniformEffort) {
  // With the default damping prior, scale invariance still holds whenever
  // effort is spread uniformly across the probed slots (the pure SNIP-AT
  // learning phase): every score is then the same monotone transform of
  // its count, so the ordering equals the count ordering at any scale.
  std::vector<std::vector<contact::SlotIndex>> orders;
  for (const double k : {1.0, 50.0}) {
    RushHourLearner learner = make_learner();
    for (int day = 0; day < 2; ++day) {
      for (int hour = 0; hour < 24; ++hour) {
        learner.record_effort(at_h(day * 24.0 + hour + 0.5),
                              Duration::seconds(10.0 * k));
      }
      feed_epoch(learner, day,
                 {{7.5, 12}, {8.5, 12}, {17.5, 12}, {18.5, 12}, {3.5, 2}});
    }
    orders.push_back(learner.slots_by_score());
  }
  EXPECT_EQ(orders[0], orders[1]);
  RushHourLearner count_mode = make_learner();
  for (int day = 0; day < 2; ++day) {
    feed_epoch(count_mode, day,
               {{7.5, 12}, {8.5, 12}, {17.5, 12}, {18.5, 12}, {3.5, 2}});
  }
  EXPECT_EQ(orders[0], count_mode.slots_by_score());
}

TEST(RushHourLearner, OrderOnlyMattersNotMagnitude) {
  // The paper: "a sensor node only needs to learn the order of these
  // time-slots' contact capacity". Even two probes vs one suffice.
  RushHourLearner learner = make_learner(1);
  feed_epoch(learner, 0, {{9.5, 2}, {14.5, 1}});
  EXPECT_TRUE(learner.mask().is_rush_slot(9));
  EXPECT_EQ(learner.mask().rush_slot_count(), 1U);
}

TEST(RushHourLearner, ScoresSmoothAcrossEpochs) {
  RushHourLearner learner = make_learner();
  feed_epoch(learner, 0, {{7.5, 10}});
  EXPECT_DOUBLE_EQ(learner.scores()[7], 10.0);  // first epoch initialises
  feed_epoch(learner, 1, {{7.5, 20}});
  EXPECT_DOUBLE_EQ(learner.scores()[7], 13.0);  // 10 + 0.3·(20−10)
}

TEST(RushHourLearner, TracksShiftedPattern) {
  // Rush hours move from {7,8} to {9,10}; with weight 0.3 the ranking
  // flips after a few shifted epochs.
  RushHourLearner learner = make_learner(2);
  for (int day = 0; day < 3; ++day) {
    feed_epoch(learner, day, {{7.5, 12}, {8.5, 12}, {3.5, 2}});
  }
  EXPECT_TRUE(learner.mask().is_rush_slot(7));
  for (int day = 3; day < 8; ++day) {
    feed_epoch(learner, day, {{9.5, 12}, {10.5, 12}, {3.5, 2}});
  }
  const RushHourMask mask = learner.mask();
  EXPECT_TRUE(mask.is_rush_slot(9));
  EXPECT_TRUE(mask.is_rush_slot(10));
  EXPECT_FALSE(mask.is_rush_slot(7));
}

TEST(RushHourLearner, EffortModeSeedsSlotOnItsFirstRealSample) {
  // Regression: finish_epoch used to flip one global initialised flag, so
  // a slot skipped in effort mode (zero effort = no information) was
  // treated as initialised-at-0.0 and its *first real* sample in a later
  // epoch was EWMA-damped against that bogus prior. Initialisation must
  // be per slot: the first sample seeds the score outright.
  RushHourLearner learner = make_learner(1);
  // Epoch 0: effort (and probes) only in slot 7 -> rate 4/(10+2) = 1/3.
  learner.record_effort(at_h(7.5), Duration::seconds(10));
  for (int i = 0; i < 4; ++i) learner.record_probe(at_h(7.5));
  learner.finish_epoch();
  EXPECT_DOUBLE_EQ(learner.scores()[7], 4.0 / 12.0);
  // Epoch 1: slot 12 observed for the first time -> rate 6/(10+2) = 0.5.
  learner.record_effort(at_h(12.5), Duration::seconds(10));
  for (int i = 0; i < 6; ++i) learner.record_probe(at_h(12.5));
  learner.finish_epoch();
  // Seeded at the sample, not 0 + 0.3*(0.5-0) = 0.15.
  EXPECT_DOUBLE_EQ(learner.scores()[12], 0.5);
  // Consequence of the bias: the busier slot 12 must outrank slot 7. The
  // damped 0.15 would have kept the stale slot 7 in the mask.
  EXPECT_TRUE(learner.mask().is_rush_slot(12));
  EXPECT_FALSE(learner.mask().is_rush_slot(7));
}

TEST(RushHourLearner, SlotsByScoreStableTies) {
  RushHourLearner learner = make_learner();
  feed_epoch(learner, 0, {{5.5, 3}, {11.5, 3}});
  const auto order = learner.slots_by_score();
  EXPECT_EQ(order[0], 5U);   // tie broken by index
  EXPECT_EQ(order[1], 11U);
}

TEST(RushHourLearner, DetectionAtExactEpochEndBelongsToTheNextEpochsSlotZero) {
  // Slot attribution at the boundary: t == Tepoch is the first instant of
  // the next epoch (slot 0), t == Tepoch − 1 µs the last instant of slot
  // N−1. An off-by-one here shifts every midnight detection by a whole
  // slot.
  RushHourLearner learner = make_learner();
  learner.record_probe(at_h(24.0));
  learner.record_probe(at_h(24.0) - Duration::microseconds(1));
  learner.finish_epoch();
  EXPECT_DOUBLE_EQ(learner.scores()[0], 1.0);
  EXPECT_DOUBLE_EQ(learner.scores()[23], 1.0);
  for (std::size_t s = 1; s < 23; ++s) {
    EXPECT_DOUBLE_EQ(learner.scores()[s], 0.0) << "slot " << s;
  }
}

TEST(RushHourLearner, SlotBoundaryWithinAnEpochSplitsTheSameWay) {
  RushHourLearner learner = make_learner();
  learner.record_probe(at_h(7.0));                             // slot 7 opens
  learner.record_probe(at_h(7.0) - Duration::microseconds(1));  // slot 6 ends
  learner.finish_epoch();
  EXPECT_DOUBLE_EQ(learner.scores()[6], 1.0);
  EXPECT_DOUBLE_EQ(learner.scores()[7], 1.0);
}

TEST(RushHourLearner, ZeroEffortSlotNeverOutranksASampledSlot) {
  // Effort mode: a slot whose score is 0.0 because it was probed and
  // produced nothing is evidence; a slot at 0.0 because the radio was
  // never on there is ignorance. At equal scores the sampled slot must
  // rank first — otherwise a freshly adopted mask could evict a measured
  // slot for one nobody ever looked at.
  RushHourLearner learner = make_learner(1);
  learner.record_effort(at_h(9.5), Duration::seconds(10));  // no detections
  learner.finish_epoch();
  EXPECT_DOUBLE_EQ(learner.scores()[9], 0.0);
  const auto order = learner.slots_by_score();
  EXPECT_EQ(order[0], 9U);
  EXPECT_TRUE(learner.mask().is_rush_slot(9));
  // The same rule through the static ranking used for optimistic views.
  std::vector<double> scores(24, 0.0);
  std::vector<char> seeded(24, 0);
  seeded[9] = 1;
  const auto ranked = RushHourLearner::rank_slots(scores, seeded);
  EXPECT_EQ(ranked[0], 9U);
}

TEST(RushHourLearner, EpochsWrapIntoSameSlots) {
  RushHourLearner learner = make_learner(1);
  learner.record_probe(at_h(7.5));
  learner.record_probe(at_h(24.0 + 7.5));
  learner.record_probe(at_h(48.0 + 7.5));
  learner.finish_epoch();
  EXPECT_DOUBLE_EQ(learner.scores()[7], 3.0);
}

TEST(RushHourLearner, Validation) {
  EXPECT_THROW((RushHourLearner{Duration::zero(), 24, 4}),
               std::invalid_argument);
  EXPECT_THROW((RushHourLearner{Duration::hours(24), 0, 1}),
               std::invalid_argument);
  EXPECT_THROW((RushHourLearner{Duration::hours(24), 24, 0}),
               std::invalid_argument);
  EXPECT_THROW((RushHourLearner{Duration::hours(24), 24, 25}),
               std::invalid_argument);
  EXPECT_THROW((RushHourLearner{Duration::hours(24), 7, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace snipr::core
