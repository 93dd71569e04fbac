#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "snipr/core/adaptive_snip_rh.hpp"

/// Mask-refresh determinism: the adopted/refreshed rush-hour mask — and
/// the exploration plan derived from it — must be a pure function of the
/// *multiset* of observations in an epoch, never of their arrival order.
/// Fleet JSON is golden-tested byte-for-byte, and a node's mask feeds its
/// ζ; an order-dependent tie-break anywhere in learner scoring, ranking,
/// hysteresis or exploration planning would surface as a seed-dependent
/// golden diff that no one can bisect. The observation streams below bake
/// in exact score ties (equal counts in two slots) and a hysteresis-
/// boundary contender, then replay every epoch in rotated and reversed
/// orders.

namespace snipr::core {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint detect_at(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

/// Detection hours (within the day) for one epoch of a drifting pattern:
/// ties between 7/17 and later between 9/19, plus a mid-strength slot 12
/// hovering near the hysteresis margin of the weakest incumbent.
std::vector<double> epoch_pattern(int day) {
  std::vector<double> hours;
  const bool shifted = day >= 2;
  const double a = shifted ? 9.5 : 7.5;
  const double b = shifted ? 19.5 : 17.5;
  for (int i = 0; i < 12; ++i) {
    hours.push_back(a);
    hours.push_back(b);
  }
  for (int i = 0; i < 11; ++i) hours.push_back(12.5);  // near-threshold
  hours.push_back(3.5);
  return hours;
}

std::vector<double> permuted(std::vector<double> hours, std::size_t variant) {
  if (variant == 0) return hours;
  if (variant == 1) {
    std::reverse(hours.begin(), hours.end());
    return hours;
  }
  const std::size_t k = (variant * 7) % hours.size();
  std::rotate(hours.begin(), hours.begin() + static_cast<std::ptrdiff_t>(k),
              hours.end());
  return hours;
}

std::string mask_bits(const RushHourMask& mask) {
  std::string bits;
  for (std::size_t s = 0; s < mask.slot_count(); ++s) {
    bits += mask.is_rush_slot(s) ? '1' : '0';
  }
  return bits;
}

AdaptiveSnipRhConfig config_for(ExplorationPolicyKind kind) {
  AdaptiveSnipRhConfig cfg;
  cfg.learning_epochs = 2;
  cfg.rush_slots = 3;
  cfg.tracking_duty = 0.0;
  cfg.exploration.kind = kind;
  cfg.exploration.epsilon = 0.125;
  cfg.exploration.explore_duty = 0.002;
  return cfg;
}

/// One run: feed `epochs` days of (possibly permuted) observations and
/// return the per-epoch trace of (mask bits, plan bits, exact scores).
struct Trace {
  std::vector<std::string> masks;
  std::vector<std::string> plans;
  std::vector<std::vector<double>> scores;
};

Trace run_variant(ExplorationPolicyKind kind, std::size_t variant,
                  int epochs) {
  AdaptiveSnipRh sched{Duration::hours(24), 24, config_for(kind)};
  Trace trace;
  for (int day = 0; day < epochs; ++day) {
    for (const double hour : permuted(epoch_pattern(day), variant)) {
      sched.on_probe_detected(detect_at(day * 24.0 + hour));
    }
    sched.on_epoch_start(day + 1);
    trace.masks.push_back(mask_bits(sched.current_mask()));
    trace.plans.push_back(mask_bits(sched.exploration_mask()));
    trace.scores.push_back(sched.learner().scores());
  }
  return trace;
}

TEST(MaskRefreshDeterminism, ObservationOrderNeverChangesMaskOrPlan) {
  constexpr int kEpochs = 7;
  for (const auto kind :
       {ExplorationPolicyKind::kNone, ExplorationPolicyKind::kEpsilonFloor,
        ExplorationPolicyKind::kUcb, ExplorationPolicyKind::kOptimistic}) {
    const Trace reference = run_variant(kind, 0, kEpochs);
    for (std::size_t variant = 1; variant < 6; ++variant) {
      const Trace got = run_variant(kind, variant, kEpochs);
      for (int day = 0; day < kEpochs; ++day) {
        EXPECT_EQ(got.masks[day], reference.masks[day])
            << "kind " << exploration_policy_kind_id(kind) << " variant "
            << variant << " day " << day;
        EXPECT_EQ(got.plans[day], reference.plans[day])
            << "kind " << exploration_policy_kind_id(kind) << " variant "
            << variant << " day " << day;
        // Scores must agree to the bit, not within a tolerance: the golden
        // corpus compares emitted bytes, not rounded values.
        EXPECT_EQ(got.scores[day], reference.scores[day])
            << "kind " << exploration_policy_kind_id(kind) << " variant "
            << variant << " day " << day;
      }
    }
  }
}

TEST(MaskRefreshDeterminism, EffortRecordingOrderIsImmaterialToo) {
  // Effort-normalised mode, with efforts interleaved between slots in
  // different global orders. Per-slot effort increments are identical
  // values, so any interleaving must reproduce the same sums, scores and
  // mask — this pins the accumulation scheme to per-slot buckets (a
  // global running sum would be order-sensitive).
  const auto run = [](std::size_t variant) {
    RushHourLearner learner{Duration::hours(24), 24, 2};
    for (int day = 0; day < 4; ++day) {
      std::vector<double> hours;
      for (int i = 0; i < 10; ++i) {
        hours.push_back(7.5);
        hours.push_back(17.5);
        hours.push_back(12.5);
      }
      for (const double hour : permuted(hours, variant)) {
        learner.record_effort(detect_at(day * 24.0 + hour),
                              Duration::milliseconds(20));
        if (hour != 12.5) {
          learner.record_probe(detect_at(day * 24.0 + hour));
        }
      }
      learner.finish_epoch();
    }
    return std::make_pair(learner.scores(), mask_bits(learner.mask()));
  };
  const auto reference = run(0);
  for (std::size_t variant = 1; variant < 6; ++variant) {
    EXPECT_EQ(run(variant), reference) << "variant " << variant;
  }
}

}  // namespace
}  // namespace snipr::core
