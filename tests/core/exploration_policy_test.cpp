#include "snipr/core/exploration_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "snipr/sim/rng.hpp"

namespace snipr::core {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_h(double hours) {
  return TimePoint::zero() + Duration::seconds(hours * 3600.0);
}

RushHourLearner make_learner() {
  return RushHourLearner{Duration::hours(24), 24, 4};
}

ExplorationConfig config_of(ExplorationPolicyKind kind) {
  ExplorationConfig cfg;
  cfg.kind = kind;
  return cfg;
}

TEST(ExplorationPolicy, KindIdsAreTheStableNames) {
  EXPECT_EQ(exploration_policy_kind_id(ExplorationPolicyKind::kNone), "none");
  EXPECT_EQ(exploration_policy_kind_id(ExplorationPolicyKind::kEpsilonFloor),
            "eps-floor");
  EXPECT_EQ(exploration_policy_kind_id(ExplorationPolicyKind::kOptimistic),
            "optimistic");
  EXPECT_EQ(exploration_policy_kind_id(ExplorationPolicyKind::kUcb), "ucb");
}

TEST(ExplorationPolicy, Validation) {
  ExplorationConfig bad = config_of(ExplorationPolicyKind::kEpsilonFloor);
  bad.epsilon = 1.5;
  EXPECT_THROW(ExplorationPolicy{bad}, std::invalid_argument);
  bad = config_of(ExplorationPolicyKind::kEpsilonFloor);
  bad.explore_duty = -0.1;
  EXPECT_THROW(ExplorationPolicy{bad}, std::invalid_argument);
  bad = config_of(ExplorationPolicyKind::kUcb);
  bad.ucb_c = -1.0;
  EXPECT_THROW(ExplorationPolicy{bad}, std::invalid_argument);
  bad = config_of(ExplorationPolicyKind::kOptimistic);
  bad.optimism_scale = -0.5;
  EXPECT_THROW(ExplorationPolicy{bad}, std::invalid_argument);
}

TEST(ExplorationPolicy, NoneAndOptimisticPlanNoWakeups) {
  const RushHourLearner learner = make_learner();
  const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
  for (const auto kind :
       {ExplorationPolicyKind::kNone, ExplorationPolicyKind::kOptimistic}) {
    ExplorationPolicy policy{config_of(kind)};
    EXPECT_EQ(policy.plan_epoch(learner, mask).rush_slot_count(), 0U);
  }
}

TEST(ExplorationPolicy, EpsilonFloorNeverPlansInsideRushMask) {
  const RushHourLearner learner = make_learner();
  const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kEpsilonFloor);
  cfg.epsilon = 0.125;  // 3 of 24 slots per epoch
  ExplorationPolicy policy{cfg};
  for (int epoch = 0; epoch < 10; ++epoch) {
    const RushHourMask plan = policy.plan_epoch(learner, mask);
    EXPECT_EQ(plan.rush_slot_count(), 3U);
    for (const std::size_t s : {7U, 8U, 17U, 18U}) {
      EXPECT_FALSE(plan.is_rush_slot(s)) << "epoch " << epoch;
    }
  }
}

TEST(ExplorationPolicy, EpsilonFloorRotationCoversEveryCensoredSlot) {
  // The unconditional guarantee: 20 out-of-mask slots at 3 per epoch are
  // all visited within ceil(20/3) = 7 epochs — no slot is starved however
  // bad its score looks.
  const RushHourLearner learner = make_learner();
  const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kEpsilonFloor);
  cfg.epsilon = 0.125;
  ExplorationPolicy policy{cfg};
  std::set<std::size_t> visited;
  for (int epoch = 0; epoch < 7; ++epoch) {
    const RushHourMask plan = policy.plan_epoch(learner, mask);
    for (std::size_t s = 0; s < 24; ++s) {
      if (plan.is_rush_slot(s)) visited.insert(s);
    }
  }
  EXPECT_EQ(visited.size(), 20U);
}

TEST(ExplorationPolicy, PlanEmptyWhenMaskCoversEverySlot) {
  const RushHourLearner learner = make_learner();
  RushHourMask everything{Duration::hours(24), 24};
  for (std::size_t s = 0; s < 24; ++s) everything.set(s, true);
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kEpsilonFloor);
  ExplorationPolicy policy{cfg};
  EXPECT_EQ(policy.plan_epoch(learner, everything).rush_slot_count(), 0U);
}

TEST(ExplorationPolicy, UcbPrefersLeastSampledSlotUnderEqualScores) {
  // Slot 5 has contributed samples for three epochs; slot 11 never has.
  // With any positive ucb_c the confidence bonus must rank 11 above 5.
  RushHourLearner learner = make_learner();
  for (int day = 0; day < 3; ++day) {
    learner.record_effort(at_h(day * 24.0 + 5.5), Duration::seconds(10));
    learner.record_probe(at_h(day * 24.0 + 5.5));
    learner.finish_epoch();
  }
  const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kUcb);
  cfg.epsilon = 1.0 / 24.0;  // plan exactly one slot
  cfg.ucb_c = 5.0;           // bonus dominates the exploitation term
  ExplorationPolicy policy{cfg};
  const RushHourMask plan = policy.plan_epoch(learner, mask);
  EXPECT_EQ(plan.rush_slot_count(), 1U);
  EXPECT_FALSE(plan.is_rush_slot(5));
  EXPECT_TRUE(plan.is_rush_slot(0));  // unsampled, lowest index
}

TEST(ExplorationPolicy, UcbWithZeroBonusExploitsBestCensoredScore) {
  RushHourLearner learner = make_learner();
  // Slot 11 scored well before the mask censored it; slot 3 scored badly.
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 8; ++i) learner.record_probe(at_h(day * 24.0 + 11.5));
    learner.record_probe(at_h(day * 24.0 + 3.5));
    learner.finish_epoch();
  }
  const RushHourMask mask = RushHourMask::from_hours({7, 8, 17, 18});
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kUcb);
  cfg.epsilon = 1.0 / 24.0;
  cfg.ucb_c = 0.0;
  ExplorationPolicy policy{cfg};
  EXPECT_TRUE(policy.plan_epoch(learner, mask).is_rush_slot(11));
}

/// The UCB plan as first written: every candidate's index, a stable
/// descending sort of all of them, the first m taken. Sets
/// `boundary_tie` when the m-th pick ties with the first one left out,
/// where the choice rests on the tie-break alone.
RushHourMask stable_sort_ucb_plan(const ExplorationConfig& cfg,
                                  const RushHourLearner& learner,
                                  const RushHourMask& rush_mask,
                                  bool& boundary_tie) {
  boundary_tie = false;
  const std::size_t n = rush_mask.slot_count();
  RushHourMask plan{learner.epoch(), n};
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < n; ++s) {
    if (!rush_mask.is_rush_slot(s)) candidates.push_back(s);
  }
  if (candidates.empty()) return plan;
  const std::size_t want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(cfg.epsilon * static_cast<double>(n))));
  const std::size_t m = std::min(want, candidates.size());
  const std::vector<double>& scores = learner.scores();
  const std::vector<std::uint32_t>& samples = learner.slot_samples();
  double max_score = 0.0;
  for (const double v : scores) max_score = std::max(max_score, v);
  if (max_score <= 0.0) max_score = 1.0;
  const double horizon =
      std::log1p(static_cast<double>(learner.epochs_observed()));
  std::vector<double> index(candidates.size(), 0.0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t s = candidates[i];
    index[i] = scores[s] / max_score +
               cfg.ucb_c *
                   std::sqrt(horizon /
                             (1.0 + static_cast<double>(samples[s])));
  }
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return index[a] > index[b];
                   });
  for (std::size_t i = 0; i < m; ++i) plan.set(candidates[order[i]], true);
  boundary_tie = m < order.size() && index[order[m - 1]] == index[order[m]];
  return plan;
}

TEST(ExplorationPolicy, UcbPlanMatchesTheStableSortSelection) {
  // Random scores and sample counts drawn from a few values, so many
  // candidates tie on their index, over random masks (some covering
  // every slot) and slot counts. One policy plans every state of a
  // config in turn, reusing its buffers as the candidate count moves.
  sim::Rng rng{2024};
  const std::vector<double> score_values{0.0, 0.25, 1.0, 3.0};
  const std::vector<std::size_t> slot_counts{4, 6, 8, 12, 24, 48};
  std::size_t ties = 0;
  for (int config = 0; config < 60; ++config) {
    ExplorationConfig cfg = config_of(ExplorationPolicyKind::kUcb);
    cfg.epsilon = rng.uniform(0.01, 1.0);
    cfg.ucb_c = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 3.0);
    ExplorationPolicy policy{cfg};
    const std::size_t n = slot_counts[rng.uniform_int(slot_counts.size())];
    const RushHourLearner fresh{Duration::hours(24), n, 4};
    for (int state = 0; state < 20; ++state) {
      RushHourLearner::Snapshot snap = fresh.snapshot();
      for (double& v : snap.scores) {
        v = score_values[rng.uniform_int(score_values.size())];
      }
      for (std::uint32_t& v : snap.slot_samples) {
        v = static_cast<std::uint32_t>(rng.uniform_int(3));
      }
      snap.epochs = rng.uniform_int(20);
      RushHourLearner learner = fresh;
      learner.restore(snap);
      RushHourMask mask{Duration::hours(24), n};
      const double rush_share = rng.bernoulli(0.1) ? 1.0 : rng.uniform();
      for (std::size_t s = 0; s < n; ++s) {
        if (rng.bernoulli(rush_share)) mask.set(s, true);
      }
      bool boundary_tie = false;
      const RushHourMask expected =
          stable_sort_ucb_plan(cfg, learner, mask, boundary_tie);
      const RushHourMask plan = policy.plan_epoch(learner, mask);
      const std::string label =
          std::to_string(config) + "/" + std::to_string(state);
      EXPECT_EQ(plan.bits(), expected.bits()) << label;
      if (boundary_tie) ++ties;
    }
  }
  // A tie across the cut is the case a selection could break otherwise.
  EXPECT_GT(ties, 100U);
}

TEST(ExplorationPolicy, OptimismLiftsUnexploredSlotIntoContention) {
  RushHourLearner learner = make_learner();
  learner.record_effort(at_h(7.5), Duration::seconds(10));
  for (int i = 0; i < 6; ++i) learner.record_probe(at_h(7.5));
  learner.finish_epoch();

  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kOptimistic);
  cfg.optimism_slots = 1;
  cfg.optimism_scale = 0.8;
  ExplorationPolicy policy{cfg};
  EXPECT_TRUE(policy.inflates_scores());
  const std::vector<double> scores = policy.effective_scores(learner);
  // The least-explored slot (slot 0: unseeded, zero effort) is lifted to
  // 0.8 x the best seeded score; the seeded slot itself is untouched.
  EXPECT_DOUBLE_EQ(scores[7], learner.scores()[7]);
  EXPECT_DOUBLE_EQ(scores[0], 0.8 * learner.scores()[7]);
  // Exactly optimism_slots slots are lifted.
  std::size_t lifted = 0;
  for (std::size_t s = 0; s < scores.size(); ++s) {
    if (scores[s] != learner.scores()[s]) ++lifted;
  }
  EXPECT_EQ(lifted, 1U);
}

TEST(ExplorationPolicy, OptimismNeedsASeededBaseline) {
  // Before any real sample there is nothing to be optimistic relative to:
  // inflating zeros would just reshuffle an all-zero ranking.
  const RushHourLearner learner = make_learner();
  ExplorationConfig cfg = config_of(ExplorationPolicyKind::kOptimistic);
  ExplorationPolicy policy{cfg};
  EXPECT_EQ(policy.effective_scores(learner), learner.scores());
}

}  // namespace
}  // namespace snipr::core
