#include "snipr/core/exploration_policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace snipr::core {

std::string_view exploration_policy_kind_id(ExplorationPolicyKind kind) {
  switch (kind) {
    case ExplorationPolicyKind::kNone:
      return "none";
    case ExplorationPolicyKind::kEpsilonFloor:
      return "eps-floor";
    case ExplorationPolicyKind::kOptimistic:
      return "optimistic";
    case ExplorationPolicyKind::kUcb:
      return "ucb";
  }
  return "none";
}

ExplorationPolicy::ExplorationPolicy(ExplorationConfig config)
    : config_{config} {
  if (!(config.epsilon >= 0.0) || config.epsilon > 1.0) {
    throw std::invalid_argument(
        "ExplorationPolicy: epsilon must be in [0, 1]");
  }
  if (config.explore_duty < 0.0 || config.explore_duty > 1.0) {
    throw std::invalid_argument(
        "ExplorationPolicy: explore_duty must be in [0, 1]");
  }
  if (config.ucb_c < 0.0) {
    throw std::invalid_argument("ExplorationPolicy: ucb_c must be >= 0");
  }
  if (config.optimism_scale < 0.0) {
    throw std::invalid_argument(
        "ExplorationPolicy: optimism_scale must be >= 0");
  }
}

RushHourMask ExplorationPolicy::plan_epoch(const RushHourLearner& learner,
                                           const RushHourMask& rush_mask) {
  const std::size_t n = rush_mask.slot_count();
  RushHourMask plan{learner.epoch(), n};
  const bool plans_wakeups =
      config_.kind == ExplorationPolicyKind::kEpsilonFloor ||
      config_.kind == ExplorationPolicyKind::kUcb;
  if (!plans_wakeups || config_.explore_duty <= 0.0 ||
      config_.epsilon <= 0.0) {
    return plan;
  }
  candidates_.clear();
  for (std::size_t s = 0; s < n; ++s) {
    if (!rush_mask.is_rush_slot(s)) candidates_.push_back(s);
  }
  if (candidates_.empty()) return plan;  // mask already covers every slot

  const std::size_t want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config_.epsilon * static_cast<double>(n))));
  const std::size_t m = std::min(want, candidates_.size());

  if (config_.kind == ExplorationPolicyKind::kEpsilonFloor) {
    // Deterministic round-robin over the slot index space: every slot
    // outside the mask receives its duty floor within ceil(|outside|/m)
    // epochs, whatever the scores say. The cursor persists so consecutive
    // epochs continue the rotation instead of restarting it.
    std::size_t picked = 0;
    std::size_t scanned = 0;
    std::size_t idx = cursor_ % n;
    while (picked < m && scanned < n) {
      if (!rush_mask.is_rush_slot(idx)) {
        plan.set(idx, true);
        ++picked;
      }
      idx = (idx + 1) % n;
      ++scanned;
    }
    cursor_ = idx;
  } else {
    // UCB over out-of-mask slots: normalised exploitation term plus a
    // confidence bonus that shrinks with the number of epochs in which the
    // slot contributed a real sample. Unsampled slots get the maximal
    // bonus, so a freshly censored slot is explored before a merely
    // mediocre one.
    const std::vector<double>& scores = learner.scores();
    const std::vector<std::uint32_t>& samples = learner.slot_samples();
    double max_score = 0.0;
    for (const double v : scores) max_score = std::max(max_score, v);
    if (max_score <= 0.0) max_score = 1.0;
    const double horizon =
        std::log1p(static_cast<double>(learner.epochs_observed()));
    index_.resize(candidates_.size());
    order_.resize(candidates_.size());
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const std::size_t s = candidates_[i];
      index_[i] = scores[s] / max_score +
                  config_.ucb_c *
                      std::sqrt(horizon / (1.0 + static_cast<double>(
                                                     samples[s])));
      order_[i] = i;
    }
    // The m highest indices, ties to the earlier candidate: the first m
    // of a stable descending sort, without sorting the rest.
    std::partial_sort(order_.begin(),
                      order_.begin() + static_cast<std::ptrdiff_t>(m),
                      order_.end(), [&](std::size_t a, std::size_t b) {
                        return index_[a] > index_[b] ||
                               (index_[a] == index_[b] && a < b);
                      });
    for (std::size_t i = 0; i < m; ++i) {
      plan.set(candidates_[order_[i]], true);
    }
  }
  return plan;
}

std::vector<double> ExplorationPolicy::effective_scores(
    const RushHourLearner& learner) const {
  std::vector<double> scores = learner.scores();
  if (config_.kind != ExplorationPolicyKind::kOptimistic ||
      config_.optimism_slots == 0) {
    return scores;
  }
  const std::vector<double>& effort = learner.total_effort_s();
  const std::vector<char>& seeded = learner.slot_seeded();
  double best_seeded = 0.0;
  bool any_seeded = false;
  for (std::size_t s = 0; s < scores.size(); ++s) {
    if (seeded[s] != 0) {
      best_seeded = any_seeded ? std::max(best_seeded, scores[s]) : scores[s];
      any_seeded = true;
    }
  }
  if (!any_seeded) return scores;  // nothing to be optimistic relative to

  // Lift the least-explored slots to contention with the best observed
  // slot. If the optimism was unfounded the trial epoch's effort-
  // normalised sample drags the score straight back down; if a rush hour
  // really moved there, the trial confirms it at full knee duty.
  std::vector<std::size_t> under;
  for (std::size_t s = 0; s < scores.size(); ++s) {
    if (seeded[s] == 0 || effort[s] < config_.optimism_effort_floor_s) {
      under.push_back(s);
    }
  }
  std::stable_sort(under.begin(), under.end(),
                   [&](std::size_t a, std::size_t b) {
                     return effort[a] < effort[b];
                   });
  const std::size_t lift = std::min(config_.optimism_slots, under.size());
  const double target = config_.optimism_scale * best_seeded;
  for (std::size_t i = 0; i < lift; ++i) {
    scores[under[i]] = std::max(scores[under[i]], target);
  }
  return scores;
}

}  // namespace snipr::core
