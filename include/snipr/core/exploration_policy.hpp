#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/core/rush_hour_learner.hpp"
#include "snipr/core/rush_hour_mask.hpp"

/// \file exploration_policy.hpp
/// Breaking the censored-feedback loop of mask-driven probing.
///
/// Once AdaptiveSnipRh adopts a rush-hour mask, almost all probing effort
/// concentrates inside it. A slot outside the mask is observed only by the
/// tiny background tracker — or, with tracking disabled, never again. A
/// rush hour that migrates into such a slot is then invisible: the learner
/// sees zero detections there because the node spent zero effort there,
/// and the mask self-reinforces forever. (The classic bandit starvation
/// problem, here with radio duty as the arm-pull budget.)
///
/// An ExplorationPolicy decides, at each epoch boundary, which out-of-mask
/// slots deserve deliberate probing effort next epoch and at what duty:
///  - kEpsilonFloor: a round-robin rotation guaranteeing every slot a
///    minimum duty floor every ~N/m epochs — the unconditional guarantee.
///  - kUcb: budget-aware upper-confidence-bound ranking; slots with high
///    score-so-far or little lifetime effort win the exploration slots,
///    so effort chases uncertainty instead of rotating blindly.
///  - kOptimistic: no extra wakeups at all; instead under-explored slots'
///    scores are inflated ("optimism in the face of uncertainty") so the
///    mask-refresh hysteresis itself pulls them into the mask for a trial
///    epoch at full knee duty.
///  - kNone: the legacy behaviour, byte-identical to pre-exploration
///    builds.
///
/// The policy composes with AdaptiveSnipRh rather than replacing its
/// learner: plans address slots, the learner keeps owning scores.

namespace snipr::core {

enum class ExplorationPolicyKind {
  kNone,
  kEpsilonFloor,
  kOptimistic,
  kUcb,
};

/// Stable identifier used in configs, CLI flags and bench JSON.
[[nodiscard]] std::string_view exploration_policy_kind_id(
    ExplorationPolicyKind kind);

struct ExplorationConfig {
  ExplorationPolicyKind kind{ExplorationPolicyKind::kNone};
  /// Fraction of slots planned for exploration each epoch (eps-floor,
  /// UCB). At least one slot is planned whenever any slot lies outside
  /// the rush-hour mask.
  double epsilon{0.125};
  /// SNIP-AT duty applied inside planned exploration slots. The energy
  /// cost per epoch is roughly epsilon * explore_duty, so the defaults
  /// spend about as much as the legacy tracking_duty of 1e-4 did.
  double explore_duty{0.0005};
  /// UCB exploration constant (kUcb only).
  double ucb_c{1.0};
  /// kOptimistic: an under-explored slot's score is lifted to
  /// optimism_scale x the best seeded score.
  double optimism_scale{1.0};
  /// kOptimistic: lifetime effort below this marks a slot under-explored.
  double optimism_effort_floor_s{1.0};
  /// kOptimistic: at most this many slots are inflated per refresh.
  std::size_t optimism_slots{1};
};

class ExplorationPolicy {
 public:
  explicit ExplorationPolicy(ExplorationConfig config);

  [[nodiscard]] const ExplorationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ExplorationPolicyKind kind() const noexcept {
    return config_.kind;
  }

  /// True when the policy explores by inflating the learner's scores
  /// (kOptimistic) rather than by planning extra wakeups; the caller must
  /// then rank effective_scores() instead of learner.scores() when
  /// adopting or refreshing the mask.
  [[nodiscard]] bool inflates_scores() const noexcept {
    return config_.kind == ExplorationPolicyKind::kOptimistic;
  }

  /// Decide next epoch's exploration slots given the learner's statistics
  /// and the mask SNIP-RH is about to exploit: the slots the returned mask
  /// marks are probed at `explore_duty` next epoch. Slots inside
  /// `rush_mask` are never planned — they already receive full knee duty.
  /// The mask is empty for kNone and kOptimistic, for a zero epsilon or
  /// duty, and when nothing lies outside `rush_mask`.
  [[nodiscard]] RushHourMask plan_epoch(const RushHourLearner& learner,
                                        const RushHourMask& rush_mask);

  /// Score view with optimism applied (kOptimistic); other kinds return
  /// the learner's scores unchanged.
  [[nodiscard]] std::vector<double> effective_scores(
      const RushHourLearner& learner) const;

  /// eps-floor rotation position — checkpointed so a restored node
  /// resumes the round-robin exactly where the crash left it.
  [[nodiscard]] std::size_t cursor() const noexcept { return cursor_; }
  void set_cursor(std::size_t cursor) noexcept { cursor_ = cursor; }

 private:
  ExplorationConfig config_;
  /// eps-floor round-robin position, persisted across epochs so the
  /// rotation covers every out-of-mask slot before revisiting one.
  std::size_t cursor_{0};
  /// plan_epoch()'s scratch, reused across epochs: the out-of-mask
  /// slots, their UCB indices and the selection order over them.
  std::vector<std::size_t> candidates_;
  std::vector<double> index_;
  std::vector<std::size_t> order_;
};

}  // namespace snipr::core
