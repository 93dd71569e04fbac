#pragma once

#include <memory>

#include "snipr/core/exploration_policy.hpp"
#include "snipr/core/rush_hour_learner.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_rh.hpp"

/// \file adaptive_snip_rh.hpp
/// Learn-then-exploit SNIP-RH with seasonal tracking.
///
/// Sec. VII-B sketches (and the paper's future work proposes) a node that
/// identifies Rush Hours autonomously: run SNIP-AT at a small duty for a
/// few epochs to rank the time-slots, then switch to SNIP-RH. To keep
/// tracking a drifting pattern, SNIP-AT continues in the background at a
/// much smaller duty; when the learned ranking changes, the rush-hour mask
/// is refreshed at the next epoch boundary. Slot scores blend each epoch's
/// sample in with a fixed EWMA weight of 0.3. The refresh has hysteresis: a
/// slot outside the mask replaces the weakest slot inside it only when its
/// score exceeds the incumbent's by 30%, so the mask does not flicker on
/// single-sample noise yet still follows a real shift within a few epochs.
///
/// The learner only ever sees what the node detected (censored feedback),
/// so an adopted mask starves out-of-mask slots of observations. An
/// ExplorationPolicy (exploration_policy.hpp) composes with the refresh to
/// guarantee those slots still receive deliberate probing effort — or, for
/// the optimistic kind, trial membership in the mask itself.

namespace snipr::core {

struct AdaptiveSnipRhConfig {
  /// Epochs of pure SNIP-AT before the first mask is adopted.
  std::size_t learning_epochs{3};
  /// Duty used while learning.
  double learning_duty{0.001};
  /// Background SNIP-AT duty during the exploit phase (0 disables
  /// tracking; the paper suggests "a very very small duty-cycle").
  double tracking_duty{0.0001};
  /// Slots the mask marks as rush.
  std::size_t rush_slots{4};
  /// Exploration over out-of-mask slots; the default kind (kNone) keeps
  /// the legacy tracker-only behaviour bit-for-bit.
  ExplorationConfig exploration{};
  /// SNIP-RH parameters for the exploit phase.
  SnipRhConfig rh{};
};

class AdaptiveSnipRh final : public node::Scheduler {
 public:
  AdaptiveSnipRh(sim::Duration epoch, std::size_t slot_count,
                 AdaptiveSnipRhConfig config);

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override;
  /// Bounds a probing run by the learning-phase SNIP-AT (its budget
  /// alone), or, within the current slot, by SNIP-RH, short of the
  /// tracker's and the exploration floor's next due times; bounds lone
  /// tracker probes outside the mask at the tracker's own cycle by the
  /// budget and one cycle before the next rush slot. A non-probing run is
  /// the exploit phase's budget-spent poll, within the current slot.
  [[nodiscard]] std::int64_t repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const override;
  /// Records the skipped probes' effort, each in its own slot, and moves
  /// the tracker's due time on by a run of its probes.
  void commit_repeats(const node::SensorContext& ctx,
                      node::SchedulerDecision verdict,
                      std::int64_t k) override;
  void on_probe_detected(sim::TimePoint when) override;
  void on_contact_probed(const node::ProbedContactObservation& obs) override;
  void on_epoch_start(std::int64_t epoch_index) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] bool learning() const noexcept { return learning_; }
  /// The background tracker's probing cycle, Ton / tracking_duty.
  [[nodiscard]] sim::Duration tracker_cycle() const noexcept {
    return track_probe_.cycle();
  }
  [[nodiscard]] const RushHourMask& current_mask() const noexcept {
    return rh_.mask();
  }
  [[nodiscard]] const RushHourLearner& learner() const noexcept {
    return learner_;
  }
  /// The exploration slots planned for the current epoch (empty until
  /// the first mask is adopted, and always empty for kNone/kOptimistic).
  [[nodiscard]] const RushHourMask& exploration_mask() const noexcept {
    return plan_;
  }

  /// Crash/recovery seam: the checkpoint carries the learner snapshot
  /// (scores, in-flight samples, effort totals, UCB sample counts), the
  /// adopted mask and SNIP-RH estimators, the exploration cursor and
  /// mask, the phase flag and the pacing deadlines — restore() resumes
  /// bit-identically. reset() is full amnesia: back to the learning
  /// phase with an empty mask, as on first boot.
  [[nodiscard]] std::string checkpoint() const override;
  bool restore(std::string_view blob) override;
  void reset() override;
  [[nodiscard]] std::vector<bool> rush_mask_bits() const override {
    return rh_.mask().bits();
  }

 private:
  /// Mask to adopt/refresh against: the learner's ranking, viewed through
  /// the exploration policy's (possibly optimistic) score lens.
  [[nodiscard]] RushHourMask ranked_mask() const;
  /// True when a probing run at `cycle` is the tracker's own, outside
  /// the mask in the exploit phase.
  [[nodiscard]] bool tracker_run(const node::SensorContext& ctx,
                                 sim::Duration cycle) const;
  /// repeat_bound() for the exploit phase's budget-spent poll.
  [[nodiscard]] std::int64_t poll_run_bound(const node::SensorContext& ctx,
                                            sim::Duration cycle) const;

  AdaptiveSnipRhConfig config_;
  RushHourLearner learner_;
  SnipAt learn_probe_;    ///< learning-phase SNIP-AT
  SnipAt track_probe_;    ///< background tracker during exploit phase
  SnipAt explore_probe_;  ///< duty floor inside planned exploration slots
  SnipRh rh_;
  ExplorationPolicy policy_;
  RushHourMask plan_;  ///< this epoch's exploration slots
  bool learning_{true};
  /// Alternates RH and tracker decisions so both make progress; the
  /// tracker's tiny duty means it rarely wins the earlier wakeup anyway.
  sim::TimePoint next_track_due_{sim::TimePoint::zero()};
  /// Same pacing for the exploration duty floor.
  sim::TimePoint next_explore_due_{sim::TimePoint::zero()};
};

}  // namespace snipr::core
