#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snipr/contact/slot_clock.hpp"
#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/sim/time.hpp"

/// \file rush_hour_learner.hpp
/// Online identification of Rush Hours (Sec. VII-B discussion).
///
/// The paper observes that a node "only needs to learn the order of these
/// time-slots' contact capacity", so a short low-duty SNIP-AT phase with
/// per-slot probe counting suffices. This learner accumulates per-slot
/// scores — EWMA-smoothed across epochs with a weight of 0.3, so a slowly
/// shifting mobility pattern (seasonal rush-hour drift) is tracked — and
/// emits a mask of the top-k slots.
///
/// **Censoring contract.** Everything fed in here must be something the
/// node could actually observe at its duty cycle: record_probe() takes
/// *detected* contacts (at their detection instant), record_effort() the
/// radio-on time actually spent. Ground-truth arrival lists never enter —
/// a learner fed arrivals it slept through would look clairvoyant in
/// simulation and fall apart on hardware (the snooze paper's trap,
/// arXiv:1709.09551). tools/snipr_lint.py (`censored-feedback`) enforces
/// this at the token level.
///
/// Scoring has two modes:
///  - Count mode (no effort recorded): a slot's epoch sample is its raw
///    probe count. Valid while probing effort is uniform across slots
///    (pure SNIP-AT learning).
///  - Effort-normalised mode (record_effort() called): the sample is
///    probes per radio-on second spent in the slot — a contact-rate
///    estimate even when effort is highly non-uniform, as it is once
///    SNIP-RH exploits a mask (knee duty inside, tiny tracker duty
///    outside). The rate is count/(effort + 2 s): the 2 s prior damps the
///    explosive estimate of a lucky probe under near-zero effort. Without
///    this correction an adopted mask self-reinforces and a shifted
///    pattern is never relearned. Slots with zero effort in
///    an epoch carry no information and keep their score. Effort mode is
///    sticky: once any effort has been recorded, a later epoch with zero
///    effort *and* zero counts is a zero-information epoch (radio never
///    on) and holds every score — it must not fall back to count mode and
///    EWMA every slot toward a 0.0 the node never observed.
///
/// Initialisation is tracked per slot: a slot's first real sample *seeds*
/// its score outright, and only later samples are EWMA-blended. A global
/// initialised flag would mark effort-mode slots that were skipped in the
/// first epoch as initialised too, so their eventual first sample in a
/// later epoch would be blended against a bogus 0.0 prior — persistently
/// underestimating rarely-probed slots (exactly the ones outside an
/// adopted mask) and biasing the learned ranking toward the incumbent.

namespace snipr::core {

class RushHourLearner {
 public:
  /// \param epoch       epoch length (Tepoch).
  /// \param slot_count  number of slots N.
  /// \param rush_slots  how many slots the emitted mask marks as rush.
  RushHourLearner(sim::Duration epoch, std::size_t slot_count,
                  std::size_t rush_slots);

  /// Record one *detected* contact at its detection instant `t`. Call at
  /// detection time, not transfer completion: a transfer that straddles
  /// finish_epoch() would otherwise push the count into the epoch after
  /// the one whose effort paid for it.
  void record_probe(sim::TimePoint t);

  /// Record probing effort (radio-on time) spent at time `t`. Calling this
  /// at least once switches the learner permanently to effort-normalised
  /// scoring.
  void record_effort(sim::TimePoint t, sim::Duration radio_on);

  /// record_effort(t0 + j·cycle, radio_on) for j = 1..times: the same
  /// additions, one at a time and in time order, each into its own
  /// wakeup's slot, so every per-slot sum stays bit-identical. The
  /// fast-forward path charges a run of skipped probes with it, whatever
  /// slots the run spans. `cycle` must be positive; a non-positive count
  /// records nothing.
  void record_repeated_effort(sim::TimePoint t0, sim::Duration cycle,
                              sim::Duration radio_on, std::int64_t times);

  /// Fold the epoch's samples into the long-term scores. Call at each
  /// epoch boundary.
  void finish_epoch();

  /// Epochs folded in so far.
  [[nodiscard]] std::size_t epochs_observed() const noexcept {
    return epochs_;
  }
  [[nodiscard]] sim::Duration epoch() const noexcept { return clock_.epoch(); }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return scores_.size();
  }
  /// Long-term per-slot scores (EWMA of per-epoch probe counts).
  [[nodiscard]] const std::vector<double>& scores() const noexcept {
    return scores_;
  }
  /// Cumulative radio-on seconds recorded per slot since construction —
  /// the exploration policies' notion of how well a slot is sampled.
  [[nodiscard]] const std::vector<double>& total_effort_s() const noexcept {
    return total_effort_s_;
  }
  /// Per slot: epochs that contributed a real sample to its score.
  [[nodiscard]] const std::vector<std::uint32_t>& slot_samples()
      const noexcept {
    return slot_samples_;
  }
  /// Per slot: has the score been seeded by at least one real sample?
  /// (std::vector<char>, not <bool>, for addressable flags.)
  [[nodiscard]] const std::vector<char>& slot_seeded() const noexcept {
    return slot_seeded_;
  }

  /// Slots ordered by decreasing score. Ties break sampled-before-
  /// unsampled, then by index: a slot with zero recorded effort carries no
  /// evidence and must never outrank a slot that was actually probed.
  [[nodiscard]] std::vector<contact::SlotIndex> slots_by_score() const;
  /// The same ranking rule over caller-supplied scores (exploration
  /// policies rank optimistic score views with identical tie-breaking).
  [[nodiscard]] static std::vector<contact::SlotIndex> rank_slots(
      const std::vector<double>& scores, const std::vector<char>& seeded);
  /// Mask marking the top `rush_slots` slots.
  [[nodiscard]] RushHourMask mask() const;

  /// Complete mutable state — everything a crash wipes and a checkpoint
  /// must carry (scores, in-flight epoch samples, effort totals, the
  /// UCB sample counts, per-slot seeding, the sticky effort mode).
  /// snapshot() → restore() round-trips bit-identically.
  struct Snapshot {
    std::vector<double> scores;
    std::vector<double> current_counts;
    std::vector<double> current_effort_s;
    std::vector<double> total_effort_s;
    std::vector<std::uint32_t> slot_samples;
    std::vector<char> slot_seeded;
    bool effort_mode{false};
    std::size_t epochs{0};
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Restore state captured by snapshot() on a learner configured with
  /// the same slot count. Throws std::invalid_argument on a shape
  /// mismatch (a checkpoint from a differently-configured learner).
  void restore(const Snapshot& state);
  /// Crash amnesia: discard every observation back to the
  /// freshly-constructed state (configuration survives).
  void reset() noexcept;

 private:
  contact::SlotClock clock_;
  std::size_t rush_slots_;
  std::vector<double> scores_;
  std::vector<double> current_counts_;
  std::vector<double> current_effort_s_;
  std::vector<double> total_effort_s_;
  std::vector<std::uint32_t> slot_samples_;
  std::vector<char> slot_seeded_;
  bool effort_mode_{false};  ///< sticky: any record_effort() ever seen
  std::size_t epochs_{0};
};

}  // namespace snipr::core
