#pragma once

#include <string>
#include <vector>

#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/node/scheduler.hpp"
#include "snipr/stats/ewma.hpp"

/// \file snip_rh.hpp
/// SNIP-RH: the paper's contribution (Sec. VI).
///
/// SNIP is activated only when all three conditions hold:
///   1. the current time-slot is marked as a Rush Hour;
///   2. the buffer holds at least the learned mean amount of data uploaded
///      per probed contact (an EWMA of weight 0.1, Sec. VI-B), and at
///      least one byte before any upload is seen (so probed capacity is
///      never wasted);
///   3. the epoch's probing-energy budget Φmax still affords a wakeup.
///
/// The duty-cycle is d_rh = Ton / T̄contact where T̄contact is an EWMA of
/// the contact length with a small weight on new samples (Sec. VI-C) —
/// the knee of the SNIP capacity curve, i.e. the largest duty that still
/// probes at the minimum per-unit energy cost ρ.
///
/// A sensor node can only time a contact from the moment it probes it, so
/// the raw observation is Tprobed, which under-estimates Tcontact by the
/// expected pre-awareness gap. With head correction (default) the sample
/// is Tprobed + Tcycle/2, an unbiased reconstruction of Tcontact when
/// Tcycle < Tcontact; without it the estimator settles at ~2/3·Tcontact
/// and the duty lands slightly above the knee (the paper notes ρ is not
/// very sensitive there). The ablation bench A3 quantifies both choices.
/// An observation a drained buffer cut short under-estimates the contact
/// length even after head correction, so it feeds only the upload mean.

namespace snipr::core {

namespace ckpt {
class TokenReader;
}  // namespace ckpt

/// A mask's checkpoint tokens, for every scheduler that checkpoints one:
/// the slot count, then 0 or 1 per slot.
void append_mask_bits(std::string& out, const RushHourMask& mask);
/// Read the tokens append_mask_bits wrote into `bits`. False on a missing
/// or malformed token.
[[nodiscard]] bool read_mask_bits(ckpt::TokenReader& reader,
                                  std::vector<bool>& bits);

struct SnipRhConfig {
  /// SNIP's per-wakeup radio-on time (Ton).
  sim::Duration ton{sim::Duration::milliseconds(20)};
  /// Prior estimate of the mean contact length, seconds (engineers'
  /// deployment-time guess; refined online).
  double initial_tcontact_s{2.0};
  /// EWMA weight for T̄contact ("a small weight", Sec. VI-C).
  double length_ewma_weight{0.1};
  /// Reconstruct Tcontact from Tprobed by adding Tcycle/2 (see above).
  bool head_correction{true};
};

class SnipRh final : public node::Scheduler {
 public:
  SnipRh(RushHourMask mask, SnipRhConfig config);

  [[nodiscard]] node::SchedulerDecision on_wakeup(
      const node::SensorContext& ctx) override;
  /// A probing verdict holds to the end of its rush slot or of the
  /// budget: the duty and the upload threshold change only when a contact
  /// is probed, and the buffer only grows between transfers.
  [[nodiscard]] std::int64_t repeat_bound(const node::SensorContext& ctx,
                                          node::SchedulerDecision verdict,
                                          sim::Duration charge) const override;
  void on_contact_probed(const node::ProbedContactObservation& obs) override;
  [[nodiscard]] std::string name() const override { return "SNIP-RH"; }

  /// Current contact-length estimate T̄contact (seconds).
  [[nodiscard]] double tcontact_estimate_s() const noexcept;
  /// Current duty d_rh = Ton / T̄contact, clamped to (0, 1].
  [[nodiscard]] double duty() const noexcept;
  /// Condition-2 threshold: learned mean upload per contact (bytes).
  [[nodiscard]] double upload_threshold_bytes() const noexcept;
  [[nodiscard]] const RushHourMask& mask() const noexcept { return mask_; }
  /// Replace the mask (used by adaptive variants tracking seasonal shift).
  void set_mask(RushHourMask mask) noexcept { mask_ = std::move(mask); }

  /// Crash/recovery seam. The checkpoint carries the mask bits and both
  /// EWMAs; reset() clears the EWMAs back to their priors but keeps the
  /// mask — for standalone SNIP-RH the mask is provisioned configuration
  /// (it lives in flash), not learned state. AdaptiveSnipRh wipes the
  /// mask itself when it reboots its inner SnipRh.
  [[nodiscard]] std::string checkpoint() const override;
  bool restore(std::string_view blob) override;
  void reset() override;

  /// A checkpoint's state, read but not yet applied.
  struct Checkpoint {
    std::vector<bool> mask_bits;
    stats::Ewma tcontact_s;
    stats::Ewma upload_bytes;
  };
  /// restore() in two steps, for a scheduler whose checkpoint embeds this
  /// one's (AdaptiveSnipRh): read checkpoint()'s tokens from `reader`
  /// (false on a malformed token or a mask of another slot count), then,
  /// once the rest of the embedding checkpoint has read too, apply them.
  [[nodiscard]] bool read_checkpoint(ckpt::TokenReader& reader,
                                     Checkpoint& state) const;
  void apply(Checkpoint state);
  [[nodiscard]] std::vector<bool> rush_mask_bits() const override {
    return mask_.bits();
  }

 private:
  /// Recompute the cached duty and probing cycle from T̄contact; called
  /// wherever the estimate changes.
  void refresh_cycle() noexcept;

  RushHourMask mask_;
  SnipRhConfig config_;
  stats::Ewma tcontact_s_;
  stats::Ewma upload_bytes_;
  /// duty() and the cycle a probing wakeup returns, max(Ton/d, Ton).
  double duty_{0.0};
  sim::Duration probe_cycle_{};
};

}  // namespace snipr::core
