#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/sim/time.hpp"

/// \file scheduler.hpp
/// The radio-scheduling seam of a sensor node.
///
/// The sensor node's CPU wakes periodically and asks its scheduler whether
/// to carry out a SNIP probing wakeup now and when to check again
/// (Sec. VI-B of the paper). Concrete policies — SNIP-AT, SNIP-OPT,
/// SNIP-RH, adaptive variants — live in snipr::core; the node only knows
/// this interface.
///
/// Most SNIP probes hear nothing, and the contact schedule already fixes
/// each of those outcomes up to the first contact a probe lands in:
/// contacts that fall between two probes of the grid change nothing. A
/// node whose budget is spent may likewise poll with the same verdict
/// until the epoch ends. A scheduler that can prove its own next verdicts
/// says so in two steps. repeat_bound() is a pure question: for how many
/// wakeups would the verdict just carried out repeat? The node asks it
/// first, walks the contact schedule only as far as that bound, takes the
/// shortest of the bound, the walk and the node's own limits (its epoch
/// timer and run bound), and then hands the chosen run to
/// commit_repeats(), which applies the side
/// effects of exactly those wakeups (DESIGN.md, "Missed-probe
/// fast-forward"). The node proves the misses; the scheduler bounds the
/// run only where its verdict could change (its budget, a slot end where
/// the verdict depends on the slot, a due time), so a run may cross slot
/// boundaries. A scheduler that overrides neither is never
/// fast-forwarded: every wakeup runs through on_wakeup(), as before.

namespace snipr::node {

/// Snapshot handed to the scheduler at each CPU wakeup.
struct SensorContext {
  sim::TimePoint now;
  double buffer_bytes{0.0};        ///< data currently buffered
  sim::Duration budget_used{};     ///< probing radio-on time this epoch
  sim::Duration budget_limit{};    ///< Φmax per epoch
  std::int64_t epoch_index{0};
};

/// What the sensor observed about one successfully probed contact.
struct ProbedContactObservation {
  sim::TimePoint probe_time;          ///< both sides aware of each other
  sim::Duration observed_probed_len;  ///< probe_time .. transfer end
  double bytes_uploaded{0.0};
  sim::Duration cycle_at_probe{};     ///< Tcycle in effect when probed
  /// True when the transfer ended because the mobile node left range (the
  /// observation spans the full Tprobed); false when the buffer drained
  /// first (the observation is truncated).
  bool saw_departure{true};
};

/// Scheduler verdict for one CPU wakeup.
struct SchedulerDecision {
  /// Perform one SNIP wakeup (radio on for Ton, beacon, listen) now.
  bool probe{false};
  /// Delay until the next CPU wakeup. After a probing wakeup this is
  /// typically the SNIP cycle Tcycle = Ton/d; otherwise a coarser check
  /// period. Must be positive.
  sim::Duration next_wakeup{sim::Duration::seconds(1)};
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  Scheduler(Scheduler&&) = delete;
  Scheduler& operator=(Scheduler&&) = delete;

  /// Called at every CPU wakeup; decides whether to probe now.
  [[nodiscard]] virtual SchedulerDecision on_wakeup(
      const SensorContext& ctx) = 0;

  /// Fast-forward bound for runs of repeated verdicts.
  ///
  /// Asked right after the node carried out `verdict`, the value
  /// on_wakeup() returned at `ctx.now`: a probing wakeup that heard
  /// nothing, with that miss already charged (`ctx.budget_used` includes
  /// it), or a non-probing one, which charges nothing (`charge` is then
  /// zero). Returns a B >= 0 such that, for each j = 1..B, on_wakeup() at
  /// `ctx.now + j·verdict.next_wakeup`, with `budget_used + (j−1)·charge`
  /// and a buffer no smaller than `ctx.buffer_bytes` (it only grows
  /// between transfers), would again return `verdict`. It may stop short
  /// of the longest such run (at a slot boundary, say); 0 is always
  /// correct. Pure: it changes no state, so the node may ask it and then
  /// run every wakeup after all. The default returns 0, which keeps the
  /// per-wakeup path: a scheduler or decorator that does not override
  /// this is never fast-forwarded.
  [[nodiscard]] virtual std::int64_t repeat_bound(const SensorContext& ctx,
                                                  SchedulerDecision verdict,
                                                  sim::Duration charge) const;

  /// Commit a run of k skipped wakeups, 0 < k <= repeat_bound() at the
  /// same `ctx` and `verdict`, with no other call in between: applies
  /// the side effects of the k on_wakeup() calls at `ctx.now +
  /// j·verdict.next_wakeup`, j = 1..k, exactly as those calls would. For
  /// a probing verdict the node proves the k probes miss and charges
  /// them itself; a non-probing wakeup touches nothing but the clock.
  /// The default does nothing, right for a scheduler whose verdicts
  /// carry no state.
  virtual void commit_repeats(const SensorContext& ctx,
                              SchedulerDecision verdict, std::int64_t k);

  /// Called synchronously the instant a new contact is detected (both
  /// sides aware), before any transfer runs. This is the censored-
  /// feedback hook: slot-occupancy learners must count detections here,
  /// at detection time, so a transfer that straddles an epoch boundary
  /// cannot push the count into the epoch after the one whose probing
  /// effort produced it. Fires exactly once per probed contact — a
  /// re-beacon inside an already-probed contact does not repeat it.
  virtual void on_probe_detected(sim::TimePoint when);

  /// Called after each successfully probed contact's transfer ends
  /// (learning hook for quantities only known at completion: observed
  /// length, bytes uploaded).
  virtual void on_contact_probed(const ProbedContactObservation& obs);

  /// Called at each epoch boundary, before the budget resets.
  virtual void on_epoch_start(std::int64_t epoch_index);

  /// Human-readable policy name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  // --- Crash/recovery seam (the fault plane's checkpoint API) ----------

  /// Serialize all learned state as deterministic text (hexfloat
  /// doubles, so restore() is bit-exact). Empty = the policy is
  /// stateless and a reboot costs it nothing.
  [[nodiscard]] virtual std::string checkpoint() const { return {}; }

  /// Restore state captured by checkpoint() on a scheduler constructed
  /// with the same configuration. Returns false (state unchanged) when
  /// the blob does not parse; an empty blob is the stateless policies'
  /// valid no-op checkpoint.
  virtual bool restore(std::string_view blob) { return blob.empty(); }

  /// Reboot with amnesia: discard learned state back to as-constructed.
  /// Configuration (duties, provisioned masks, targets) survives — it
  /// lives in flash, not RAM.
  virtual void reset() {}

  /// Learned rush-slot bits, empty when the policy maintains no mask —
  /// the fault plane's re-convergence yardstick after a crash.
  [[nodiscard]] virtual std::vector<bool> rush_mask_bits() const {
    return {};
  }
};

/// The helpers repeat_bound() implementations bound their runs with.
/// Both count wakeups j = 1, 2, ... and return 0 when none fits.

/// Wakeups j whose budget check `used_j + ton <= ctx.budget_limit`
/// passes, where used_j = ctx.budget_used + (j−1)·charge: the condition
/// on_wakeup() tests, so no intermediate sum can overflow.
[[nodiscard]] std::int64_t probes_within_budget(const SensorContext& ctx,
                                                sim::Duration ton,
                                                sim::Duration charge) noexcept;

/// Wakeups j with `now + j·cycle <= last` (`cycle` must be positive).
[[nodiscard]] std::int64_t wakeups_through(sim::TimePoint now,
                                           sim::Duration cycle,
                                           sim::TimePoint last) noexcept;

}  // namespace snipr::node
