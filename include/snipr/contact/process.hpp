#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/contact/profile.hpp"
#include "snipr/sim/distributions.hpp"
#include "snipr/sim/rng.hpp"

/// \file process.hpp
/// Contact arrival processes.
///
/// A ContactProcess turns the environment description (ArrivalProfile +
/// contact-length distribution) into a concrete stream of contacts:
///  - IntervalContactProcess: next arrival = previous arrival + Tinterval,
///    with Tinterval drawn per slot. With FixedDistribution jitter this is
///    the paper's analysis environment; with TruncatedNormal (sigma = mean/10)
///    it is the paper's COOJA simulation environment (Sec. VII-A.2).
///  - TraceReplayProcess (trace_replay.hpp): replays a recorded trace.

namespace snipr::contact {

/// Jitter applied to a slot's mean inter-arrival interval.
enum class IntervalJitter {
  kNone,          ///< deterministic: interval == slot mean
  kNormalTenth,   ///< Normal(mean, mean/10), truncated positive (the paper)
};

/// Pull-based stream of contacts, ordered by arrival time.
class ContactProcess {
 public:
  virtual ~ContactProcess() = default;
  ContactProcess() = default;
  ContactProcess(const ContactProcess&) = delete;
  ContactProcess& operator=(const ContactProcess&) = delete;
  ContactProcess(ContactProcess&&) = delete;
  ContactProcess& operator=(ContactProcess&&) = delete;

  /// Next contact, or nullopt when the stream is exhausted (trace end).
  [[nodiscard]] virtual std::optional<Contact> next(sim::Rng& rng) = 0;
};

/// Sequential interval-based generator (the paper's environment).
///
/// Within one occurrence of a slot, arrivals form a renewal process with
/// gaps drawn from that slot's Tinterval; a gap that crosses the slot
/// boundary restarts the renewal in the next slot (an arrival exactly on
/// the boundary belongs to the next slot).
///
/// - kNone: gaps equal the slot mean. This reproduces the paper's
///   deterministic counts exactly — the road-side profile yields
///   3600/300 = 12 contacts per rush-hour slot and 3600/1800 = 2 elsewhere
///   (day one has one fewer: nothing precedes t = 0). Requires
///   Tinterval <= slot length to generate the nominal rate.
/// - kNormalTenth (the paper's simulation): gaps are Normal(m, m/10), and
///   the first gap of each slot occurrence is an equilibrium residual
///   drawn uniformly from [0, m], which keeps the per-slot rate at 1/m
///   (a fresh renewal would under-count by half a gap per slot) and
///   handles sparse profiles where Tinterval exceeds the slot length.
///
/// If a draw would overlap the previous contact, the arrival is pushed to
/// the previous departure: the reference model assumes at most one mobile
/// node in range at a time (Sec. II), so contacts never overlap. Dead
/// slots are skipped.
class IntervalContactProcess final : public ContactProcess {
 public:
  IntervalContactProcess(ArrivalProfile profile,
                         std::unique_ptr<sim::Distribution> contact_length,
                         IntervalJitter jitter = IntervalJitter::kNone);

  /// Per-slot contact-length distributions (Sec. V's full environment:
  /// each slot has its own length distribution). One non-null entry per
  /// slot; a contact draws from the distribution of its arrival slot.
  IntervalContactProcess(
      ArrivalProfile profile,
      std::vector<std::unique_ptr<sim::Distribution>> lengths_per_slot,
      IntervalJitter jitter = IntervalJitter::kNone);

  [[nodiscard]] std::optional<Contact> next(sim::Rng& rng) override;

  [[nodiscard]] const ArrivalProfile& profile() const noexcept {
    return profile_;
  }

 private:
  [[nodiscard]] double draw_interval_s(SlotIndex slot, bool fresh_slot,
                                       sim::Rng& rng) const;

  ArrivalProfile profile_;
  std::vector<std::unique_ptr<sim::Distribution>> lengths_per_slot_;
  IntervalJitter jitter_;
  bool has_live_slots_;
  bool fresh_slot_{true};
  sim::TimePoint cursor_{sim::TimePoint::zero()};
  std::optional<Contact> previous_{};
};

/// Materialise a process over [0, horizon). Contacts whose arrival falls
/// before the horizon are included even if they end after it.
[[nodiscard]] std::vector<Contact> materialize(ContactProcess& process,
                                               sim::Duration horizon,
                                               sim::Rng& rng);

}  // namespace snipr::contact
