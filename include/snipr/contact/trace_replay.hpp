#pragma once

#include <cstddef>
#include <vector>

#include "snipr/contact/contact.hpp"
#include "snipr/contact/process.hpp"
#include "snipr/sim/rng.hpp"
#include "snipr/sim/time.hpp"

/// \file trace_replay.hpp
/// Trace replay as a first-class ContactProcess.
///
/// Played back once, a recorded contact list is a dead end for the
/// simulator: a three-day CRAWDAD/ONE trace cannot drive a two-week
/// experiment, every node of a fleet would see the identical stream, and
/// day-to-day variation is lost. `TraceReplayProcess` closes that gap:
///
///  - **Epoch tiling**: with `period > 0` the trace loops forever. The
///    tiling span is `period` rounded up to cover the whole trace, so a
///    3-day trace tiled with a 24 h period repeats every 3 days and every
///    repetition keeps its slot phase (rush hours stay at rush hour).
///  - **Phase rotation**: `offset` rotates the replay within the span
///    (modulo the span when tiling), so fleet node i can replay "the same
///    day, seen i x stagger later" — a different slice of one trace per
///    node instead of one shared flow.
///  - **Per-contact jitter**: `jitter_stddev_s > 0` perturbs every
///    arrival with a normal draw from the caller's Rng, modelling
///    day-to-day variation across repetitions. Draws are consumed in
///    emission order, so a fixed Rng stream reproduces the stream bit
///    for bit.
///
/// Emitted contacts are always sorted by arrival and never overlap (a
/// jittered arrival is pushed to the previous departure, matching the
/// one-mobile-at-a-time channel model every other process honours), so a
/// replayed trace runs through ContactSchedule, the sensor node and every
/// scheduler unchanged.

namespace snipr::contact {

struct TraceReplayConfig {
  /// Tiling period. Zero replays the trace once; positive tiles forever
  /// with a span of ceil(trace_end / period) * period.
  sim::Duration period{};
  /// Phase shift applied to every arrival: a plain delay when not tiling,
  /// a rotation modulo the span when tiling (contacts wrapping past the
  /// span end are clipped to it).
  sim::Duration offset{};
  /// Stddev (seconds) of the per-contact normal arrival jitter; 0 = exact
  /// replay, no Rng draws at all.
  double jitter_stddev_s{0.0};
};

/// Replays a recorded contact sequence with optional epoch tiling, phase
/// rotation and per-contact jitter.
class TraceReplayProcess final : public ContactProcess {
 public:
  /// \param base contacts sorted by arrival with positive lengths (what
  ///        trace IO, the ONE importer and the generators all produce);
  ///        throws std::invalid_argument otherwise.
  explicit TraceReplayProcess(std::vector<Contact> base,
                              TraceReplayConfig config = {});

  [[nodiscard]] std::optional<Contact> next(sim::Rng& rng) override;

  /// Number of contacts in one pass of the (rotated) base trace.
  [[nodiscard]] std::size_t size() const noexcept { return base_.size(); }
  /// Tiling span actually in use (zero when not tiling).
  [[nodiscard]] sim::Duration span() const noexcept { return span_; }

 private:
  std::vector<Contact> base_;
  sim::Duration span_{};  // zero = one-shot
  double jitter_stddev_s_;
  std::size_t cursor_{0};
  std::int64_t repetition_{0};
  sim::TimePoint last_departure_{sim::TimePoint::zero()};
};

}  // namespace snipr::contact
