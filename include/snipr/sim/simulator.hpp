#pragma once

#include <cstdint>

#include "snipr/sim/event_queue.hpp"
#include "snipr/sim/rng.hpp"
#include "snipr/sim/time.hpp"

/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// This is the substrate standing in for COOJA in the paper's evaluation:
/// a deterministic event loop over a microsecond-resolution virtual clock.
/// Components (radios, nodes, contact processes) schedule callbacks; the
/// kernel fires them in timestamp order.

namespace snipr::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  explicit Simulator(std::uint64_t seed = 1);

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Deterministic random source shared by the run.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedule at an absolute time (must not be before now()).
  void schedule_at(TimePoint at, Callback fn);
  /// Schedule after a non-negative delay from now().
  void schedule_after(Duration delay, Callback fn);

  /// Run all events with timestamp <= until, then advance the clock to
  /// `until` even if idle. Returns the number of events executed.
  std::size_t run_until(TimePoint until);

  /// Execute at most `max_events` events. Returns events executed.
  std::size_t step(std::size_t max_events = 1);

  /// Live events still pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  // --- Fast-forward seam ---------------------------------------------
  // A running event callback that can prove what its own next events
  // would do (a node whose next probes must all miss) may resolve them
  // itself instead of scheduling them. It moves the clock past them and
  // has them counted as executed events, so run_until()/step() return
  // the same counts and every later event sees the same clock.

  /// Latest instant the running callback may fast-forward to: strictly
  /// before every pending event (an event scheduled later loses a tie)
  /// and within the running run_until()/step() bound. now() when no
  /// callback is running.
  [[nodiscard]] TimePoint fast_forward_limit() const;

  /// Events the running run_until()/step() may still execute after the
  /// current one; 0 when no callback is running.
  [[nodiscard]] std::size_t fast_forward_budget() const noexcept {
    return executed_ < max_events_ ? max_events_ - executed_ - 1 : 0;
  }

  /// Count `events` events the running callback resolved itself, the
  /// last of them at `to`, and move the clock there. Throws
  /// std::logic_error when `to` lies before now() or beyond
  /// fast_forward_limit(), or `events` exceeds fast_forward_budget().
  void fast_forward(TimePoint to, std::size_t events);

 private:
  std::size_t drain(TimePoint limit, std::size_t max_events);

  EventQueue queue_;
  TimePoint now_{TimePoint::zero()};
  Rng rng_;
  /// The running drain's bounds and progress (zero outside a drain).
  TimePoint limit_{TimePoint::zero()};
  std::size_t max_events_{0};
  std::size_t executed_{0};
};

}  // namespace snipr::sim
