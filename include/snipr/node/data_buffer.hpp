#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "snipr/sim/time.hpp"

/// \file data_buffer.hpp
/// Fluid sensing buffers.
///
/// The paper's workload is constant-rate sensing ("the sensed data is
/// generated with a constant rate derived from ζtarget", Sec. VII-A.2), so
/// the buffer level is the closed form  rate·t − uploaded  and needs no
/// per-sample events. Amounts are fractional bytes (fluid model); the
/// harness reports whole-byte totals.
///
/// Two buffers share the fluid model: FluidBuffer (the classic unbounded
/// per-node sensing buffer the probing layer drains) and StoreBuffer (a
/// capacity-bounded FIFO *parcel* store for store-and-forward collection,
/// where provenance — origin node, generation interval, hop count,
/// deadline — must survive custody transfers).

namespace snipr::node {

class FluidBuffer {
 public:
  /// \param rate_bps data generation rate in bytes/second (finite,
  /// >= 0).
  explicit FluidBuffer(double rate_bps);

  [[nodiscard]] double rate_bps() const noexcept { return rate_bps_; }

  /// Bytes generated since t=0.
  [[nodiscard]] double produced(sim::TimePoint t) const noexcept;
  /// Bytes currently buffered (produced − uploaded).
  [[nodiscard]] double available(sim::TimePoint t) const noexcept;
  /// Bytes uploaded so far.
  [[nodiscard]] double uploaded() const noexcept { return uploaded_; }

  /// Remove up to `amount` bytes at time `t`; returns the amount actually
  /// taken (bounded by availability).
  double take(sim::TimePoint t, double amount) noexcept;

  /// Mean delivery latency (upload time − generation time) over all bytes
  /// uploaded so far, seconds. Exact for the FIFO fluid model: a take of
  /// `b` bytes at time T drains generation interval
  /// [uploaded/rate, (uploaded+b)/rate], whose mean age is
  /// T − (uploaded + b/2)/rate. Zero before any upload.
  [[nodiscard]] double mean_delivery_latency_s() const noexcept;

 private:
  double rate_bps_;
  double uploaded_{0.0};
  double latency_byteseconds_{0.0};
};

/// A contiguous chunk of sensed fluid data in custody somewhere in the
/// network. The generation interval is carried instead of a single
/// timestamp so end-to-end latency statistics stay exact under the fluid
/// model: a parcel delivered at T contributes a *uniform* latency segment
/// [T − gen_end_s, T − gen_start_s] weighted by its bytes.
struct Parcel {
  std::uint32_t origin{0};  ///< node index that sensed the data
  double bytes{0.0};
  double gen_start_s{0.0};  ///< generation interval (uniform density)
  double gen_end_s{0.0};
  std::uint16_t hops{0};  ///< custody transfers so far
  /// Absolute delivery deadline, seconds; +inf = none.
  double deadline_s{std::numeric_limits<double>::infinity()};
};

/// What a full StoreBuffer does with newly sensed fluid.
enum class StoreDropPolicy : std::uint8_t {
  kTailDrop,     ///< refuse the newest incoming fluid
  kOldestFirst,  ///< evict the oldest buffered parcels
};

/// Capacity-bounded FIFO parcel store — a node's sensed-data holding pen
/// in the store-and-forward collection pass. Sensed fluid accrues as a
/// linear ramp between custody events (`accrue`); vehicles remove
/// oldest-first (`take`) and deposit cargo (`deposit`, bounded by free
/// space — the carrier keeps what does not fit, so deposits never drop).
/// Occupancy statistics are exact: the level is piecewise linear (ramps
/// under accrual, steps at transfers) and the integral of each piece is
/// accumulated in closed form.
class StoreBuffer {
 public:
  /// \param capacity_bytes store capacity; +inf = unbounded, 0 = a store
  ///        that drops everything it is offered (the degenerate edge the
  ///        tests pin — distinct from RoutingSpec's "0 = unlimited"
  ///        convenience, which the collection pass maps to +inf here).
  explicit StoreBuffer(double capacity_bytes, StoreDropPolicy policy);

  [[nodiscard]] double capacity_bytes() const noexcept { return capacity_; }
  [[nodiscard]] double level() const noexcept { return level_; }
  [[nodiscard]] double dropped_bytes() const noexcept { return dropped_; }
  [[nodiscard]] double max_level() const noexcept { return max_level_; }
  [[nodiscard]] std::size_t parcel_count() const noexcept {
    return parcels_.size();
  }

  /// Sensed fluid generated uniformly over [t0, t1] at `rate_bps`,
  /// appended as one parcel from `origin`. Overflow follows the drop
  /// policy: kTailDrop accepts only the earliest-generated prefix that
  /// fits (the data sensed *after* the store filled is the data lost);
  /// kOldestFirst evicts from the front — and when the incoming span
  /// itself exceeds what eviction can free, keeps its *newest*
  /// sub-interval (oldest-first discards old data, never fresh). The
  /// stored parcel's deadline is its generation start plus `ttl_s`
  /// (+inf = never expires), so a truncated parcel's deadline tracks
  /// the data actually kept. Returns bytes dropped. Times must not run
  /// backwards.
  double accrue(double t0_s, double t1_s, double rate_bps,
                std::uint32_t origin,
                double ttl_s = std::numeric_limits<double>::infinity());

  /// Vehicle deposit at time `t_s`: parcels move in FIFO order, bounded
  /// by free space (a parcel may split; the untransferred remainder is
  /// written back to `cargo`). Stored parcels record the custody
  /// transfer (hops + 1). Returns bytes accepted.
  double deposit(double t_s, std::vector<Parcel>& cargo, double max_bytes);

  /// Remove up to `max_bytes`, oldest first, at time `t_s`; split
  /// parcels keep the older generation sub-interval. Appends the removed
  /// parcels to `out` and returns bytes taken.
  double take(double t_s, double max_bytes, std::vector<Parcel>& out);

  /// Drop every buffered parcel whose deadline has passed at `t_s`;
  /// returns bytes expired. (Expiry is lazy — called at custody events.)
  double expire(double t_s);

  /// Advance the occupancy integral to `t_s` with the level flat (no
  /// accrual), e.g. before reading statistics at the horizon.
  void advance(double t_s);

  /// Time-weighted mean level over [0, t_s].
  [[nodiscard]] double mean_level(double t_s) const noexcept;

  [[nodiscard]] const std::deque<Parcel>& parcels() const noexcept {
    return parcels_;
  }

 private:
  [[nodiscard]] bool bounded() const noexcept {
    return capacity_ < std::numeric_limits<double>::infinity();
  }

  double capacity_;
  StoreDropPolicy policy_;
  std::deque<Parcel> parcels_;
  double level_{0.0};
  double max_level_{0.0};
  double dropped_{0.0};
  double last_t_s_{0.0};
  double occupancy_integral_{0.0};  ///< ∫ level dt, byte·seconds
};

}  // namespace snipr::node
