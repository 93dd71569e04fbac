#include "snipr/node/data_buffer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace snipr::node {

FluidBuffer::FluidBuffer(double rate_bps) : rate_bps_{rate_bps} {
  if (!(std::isfinite(rate_bps) && rate_bps >= 0.0)) {
    throw std::invalid_argument("FluidBuffer: rate must be finite and >= 0");
  }
}

double FluidBuffer::produced(sim::TimePoint t) const noexcept {
  return rate_bps_ * t.to_seconds();
}

double FluidBuffer::available(sim::TimePoint t) const noexcept {
  return std::max(0.0, produced(t) - uploaded_);
}

double FluidBuffer::take(sim::TimePoint t, double amount) noexcept {
  const double granted = std::clamp(amount, 0.0, available(t));
  if (granted > 0.0 && rate_bps_ > 0.0) {
    const double mean_gen_time_s = (uploaded_ + granted / 2.0) / rate_bps_;
    latency_byteseconds_ += granted * (t.to_seconds() - mean_gen_time_s);
  }
  uploaded_ += granted;
  return granted;
}

double FluidBuffer::mean_delivery_latency_s() const noexcept {
  return uploaded_ > 0.0 ? latency_byteseconds_ / uploaded_ : 0.0;
}

namespace {
// Fluid amounts below this are rounding residue, not data: comparisons
// against capacity and zero use it so a 1e-16 sliver neither spawns a
// degenerate parcel nor blocks an exactly-full boundary transfer.
constexpr double kSliverBytes = 1e-9;
}  // namespace

StoreBuffer::StoreBuffer(double capacity_bytes, StoreDropPolicy policy)
    : capacity_{capacity_bytes}, policy_{policy} {
  if (capacity_bytes < 0.0 || std::isnan(capacity_bytes)) {
    throw std::invalid_argument("StoreBuffer: capacity must be >= 0");
  }
}

void StoreBuffer::advance(double t_s) {
  if (t_s < last_t_s_) return;  // same-instant event cascades
  occupancy_integral_ += level_ * (t_s - last_t_s_);
  last_t_s_ = t_s;
}

double StoreBuffer::mean_level(double t_s) const noexcept {
  if (t_s <= 0.0) return 0.0;
  // Integral up to last_t_s_ plus the flat tail to t_s.
  const double tail = level_ * std::max(0.0, t_s - last_t_s_);
  return (occupancy_integral_ + tail) / t_s;
}

double StoreBuffer::accrue(double t0_s, double t1_s, double rate_bps,
                           std::uint32_t origin, double ttl_s) {
  advance(t0_s);
  const double offered = rate_bps * std::max(0.0, t1_s - t0_s);
  if (offered <= 0.0) {
    advance(t1_s);
    return 0.0;
  }
  const double free =
      bounded() ? std::max(0.0, capacity_ - level_) : offered;
  double accepted = offered;
  double dropped = 0.0;
  if (policy_ == StoreDropPolicy::kTailDrop) {
    accepted = std::min(offered, free);
    dropped = offered - accepted;
  } else if (offered > free) {
    // kOldestFirst: accept everything, evict from the front to fit.
    double need = offered - free;
    while (need > kSliverBytes && !parcels_.empty()) {
      Parcel& oldest = parcels_.front();
      const double evict = std::min(oldest.bytes, need);
      const double fraction = evict / oldest.bytes;
      oldest.gen_start_s += (oldest.gen_end_s - oldest.gen_start_s) * fraction;
      oldest.bytes -= evict;
      level_ -= evict;
      dropped += evict;
      need -= evict;
      if (oldest.bytes <= kSliverBytes) {
        level_ -= oldest.bytes;
        dropped += oldest.bytes;
        parcels_.pop_front();
      }
    }
    // A zero-capacity store has no backlog to evict: the incoming fluid
    // itself spills (identically to tail-drop).
    if (need > 0.0) {
      accepted = offered - need;
      dropped += need;
    }
  }
  // Occupancy between t0 and t1 is exact for either policy: the level
  // ramps at `rate_bps` until the store fills (tail-drop stops
  // accepting, oldest-first evicts at the same rate it accrues), then
  // holds flat at capacity.
  const double dt = t1_s - t0_s;
  const double ramp_s =
      rate_bps > 0.0 ? std::min(dt, std::max(0.0, free) / rate_bps) : dt;
  occupancy_integral_ += level_ * dt +
                         rate_bps * ramp_s * ramp_s / 2.0 +
                         rate_bps * ramp_s * (dt - ramp_s);
  last_t_s_ = t1_s;

  if (accepted > kSliverBytes) {
    Parcel parcel;
    parcel.origin = origin;
    parcel.bytes = accepted;
    if (policy_ == StoreDropPolicy::kOldestFirst) {
      // The kept sub-interval is the newest data sensed.
      parcel.gen_start_s = t1_s - accepted / rate_bps;
      parcel.gen_end_s = t1_s;
    } else {
      parcel.gen_start_s = t0_s;
      parcel.gen_end_s = t0_s + accepted / rate_bps;
    }
    parcel.deadline_s = std::isinf(ttl_s)
                            ? std::numeric_limits<double>::infinity()
                            : parcel.gen_start_s + ttl_s;
    parcels_.push_back(parcel);
    level_ += accepted;
  } else {
    dropped += accepted;
  }
  max_level_ = std::max(max_level_, level_);
  dropped_ += dropped;
  return dropped;
}

double StoreBuffer::deposit(double t_s, std::vector<Parcel>& cargo,
                            double max_bytes) {
  advance(t_s);
  double budget = max_bytes;
  if (bounded()) budget = std::min(budget, capacity_ - level_);
  double accepted = 0.0;
  std::size_t fully_moved = 0;
  for (Parcel& p : cargo) {
    if (budget <= kSliverBytes) break;
    const double grant = std::min(p.bytes, budget);
    Parcel stored = p;
    ++stored.hops;  // a deposit is a custody transfer
    stored.bytes = grant;
    if (grant + kSliverBytes < p.bytes) {
      // Split: the store keeps the older generation sub-interval, the
      // carrier the newer remainder.
      const double fraction = grant / p.bytes;
      stored.gen_end_s =
          p.gen_start_s + (p.gen_end_s - p.gen_start_s) * fraction;
      p.gen_start_s = stored.gen_end_s;
      p.bytes -= grant;
    } else {
      stored.bytes = p.bytes;  // absorb the sliver remainder whole
      ++fully_moved;
    }
    parcels_.push_back(stored);
    level_ += stored.bytes;
    accepted += stored.bytes;
    budget -= stored.bytes;
  }
  cargo.erase(cargo.begin(),
              cargo.begin() + static_cast<std::ptrdiff_t>(fully_moved));
  max_level_ = std::max(max_level_, level_);
  return accepted;
}

double StoreBuffer::take(double t_s, double max_bytes,
                         std::vector<Parcel>& out) {
  advance(t_s);
  double budget = max_bytes;
  double taken = 0.0;
  while (budget > kSliverBytes && !parcels_.empty()) {
    Parcel& front = parcels_.front();
    if (front.bytes <= budget + kSliverBytes) {
      taken += front.bytes;
      budget -= front.bytes;
      level_ -= front.bytes;
      out.push_back(front);
      parcels_.pop_front();
    } else {
      Parcel part = front;
      part.bytes = budget;
      const double fraction = budget / front.bytes;
      part.gen_end_s =
          front.gen_start_s + (front.gen_end_s - front.gen_start_s) * fraction;
      front.gen_start_s = part.gen_end_s;
      front.bytes -= budget;
      level_ -= budget;
      taken += budget;
      out.push_back(part);
      budget = 0.0;
    }
  }
  if (level_ < 0.0) level_ = 0.0;
  return taken;
}

double StoreBuffer::expire(double t_s) {
  advance(t_s);
  double expired = 0.0;
  for (auto it = parcels_.begin(); it != parcels_.end();) {
    if (it->deadline_s < t_s) {
      expired += it->bytes;
      level_ -= it->bytes;
      it = parcels_.erase(it);
    } else {
      ++it;
    }
  }
  if (level_ < 0.0) level_ = 0.0;
  return expired;
}

}  // namespace snipr::node
