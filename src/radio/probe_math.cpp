#include "snipr/radio/probe_math.hpp"

namespace snipr::radio {
namespace {

/// First multiple of `step` at or after `t`, offset by `phase`.
sim::TimePoint first_grid_point_at_or_after(sim::TimePoint t,
                                            sim::Duration step,
                                            sim::Duration phase) {
  const std::int64_t rel = t.count() - phase.count();
  const std::int64_t q = rel <= 0 ? 0 : (rel + step.count() - 1) / step.count();
  return sim::TimePoint::at(phase + step * q);
}

}  // namespace

std::optional<sim::TimePoint> snip_awareness_time(const contact::Contact& c,
                                                  sim::Duration tcycle,
                                                  sim::Duration ton,
                                                  const LinkParams& link,
                                                  sim::Duration phase) {
  const sim::Duration exchange = link.beacon_airtime + link.reply_airtime;
  if (exchange > ton) return std::nullopt;  // reply can never fit in Ton
  // First wakeup inside the contact with room for the full exchange.
  const sim::TimePoint w =
      first_grid_point_at_or_after(c.arrival, tcycle, phase);
  if (w + exchange > c.departure()) return std::nullopt;
  return w + exchange;
}

std::optional<sim::TimePoint> mip_awareness_time(
    const contact::Contact& c, sim::Duration tcycle, sim::Duration ton,
    const LinkParams& link, sim::Duration beacon_period,
    sim::Duration phase) {
  if (link.beacon_airtime > ton) return std::nullopt;
  // Walk the mobile node's beacons; the count is bounded by the contact
  // length over the beacon period.
  for (sim::TimePoint b = c.arrival; b + link.beacon_airtime <= c.departure();
       b += beacon_period) {
    // Listen window containing b: w <= b with w = grid point.
    const sim::TimePoint after =
        first_grid_point_at_or_after(b, tcycle, phase);
    const sim::TimePoint window_start =
        after == b ? after : after - tcycle;
    if (b >= window_start && b + link.beacon_airtime <= window_start + ton) {
      return b + link.beacon_airtime;
    }
  }
  return std::nullopt;
}

sim::Duration probed_capacity(const contact::Contact& c,
                              std::optional<sim::TimePoint> awareness) {
  if (!awareness.has_value() || *awareness >= c.departure()) {
    return sim::Duration::zero();
  }
  return c.departure() - *awareness;
}

}  // namespace snipr::radio
