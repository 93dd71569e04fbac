#include "snipr/contact/trace_replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "snipr/sim/distributions.hpp"

namespace snipr::contact {
namespace {

void validate_base(const std::vector<Contact>& base) {
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!(base[i].length > sim::Duration::zero())) {
      throw std::invalid_argument(
          "TraceReplayProcess: contact lengths must be positive");
    }
    if (base[i].arrival < sim::TimePoint::zero()) {
      throw std::invalid_argument(
          "TraceReplayProcess: arrivals must be non-negative");
    }
    if (i > 0 && base[i].arrival < base[i - 1].arrival) {
      throw std::invalid_argument(
          "TraceReplayProcess: contacts must be sorted by arrival");
    }
  }
}

/// Span = period rounded up to cover the last departure (at least one
/// period), so tiling preserves the slot phase of a multi-epoch trace.
sim::Duration tiling_span(const std::vector<Contact>& base,
                          sim::Duration period) {
  std::int64_t end_us = 0;
  for (const Contact& c : base) {
    end_us = std::max(end_us, c.departure().count());
  }
  const std::int64_t period_us = period.count();
  const std::int64_t periods = std::max<std::int64_t>(
      1, (end_us + period_us - 1) / period_us);
  return sim::Duration::microseconds(periods * period_us);
}

/// Rotate `base` by `offset` modulo `span`: every arrival moves to
/// (arrival + offset) mod span, contacts that would wrap past the span
/// end are clipped to it, and the result is re-sorted. One-time O(n log n)
/// at construction so next() stays O(1).
std::vector<Contact> rotate_base(std::vector<Contact> base,
                                 sim::Duration offset, sim::Duration span) {
  const std::int64_t span_us = span.count();
  const std::int64_t shift_us =
      ((offset.count() % span_us) + span_us) % span_us;
  if (shift_us == 0) return base;
  std::vector<Contact> rotated;
  rotated.reserve(base.size());
  for (const Contact& c : base) {
    const std::int64_t arrival_us =
        (c.arrival.count() + shift_us) % span_us;
    const std::int64_t length_us =
        std::min(c.length.count(), span_us - arrival_us);
    if (length_us <= 0) continue;  // clipped away at the span end
    rotated.push_back(Contact{
        sim::TimePoint::zero() + sim::Duration::microseconds(arrival_us),
        sim::Duration::microseconds(length_us)});
  }
  std::sort(rotated.begin(), rotated.end(),
            [](const Contact& a, const Contact& b) {
              return a.arrival < b.arrival;
            });
  return rotated;
}

}  // namespace

TraceReplayProcess::TraceReplayProcess(std::vector<Contact> base,
                                       TraceReplayConfig config)
    : base_{std::move(base)}, jitter_stddev_s_{config.jitter_stddev_s} {
  validate_base(base_);
  if (config.jitter_stddev_s < 0.0) {
    throw std::invalid_argument(
        "TraceReplayProcess: jitter stddev must be >= 0");
  }
  if (config.period > sim::Duration::zero()) {
    span_ = tiling_span(base_, config.period);
    base_ = rotate_base(std::move(base_), config.offset, span_);
  } else if (config.period < sim::Duration::zero()) {
    throw std::invalid_argument("TraceReplayProcess: period must be >= 0");
  } else if (!config.offset.is_zero()) {
    // One-shot: the offset is a plain delay.
    for (Contact& c : base_) c.arrival += config.offset;
  }
}

std::optional<Contact> TraceReplayProcess::next(sim::Rng& rng) {
  if (base_.empty()) return std::nullopt;
  if (cursor_ >= base_.size()) {
    if (span_.is_zero()) return std::nullopt;  // one-shot exhausted
    cursor_ = 0;
    ++repetition_;
  }
  const Contact& b = base_[cursor_++];
  sim::TimePoint arrival = b.arrival + span_ * repetition_;
  if (jitter_stddev_s_ > 0.0) {
    arrival += sim::Duration::seconds(jitter_stddev_s_ *
                                      sim::standard_normal(rng));
  }
  // The stream must stay sorted and non-overlapping whatever the jitter
  // drew (one mobile node in range at a time, Sec. II).
  if (arrival < last_departure_) arrival = last_departure_;
  if (arrival < sim::TimePoint::zero()) arrival = sim::TimePoint::zero();
  const Contact c{arrival, b.length};
  last_departure_ = c.departure();
  return c;
}

}  // namespace snipr::contact
