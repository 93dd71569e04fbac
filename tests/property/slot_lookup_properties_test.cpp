/// Property test: the constant-time slot lookups (contact::SlotClock, the
/// bit-scan RushHourMask, SnipOpt's next active slot) agree exactly with
/// the slot-by-slot reference arithmetic they replaced, kept verbatim
/// below. Covered: single- and multi-word masks (1..130 slots), all-zero,
/// all-one, sparse and dense masks edited by random set() calls, and
/// times at slot starts, one microsecond either side of them, across the
/// epoch wrap and before zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "snipr/contact/profile.hpp"
#include "snipr/contact/slot_clock.hpp"
#include "snipr/core/rush_hour_mask.hpp"
#include "snipr/core/snip_opt.hpp"
#include "snipr/sim/rng.hpp"

namespace snipr {
namespace {

using sim::Duration;
using sim::TimePoint;

// --- Reference: the per-call-division arithmetic and linear scans ------

std::size_t ref_slot_of(std::int64_t t, std::int64_t epoch, std::size_t n) {
  const std::int64_t into_epoch = ((t % epoch) + epoch) % epoch;
  return static_cast<std::size_t>(into_epoch /
                                  (epoch / static_cast<std::int64_t>(n)));
}

/// First set slot strictly after t's slot, scanning one slot at a time
/// from the truncated next boundary (SnipOpt's old next_active_slot).
std::optional<std::int64_t> ref_next_after(const std::vector<bool>& bits,
                                           std::int64_t epoch, std::int64_t t) {
  const std::int64_t slot_us = epoch / static_cast<std::int64_t>(bits.size());
  std::int64_t start = (t / slot_us + 1) * slot_us;
  for (std::size_t i = 0; i <= bits.size(); ++i) {
    if (bits[ref_slot_of(start, epoch, bits.size())]) return start;
    start += slot_us;
  }
  return std::nullopt;
}

/// RushHourMask's old next_rush_start: `t` itself inside a rush slot,
/// else the scan above.
std::optional<std::int64_t> ref_next_start(const std::vector<bool>& bits,
                                           std::int64_t epoch, std::int64_t t) {
  if (bits[ref_slot_of(t, epoch, bits.size())]) return t;
  if (std::count(bits.begin(), bits.end(), true) == 0) return std::nullopt;
  return ref_next_after(bits, epoch, t);
}

// --- Case generation --------------------------------------------------

constexpr std::size_t kSlotCounts[] = {1, 24, 48, 64, 65, 130};
/// Slot lengths in µs: degenerate, odd, prime-ish, one hour.
constexpr std::int64_t kSlotLengths[] = {1, 3, 1'000'003, 3'600'000'000};

TimePoint at_us(std::int64_t us) {
  return TimePoint::at(Duration::microseconds(us));
}

std::optional<std::int64_t> us_of(std::optional<TimePoint> t) {
  if (!t.has_value()) return std::nullopt;
  return t->count();
}

/// Slot starts of the epochs around zero and one microsecond either side
/// of each, the epoch wrap several epochs out, and random times.
std::vector<std::int64_t> probe_times(std::size_t n, std::int64_t slot_us,
                                      sim::Rng& rng) {
  const std::int64_t epoch = slot_us * static_cast<std::int64_t>(n);
  std::vector<std::int64_t> times;
  const auto span = static_cast<std::int64_t>(2 * n + 1);
  for (std::int64_t k = -span; k <= span; ++k) {
    for (const std::int64_t d : {-1, 0, 1}) times.push_back(k * slot_us + d);
  }
  for (const std::int64_t e : {-3, -1, 1, 7, 13, 52}) {
    for (const std::int64_t d : {-1, 0, 1}) times.push_back(e * epoch + d);
  }
  for (int i = 0; i < 64; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    times.push_back(static_cast<std::int64_t>(u * static_cast<double>(epoch)));
  }
  return times;
}

std::vector<std::vector<bool>> masks_for(std::size_t n, sim::Rng& rng) {
  std::vector<std::vector<bool>> masks;
  masks.emplace_back(n, false);
  masks.emplace_back(n, true);
  std::vector<bool> single(n, false);
  single[rng.uniform_int(n)] = true;
  masks.push_back(single);
  for (const double p : {0.1, 0.5}) {
    std::vector<bool> bits(n, false);
    for (std::size_t s = 0; s < n; ++s) bits[s] = rng.bernoulli(p);
    masks.push_back(bits);
  }
  return masks;
}

void expect_mask_matches(const core::RushHourMask& mask,
                         const std::vector<bool>& bits,
                         const std::vector<std::int64_t>& times) {
  const std::int64_t epoch = mask.epoch().count();
  ASSERT_EQ(mask.bits(), bits);
  const auto rush = std::count(bits.begin(), bits.end(), true);
  ASSERT_EQ(mask.rush_slot_count(), static_cast<std::size_t>(rush));
  for (std::size_t s = 0; s < bits.size(); ++s) {
    ASSERT_EQ(mask.is_rush_slot(s), bits[s]) << "slot " << s;
  }
  for (const std::int64_t t : times) {
    ASSERT_EQ(mask.is_rush(at_us(t)), bits[ref_slot_of(t, epoch, bits.size())])
        << "t=" << t;
    ASSERT_EQ(us_of(mask.next_rush_start(at_us(t))),
              ref_next_start(bits, epoch, t))
        << "t=" << t;
    ASSERT_EQ(us_of(mask.next_rush_after(at_us(t))),
              ref_next_after(bits, epoch, t))
        << "t=" << t;
  }
}

TEST(SlotLookupProperties, SlotClockAndProfileMatchReference) {
  sim::Rng rng{11};
  for (const std::size_t n : kSlotCounts) {
    for (const std::int64_t slot_us : kSlotLengths) {
      const Duration epoch =
          Duration::microseconds(slot_us * static_cast<std::int64_t>(n));
      const contact::SlotClock clock{epoch, n, "test"};
      const contact::ArrivalProfile profile{epoch,
                                            std::vector<double>(n, 300.0)};
      for (const std::int64_t t : probe_times(n, slot_us, rng)) {
        const std::size_t want = ref_slot_of(t, epoch.count(), n);
        ASSERT_EQ(clock.slot_of(at_us(t)), want) << "n=" << n << " t=" << t;
        ASSERT_EQ(profile.slot_of(at_us(t)), want) << "n=" << n << " t=" << t;
      }
    }
  }
}

TEST(SlotLookupProperties, RushHourMaskMatchesReferenceScan) {
  sim::Rng rng{12};
  for (const std::size_t n : kSlotCounts) {
    for (const std::int64_t slot_us : kSlotLengths) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " slot_us=" << slot_us);
      const Duration epoch =
          Duration::microseconds(slot_us * static_cast<std::int64_t>(n));
      const std::vector<std::int64_t> times = probe_times(n, slot_us, rng);
      for (std::vector<bool> bits : masks_for(n, rng)) {
        core::RushHourMask mask{epoch, bits};
        expect_mask_matches(mask, bits, times);
        // Random edits, including no-op sets, keep the words and the
        // maintained count in step with the bitmap.
        for (int round = 0; round < 3; ++round) {
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t s = rng.uniform_int(n);
            const bool rush = rng.bernoulli(0.5);
            mask.set(s, rush);
            bits[s] = rush;
          }
          expect_mask_matches(mask, bits, times);
        }
      }
    }
  }
}

TEST(SlotLookupProperties, SnipOptNextActiveSlotMatchesReferenceScan) {
  sim::Rng rng{13};
  for (const std::size_t n : kSlotCounts) {
    for (const std::int64_t slot_us : kSlotLengths) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " slot_us=" << slot_us);
      const Duration epoch =
          Duration::microseconds(slot_us * static_cast<std::int64_t>(n));
      const std::vector<std::int64_t> times = probe_times(n, slot_us, rng);
      for (const std::vector<bool>& active : masks_for(n, rng)) {
        std::vector<double> duties(n, 0.0);
        for (std::size_t s = 0; s < n; ++s) {
          if (active[s]) duties[s] = rng.uniform(1e-6, 1.0);
        }
        const core::SnipOpt opt{duties, epoch, Duration::microseconds(1)};
        for (const std::int64_t t : times) {
          ASSERT_EQ(us_of(opt.next_active_slot(at_us(t))),
                    ref_next_after(active, epoch.count(), t))
              << "t=" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace snipr
