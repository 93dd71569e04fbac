#include "snipr/node/data_buffer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace snipr::node {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) { return TimePoint::zero() + Duration::seconds(s); }

TEST(FluidBuffer, ProducesAtConstantRate) {
  const FluidBuffer b{2.0};
  EXPECT_DOUBLE_EQ(b.produced(at_s(0)), 0.0);
  EXPECT_DOUBLE_EQ(b.produced(at_s(10)), 20.0);
  EXPECT_DOUBLE_EQ(b.available(at_s(10)), 20.0);
}

TEST(FluidBuffer, TakeReducesAvailability) {
  FluidBuffer b{1.0};
  EXPECT_DOUBLE_EQ(b.take(at_s(10), 4.0), 4.0);
  EXPECT_DOUBLE_EQ(b.available(at_s(10)), 6.0);
  EXPECT_DOUBLE_EQ(b.uploaded(), 4.0);
}

TEST(FluidBuffer, TakeClampsToAvailable) {
  FluidBuffer b{1.0};
  EXPECT_DOUBLE_EQ(b.take(at_s(5), 100.0), 5.0);
  EXPECT_DOUBLE_EQ(b.available(at_s(5)), 0.0);
}

TEST(FluidBuffer, TakeNegativeIsZero) {
  FluidBuffer b{1.0};
  EXPECT_DOUBLE_EQ(b.take(at_s(5), -3.0), 0.0);
  EXPECT_DOUBLE_EQ(b.uploaded(), 0.0);
}

TEST(FluidBuffer, AvailabilityRefillsAfterDrain) {
  FluidBuffer b{2.0};
  (void)b.take(at_s(10), 20.0);
  EXPECT_DOUBLE_EQ(b.available(at_s(10)), 0.0);
  EXPECT_DOUBLE_EQ(b.available(at_s(15)), 10.0);
}

TEST(FluidBuffer, ZeroRateNeverAccumulates) {
  FluidBuffer b{0.0};
  EXPECT_DOUBLE_EQ(b.available(at_s(1000)), 0.0);
  EXPECT_DOUBLE_EQ(b.take(at_s(1000), 5.0), 0.0);
}

TEST(FluidBuffer, NegativeOrNonFiniteRateThrows) {
  EXPECT_THROW(FluidBuffer{-1.0}, std::invalid_argument);
  EXPECT_THROW(FluidBuffer{std::numeric_limits<double>::quiet_NaN()},
               std::invalid_argument);
  EXPECT_THROW(FluidBuffer{std::numeric_limits<double>::infinity()},
               std::invalid_argument);
}

TEST(FluidBuffer, LatencyOfSingleTakeIsExact) {
  // Rate 1 B/s; at t=10 take 5 bytes: they were generated over [0,5] with
  // mean age 10 − 2.5 = 7.5 s.
  FluidBuffer b{1.0};
  (void)b.take(at_s(10), 5.0);
  EXPECT_DOUBLE_EQ(b.mean_delivery_latency_s(), 7.5);
}

TEST(FluidBuffer, LatencyAveragesAcrossTakes) {
  FluidBuffer b{1.0};
  (void)b.take(at_s(10), 5.0);   // latency 7.5 over 5 bytes
  (void)b.take(at_s(20), 5.0);   // bytes from [5,10], mean age 12.5
  EXPECT_DOUBLE_EQ(b.mean_delivery_latency_s(), 10.0);
}

TEST(FluidBuffer, LatencyZeroBeforeUploads) {
  const FluidBuffer b{1.0};
  EXPECT_DOUBLE_EQ(b.mean_delivery_latency_s(), 0.0);
}

TEST(FluidBuffer, FifoDrainHasNonNegativeLatency) {
  FluidBuffer b{3.0};
  for (int t = 1; t <= 100; ++t) {
    (void)b.take(at_s(t), 2.0);
    EXPECT_GE(b.mean_delivery_latency_s(), 0.0);
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StoreBuffer, ZeroCapacityDropsEverything) {
  // Capacity 0 is a store, not unlimited (that is +inf): every byte
  // offered spills, under either policy — oldest-first has no backlog
  // to evict, so the incoming fluid itself is the victim.
  for (const StoreDropPolicy policy :
       {StoreDropPolicy::kTailDrop, StoreDropPolicy::kOldestFirst}) {
    StoreBuffer store{0.0, policy};
    EXPECT_DOUBLE_EQ(store.accrue(0.0, 10.0, 2.0, 0), 20.0);
    EXPECT_DOUBLE_EQ(store.level(), 0.0);
    EXPECT_EQ(store.parcel_count(), 0U);
    std::vector<Parcel> cargo{Parcel{.origin = 1, .bytes = 5.0}};
    EXPECT_DOUBLE_EQ(store.deposit(10.0, cargo, 5.0), 0.0);
    ASSERT_EQ(cargo.size(), 1U);  // the carrier keeps what does not fit
    EXPECT_DOUBLE_EQ(cargo[0].bytes, 5.0);
    EXPECT_DOUBLE_EQ(store.dropped_bytes(), 20.0);
  }
}

TEST(StoreBuffer, ExactlyFullPickupBoundary) {
  // A store filled to exactly its capacity must hand over exactly that
  // amount — the sliver tolerance may not strand a residue parcel, and
  // an exact-capacity take may not over-grant.
  StoreBuffer store{100.0, StoreDropPolicy::kTailDrop};
  EXPECT_DOUBLE_EQ(store.accrue(0.0, 200.0, 1.0, 3), 100.0);
  EXPECT_DOUBLE_EQ(store.level(), 100.0);
  std::vector<Parcel> out;
  EXPECT_DOUBLE_EQ(store.take(200.0, 100.0, out), 100.0);
  EXPECT_EQ(store.parcel_count(), 0U);
  EXPECT_DOUBLE_EQ(store.level(), 0.0);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_DOUBLE_EQ(out[0].bytes, 100.0);
  // Tail-drop kept the earliest-generated prefix: bytes from [0, 100].
  EXPECT_DOUBLE_EQ(out[0].gen_start_s, 0.0);
  EXPECT_DOUBLE_EQ(out[0].gen_end_s, 100.0);
  // And an exactly-full store accepts nothing more.
  (void)store.accrue(200.0, 300.0, 1.0, 3);
  std::vector<Parcel> cargo{Parcel{.bytes = 7.0}};
  EXPECT_DOUBLE_EQ(store.deposit(300.0, cargo, 7.0), 0.0);
  EXPECT_EQ(cargo.size(), 1U);
}

TEST(StoreBuffer, OldestFirstKeepsTheNewestData) {
  // 60 bytes of backlog + 100 incoming into an 80-byte store: eviction
  // frees the 60, and the still-oversized incoming parcel keeps its
  // *newest* 80-byte sub-interval (generated over [20, 100]).
  StoreBuffer store{80.0, StoreDropPolicy::kOldestFirst};
  EXPECT_DOUBLE_EQ(store.accrue(0.0, 60.0, 1.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(store.accrue(100.0, 200.0, 1.0, 0), 80.0);
  ASSERT_EQ(store.parcel_count(), 1U);
  const Parcel& kept = store.parcels().front();
  EXPECT_DOUBLE_EQ(kept.bytes, 80.0);
  EXPECT_DOUBLE_EQ(kept.gen_start_s, 120.0);
  EXPECT_DOUBLE_EQ(kept.gen_end_s, 200.0);
}

TEST(StoreBuffer, TtlDeadlineTracksTheKeptInterval) {
  // Same truncation as above, with a TTL: the deadline must be measured
  // from the generation start of the data actually kept, not from the
  // start of the (partly discarded) accrual window.
  StoreBuffer store{80.0, StoreDropPolicy::kOldestFirst};
  (void)store.accrue(100.0, 200.0, 1.0, 0, /*ttl_s=*/50.0);
  ASSERT_EQ(store.parcel_count(), 1U);
  EXPECT_DOUBLE_EQ(store.parcels().front().deadline_s, 120.0 + 50.0);
  EXPECT_DOUBLE_EQ(store.expire(169.9), 0.0);
  EXPECT_DOUBLE_EQ(store.expire(170.1), 80.0);
  EXPECT_EQ(store.parcel_count(), 0U);
}

TEST(StoreBuffer, DepositSplitsAndCountsTheHop) {
  // A 10-byte parcel into 4 bytes of free space: the store keeps the
  // older generation sub-interval with the hop recorded, the carrier
  // keeps the newer remainder with its hop count unchanged.
  StoreBuffer store{10.0, StoreDropPolicy::kTailDrop};
  (void)store.accrue(0.0, 6.0, 1.0, 0);
  std::vector<Parcel> cargo{Parcel{
      .origin = 2, .bytes = 10.0, .gen_start_s = 0.0, .gen_end_s = 10.0,
      .hops = 1}};
  EXPECT_DOUBLE_EQ(store.deposit(6.0, cargo, kInf), 4.0);
  ASSERT_EQ(store.parcel_count(), 2U);
  const Parcel& stored = store.parcels().back();
  EXPECT_EQ(stored.hops, 2);
  EXPECT_DOUBLE_EQ(stored.bytes, 4.0);
  EXPECT_DOUBLE_EQ(stored.gen_end_s, 4.0);
  ASSERT_EQ(cargo.size(), 1U);
  EXPECT_EQ(cargo[0].hops, 1);
  EXPECT_DOUBLE_EQ(cargo[0].bytes, 6.0);
  EXPECT_DOUBLE_EQ(cargo[0].gen_start_s, 4.0);
}

TEST(StoreBuffer, OccupancyIntegralIsExactForARampAndHold) {
  // Rate 1 B/s into a 50-byte store over [0, 100]: ramps for 50 s
  // (integral 1250), holds at 50 for the next 50 s (2500) — mean 37.5.
  StoreBuffer store{50.0, StoreDropPolicy::kTailDrop};
  (void)store.accrue(0.0, 100.0, 1.0, 0);
  EXPECT_NEAR(store.mean_level(100.0), 37.5, 1e-9);
  EXPECT_DOUBLE_EQ(store.max_level(), 50.0);
}

TEST(StoreBuffer, NegativeOrNanCapacityThrows) {
  EXPECT_THROW((StoreBuffer{-1.0, StoreDropPolicy::kTailDrop}),
               std::invalid_argument);
  EXPECT_THROW(
      (StoreBuffer{std::numeric_limits<double>::quiet_NaN(),
                   StoreDropPolicy::kTailDrop}),
      std::invalid_argument);
}

}  // namespace
}  // namespace snipr::node
