#include "snipr/core/snip_rh.hpp"

#include <gtest/gtest.h>

namespace snipr::core {
namespace {

using node::ProbedContactObservation;
using node::SensorContext;
using sim::Duration;
using sim::TimePoint;

SnipRhConfig default_config() { return SnipRhConfig{}; }

SensorContext make_ctx(double hours, double buffer_bytes = 1e6,
                       Duration used = Duration::zero(),
                       Duration limit = Duration::max()) {
  SensorContext ctx;
  ctx.now = TimePoint::zero() + Duration::seconds(hours * 3600.0);
  ctx.buffer_bytes = buffer_bytes;
  ctx.budget_used = used;
  ctx.budget_limit = limit;
  return ctx;
}

TEST(SnipRh, ProbesInsideRushHoursWithKneeDuty) {
  SnipRh rh{RushHourMask::from_hours({7, 8, 17, 18}), default_config()};
  const auto d = rh.on_wakeup(make_ctx(7.5));
  EXPECT_TRUE(d.probe);
  // d_rh = 0.02/2.0 = 0.01 -> Tcycle = 2 s (initial estimate 2 s).
  EXPECT_EQ(d.next_wakeup, Duration::seconds(2));
  EXPECT_DOUBLE_EQ(rh.duty(), 0.01);
}

TEST(SnipRh, ConditionOneSleepsUntilNextRushSlot) {
  SnipRh rh{RushHourMask::from_hours({7, 8, 17, 18}), default_config()};
  const auto d = rh.on_wakeup(make_ctx(10.0));
  EXPECT_FALSE(d.probe);
  EXPECT_EQ(d.next_wakeup, Duration::hours(7));  // 10:00 -> 17:00
}

TEST(SnipRh, ConditionTwoRequiresBufferedData) {
  SnipRh rh{RushHourMask::from_hours({7}), default_config()};
  const auto d = rh.on_wakeup(make_ctx(7.5, /*buffer_bytes=*/0.0));
  EXPECT_FALSE(d.probe);
  EXPECT_GT(d.next_wakeup, Duration::zero());
}

TEST(SnipRh, ConditionTwoThresholdTracksUploads) {
  SnipRh rh{RushHourMask::from_hours({7}), default_config()};
  // Teach it that a probed contact uploads ~5000 bytes.
  ProbedContactObservation obs;
  obs.probe_time = TimePoint::zero() + Duration::hours(7);
  obs.observed_probed_len = Duration::seconds(1.5);
  obs.bytes_uploaded = 5000.0;
  obs.cycle_at_probe = Duration::seconds(2);
  obs.saw_departure = true;
  for (int i = 0; i < 50; ++i) rh.on_contact_probed(obs);
  EXPECT_NEAR(rh.upload_threshold_bytes(), 5000.0, 50.0);
  // 1000 buffered bytes is no longer enough.
  EXPECT_FALSE(rh.on_wakeup(make_ctx(7.5, 1000.0)).probe);
  EXPECT_TRUE(rh.on_wakeup(make_ctx(7.5, 6000.0)).probe);
}

TEST(SnipRh, ConditionThreeSleepsToEpochEnd) {
  SnipRh rh{RushHourMask::from_hours({7}), default_config()};
  const auto d = rh.on_wakeup(make_ctx(7.5, 1e6, Duration::seconds(86),
                                       Duration::seconds(86)));
  EXPECT_FALSE(d.probe);
  EXPECT_EQ(d.next_wakeup, Duration::seconds(16.5 * 3600.0));
}

TEST(SnipRh, HeadCorrectionReconstructsContactLength) {
  // Observed Tprobed 1.5 s at Tcycle 1 s -> sample 2.0 s.
  SnipRhConfig cfg = default_config();
  cfg.length_ewma_weight = 1.0;  // adopt the sample immediately
  SnipRh rh{RushHourMask::from_hours({7}), cfg};
  ProbedContactObservation obs;
  obs.observed_probed_len = Duration::seconds(1.5);
  obs.cycle_at_probe = Duration::seconds(1);
  obs.bytes_uploaded = 100.0;
  obs.saw_departure = true;
  rh.on_contact_probed(obs);
  EXPECT_DOUBLE_EQ(rh.tcontact_estimate_s(), 2.0);
  EXPECT_DOUBLE_EQ(rh.duty(), 0.01);
}

TEST(SnipRh, WithoutHeadCorrectionEstimateIsRawProbedLength) {
  SnipRhConfig cfg = default_config();
  cfg.head_correction = false;
  cfg.length_ewma_weight = 1.0;
  SnipRh rh{RushHourMask::from_hours({7}), cfg};
  ProbedContactObservation obs;
  obs.observed_probed_len = Duration::seconds(1.5);
  obs.cycle_at_probe = Duration::seconds(1);
  obs.saw_departure = true;
  rh.on_contact_probed(obs);
  EXPECT_DOUBLE_EQ(rh.tcontact_estimate_s(), 1.5);
}

TEST(SnipRh, TruncatedObservationsSkippedByDefault) {
  SnipRhConfig cfg = default_config();
  cfg.length_ewma_weight = 1.0;
  SnipRh rh{RushHourMask::from_hours({7}), cfg};
  ProbedContactObservation obs;
  obs.observed_probed_len = Duration::seconds(0.1);  // buffer drained early
  obs.cycle_at_probe = Duration::seconds(1);
  obs.bytes_uploaded = 42.0;
  obs.saw_departure = false;
  rh.on_contact_probed(obs);
  // Length estimate untouched (still the 2 s prior)...
  EXPECT_DOUBLE_EQ(rh.tcontact_estimate_s(), 2.0);
  // ...but the upload EWMA still learned.
  EXPECT_NEAR(rh.upload_threshold_bytes(), 42.0, 1e-9);
}

TEST(SnipRh, DutyClampsForTinyEstimates) {
  // A 5 ms contact estimate would need duty 4 > 1: clamp to 1.
  SnipRhConfig cfg = default_config();
  cfg.initial_tcontact_s = 0.005;
  SnipRh rh{RushHourMask::from_hours({7}), cfg};
  EXPECT_DOUBLE_EQ(rh.duty(), 1.0);
  const auto d = rh.on_wakeup(make_ctx(7.5));
  EXPECT_TRUE(d.probe);
  EXPECT_GE(d.next_wakeup, cfg.ton);  // never wake faster than Ton
}

TEST(SnipRh, SetMaskReplacesRushHours) {
  SnipRh rh{RushHourMask::from_hours({7}), default_config()};
  EXPECT_TRUE(rh.on_wakeup(make_ctx(7.5)).probe);
  rh.set_mask(RushHourMask::from_hours({12}));
  EXPECT_FALSE(rh.on_wakeup(make_ctx(7.5)).probe);
  EXPECT_TRUE(rh.on_wakeup(make_ctx(12.5)).probe);
}

TEST(SnipRh, AllZeroMaskNeverProbes) {
  SnipRh rh{RushHourMask{Duration::hours(24), 24}, default_config()};
  const auto d = rh.on_wakeup(make_ctx(7.5));
  EXPECT_FALSE(d.probe);
  EXPECT_EQ(d.next_wakeup, Duration::hours(24));
}

TEST(SnipRh, Validation) {
  SnipRhConfig bad = default_config();
  bad.ton = Duration::zero();
  EXPECT_THROW(SnipRh(RushHourMask::from_hours({7}), bad),
               std::invalid_argument);
  SnipRhConfig bad2 = default_config();
  bad2.initial_tcontact_s = 0.0;
  EXPECT_THROW(SnipRh(RushHourMask::from_hours({7}), bad2),
               std::invalid_argument);
  SnipRhConfig bad3 = default_config();
  bad3.length_ewma_weight = 0.0;
  EXPECT_THROW(SnipRh(RushHourMask::from_hours({7}), bad3),
               std::invalid_argument);
}

TEST(SnipRh, NameIsStable) {
  SnipRh rh{RushHourMask::from_hours({7}), default_config()};
  EXPECT_EQ(rh.name(), "SNIP-RH");
}

}  // namespace
}  // namespace snipr::core
