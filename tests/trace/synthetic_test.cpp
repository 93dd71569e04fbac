#include "snipr/trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "snipr/contact/schedule.hpp"
#include "snipr/trace/one_format.hpp"

namespace snipr::trace {
namespace {

using sim::Duration;

SyntheticTraceSpec small_spec() {
  SyntheticTraceSpec spec;
  std::vector<double> intervals(24, 1800.0);
  intervals[7] = 300.0;
  intervals[8] = 300.0;
  spec.profile = contact::ArrivalProfile{Duration::hours(24), intervals};
  spec.epochs = 2;
  spec.seed = 9;
  return spec;
}

TEST(SyntheticTrace, DeterministicForAFixedSpec) {
  const SyntheticTraceGenerator g{small_spec()};
  const auto a = g.generate();
  const auto b = g.generate();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
}

TEST(SyntheticTrace, DifferentSeedsDiverge) {
  SyntheticTraceSpec spec = small_spec();
  const auto a = SyntheticTraceGenerator{spec}.generate();
  spec.seed = 10;
  const auto b = SyntheticTraceGenerator{spec}.generate();
  EXPECT_NE(a, b);
}

TEST(SyntheticTrace, OutputFeedsAContactScheduleDirectly) {
  const auto contacts = SyntheticTraceGenerator{small_spec()}.generate();
  EXPECT_NO_THROW(contact::ContactSchedule{contacts});
  const auto last = contacts.back();
  EXPECT_LT(last.arrival.to_seconds(), 2 * 86400.0);
}

TEST(SyntheticTrace, DeterministicFlowMatchesThePaperCounts) {
  // kNone jitter + fixed lengths reproduce the analysis environment:
  // 3600/300 = 12 contacts per rush-hour slot (one fewer in the very
  // first slot of the trace: nothing precedes t = 0).
  SyntheticTraceSpec spec = small_spec();
  spec.jitter = contact::IntervalJitter::kNone;
  spec.tcontact_stddev_s = 0.0;
  spec.epochs = 1;
  const auto contacts = SyntheticTraceGenerator{spec}.generate();
  std::vector<std::size_t> counts(spec.profile.slot_count(), 0);
  for (const contact::Contact& c : contacts) {
    ++counts[spec.profile.slot_of(c.arrival)];
  }
  EXPECT_EQ(counts[7], 12U);
  EXPECT_EQ(counts[8], 12U);
  EXPECT_EQ(counts[3], 2U);
}

TEST(SyntheticTrace, OverhangingContactsNeverOverlapAcrossEpochs) {
  // Contact lengths comparable to the arrival intervals: epoch-boundary
  // overhangs force the cascade of arrival pushes. The output must stay
  // sorted and non-overlapping (ContactSchedule enforces both), and the
  // ONE report must re-import unchanged.
  SyntheticTraceSpec spec;
  spec.profile = contact::ArrivalProfile::uniform(Duration::hours(24), 24,
                                                  500.0);
  spec.epochs = 3;
  spec.seed = 21;
  spec.tcontact_mean_s = 400.0;
  spec.tcontact_stddev_s = 40.0;
  const auto contacts = SyntheticTraceGenerator{spec}.generate();
  ASSERT_GT(contacts.size(), 100U);
  EXPECT_NO_THROW(contact::ContactSchedule{contacts});
  std::ostringstream os;
  SyntheticTraceGenerator::write_one_report(os, "s0", contacts);
  std::istringstream is{os.str()};
  EXPECT_EQ(read_one_connectivity(is, "s0"), contacts);
}

TEST(SyntheticTrace, OneReportRoundTripsExactly) {
  const auto contacts = SyntheticTraceGenerator{small_spec()}.generate();
  std::ostringstream os;
  SyntheticTraceGenerator::write_one_report(os, "s0", contacts);
  std::istringstream is{os.str()};
  const auto reread = read_one_connectivity(is, "s0");
  EXPECT_EQ(contacts, reread);
}

TEST(SyntheticTrace, DriftRotatesThePeaksEachEpoch) {
  SyntheticTraceSpec spec = small_spec();
  spec.jitter = contact::IntervalJitter::kNone;
  spec.tcontact_stddev_s = 0.0;
  spec.epochs = 3;
  spec.drift_slots_per_epoch = 2;
  const auto contacts = SyntheticTraceGenerator{spec}.generate();
  // Count per (epoch, slot) by hand: epoch e's peaks sit at 7+2e, 8+2e.
  for (std::size_t e = 0; e < 3; ++e) {
    std::size_t in_shifted_peak = 0;
    for (const auto& c : contacts) {
      const double s =
          c.arrival.to_seconds() - 86400.0 * static_cast<double>(e);
      if (s < 0.0 || s >= 86400.0) continue;
      const auto hour = static_cast<std::size_t>(s / 3600.0);
      if (hour == 7 + 2 * e || hour == 8 + 2 * e) ++in_shifted_peak;
    }
    EXPECT_GE(in_shifted_peak, 23U) << "epoch " << e;
  }
}

TEST(SyntheticTrace, RotateProfileMovesSlotsAndWraps) {
  std::vector<double> intervals(4, 100.0);
  intervals[3] = 5.0;
  const contact::ArrivalProfile p{Duration::hours(24), intervals};
  const contact::ArrivalProfile shifted = rotate_profile(p, 2);
  EXPECT_DOUBLE_EQ(shifted.mean_interval_s(1), 5.0);  // 3 + 2 mod 4
  EXPECT_DOUBLE_EQ(shifted.mean_interval_s(3), 100.0);
  const contact::ArrivalProfile back = rotate_profile(shifted, -2);
  EXPECT_DOUBLE_EQ(back.mean_interval_s(3), 5.0);
}

TEST(SyntheticTrace, Validation) {
  SyntheticTraceSpec bad_mean = small_spec();
  bad_mean.tcontact_mean_s = 0.0;
  EXPECT_THROW((SyntheticTraceGenerator{bad_mean}), std::invalid_argument);
  SyntheticTraceSpec no_epochs = small_spec();
  no_epochs.epochs = 0;
  EXPECT_THROW((SyntheticTraceGenerator{no_epochs}), std::invalid_argument);
}

}  // namespace
}  // namespace snipr::trace
