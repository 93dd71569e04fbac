#include <gtest/gtest.h>

#include "snipr/contact/process.hpp"
#include "snipr/contact/schedule.hpp"

/// Parameterised invariants of contact processes: every generator, over a
/// sweep of profiles and seeds, must produce sorted, non-overlapping,
/// slot-consistent contact streams.

namespace snipr::contact {
namespace {

using sim::Duration;

struct ProcessCase {
  const char* name;
  double rush_interval_s;
  double other_interval_s;
  double tcontact_s;
  std::uint64_t seed;
};

void PrintTo(const ProcessCase& c, std::ostream* os) { *os << c.name; }

ArrivalProfile make_profile(const ProcessCase& c) {
  std::vector<double> intervals(24, c.other_interval_s);
  for (const std::size_t rush : {7U, 8U, 17U, 18U}) {
    intervals[rush] = c.rush_interval_s;
  }
  return ArrivalProfile{Duration::hours(24), std::move(intervals)};
}

class ProcessInvariants : public ::testing::TestWithParam<ProcessCase> {};

TEST_P(ProcessInvariants, IntervalProcessInvariants) {
  const ProcessCase& c = GetParam();
  IntervalContactProcess p{
      make_profile(c), std::make_unique<sim::FixedDistribution>(c.tcontact_s),
      IntervalJitter::kNormalTenth};
  sim::Rng rng{c.seed};
  const auto contacts = materialize(p, Duration::hours(24) * 7, rng);
  ASSERT_FALSE(contacts.empty());
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    EXPECT_GT(contacts[i].length, Duration::zero());
    if (i > 0) {
      EXPECT_GE(contacts[i].arrival, contacts[i - 1].departure());
    }
  }
  // Materialised streams always form a valid schedule.
  EXPECT_NO_THROW(ContactSchedule{contacts});
}

TEST_P(ProcessInvariants, RushSlotsDominateOffPeak) {
  const ProcessCase& c = GetParam();
  const ArrivalProfile profile = make_profile(c);
  IntervalContactProcess p{
      profile, std::make_unique<sim::FixedDistribution>(c.tcontact_s),
      IntervalJitter::kNormalTenth};
  sim::Rng rng{c.seed};
  std::vector<std::size_t> counts(profile.slot_count(), 0);
  for (const Contact& contact : materialize(p, Duration::hours(24) * 14, rng)) {
    ++counts[profile.slot_of(contact.arrival)];
  }
  const double expected_ratio = c.other_interval_s / c.rush_interval_s;
  if (expected_ratio > 1.5) {
    const auto rush = static_cast<double>(counts[7] + counts[8]);
    const auto off = static_cast<double>(counts[0] + counts[1]);
    EXPECT_GT(rush, off * 1.2);
  }
}

TEST_P(ProcessInvariants, PerDayCountsNearExpectation) {
  const ProcessCase& c = GetParam();
  const ArrivalProfile profile = make_profile(c);
  IntervalContactProcess p{
      profile, std::make_unique<sim::FixedDistribution>(c.tcontact_s),
      IntervalJitter::kNormalTenth};
  sim::Rng rng{c.seed};
  const auto contacts = materialize(p, Duration::hours(24) * 14, rng);
  const double per_day = static_cast<double>(contacts.size()) / 14.0;
  const double expected = profile.expected_contacts_per_epoch();
  // Renewal restart loses at most ~0.5 contact per live slot per day.
  EXPECT_GT(per_day, expected - 13.0);
  EXPECT_LT(per_day, expected + 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProcessInvariants,
    ::testing::Values(
        ProcessCase{"paper_roadside", 300.0, 1800.0, 2.0, 1},
        ProcessCase{"dense_urban", 60.0, 600.0, 1.0, 2},
        ProcessCase{"sparse_rural", 1200.0, 7200.0, 5.0, 3},
        ProcessCase{"mild_peaks", 900.0, 1800.0, 2.0, 4},
        ProcessCase{"long_contacts", 600.0, 3600.0, 30.0, 5}),
    [](const ::testing::TestParamInfo<ProcessCase>& param_info) {
      return std::string{param_info.param.name};
    });

}  // namespace
}  // namespace snipr::contact
