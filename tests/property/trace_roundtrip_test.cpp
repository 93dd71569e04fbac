#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "snipr/trace/one_format.hpp"
#include "snipr/trace/slot_stats.hpp"
#include "snipr/trace/synthetic.hpp"

/// Property: the trace pipeline is a round trip. A trace generated from a
/// known ArrivalProfile, pushed through TraceSlotStats::estimate_profile,
/// must recover the planted rush-hour slots, and the recovered orderings
/// (observed counts vs estimated rates) must agree with each other and
/// break ties deterministically — across seeds, jitter modes, and a
/// write/re-read through the ONE report format.

namespace snipr::trace {
namespace {

constexpr std::size_t kSlots = 24;
const std::set<contact::SlotIndex> kPlantedRush{7, 8, 17, 18};

contact::ArrivalProfile planted_profile() {
  std::vector<double> intervals(kSlots, 1800.0);
  for (const contact::SlotIndex s : kPlantedRush) intervals[s] = 300.0;
  return contact::ArrivalProfile{sim::Duration::hours(24), intervals};
}

SyntheticTraceSpec spec_for(std::uint64_t seed,
                            contact::IntervalJitter jitter) {
  SyntheticTraceSpec spec;
  spec.profile = planted_profile();
  spec.epochs = 3;
  spec.seed = seed;
  spec.jitter = jitter;
  return spec;
}

struct Case {
  std::uint64_t seed;
  contact::IntervalJitter jitter;
};

class TraceRoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(TraceRoundTrip, EstimatedProfileRecoversThePlantedRushHours) {
  const auto [seed, jitter] = GetParam();
  const auto contacts =
      SyntheticTraceGenerator{spec_for(seed, jitter)}.generate();
  const TraceSlotStats stats{contacts, planted_profile()};

  // 1. The top slots by observed count are exactly the planted peaks.
  const std::vector<contact::SlotIndex> by_count = stats.slots_by_count();
  ASSERT_EQ(by_count.size(), kSlots);
  const std::set<contact::SlotIndex> top(by_count.begin(),
                                         by_count.begin() + 4);
  EXPECT_EQ(top, kPlantedRush) << "seed " << seed;

  // 2. The estimated profile ranks slots identically: estimated rate is
  // monotone in observed count and both orderings break ties by index.
  EXPECT_EQ(stats.estimate_profile().slots_by_rate(), by_count);

  // 3. Ties are deterministic: equal-count slots appear in ascending
  // index order (stable sort over iota), so re-running can never shuffle
  // an adopted mask.
  std::vector<std::size_t> counts(kSlots, 0);
  for (const contact::Contact& c : contacts) {
    ++counts[planted_profile().slot_of(c.arrival)];
  }
  for (std::size_t i = 1; i < by_count.size(); ++i) {
    const std::size_t prev = counts[by_count[i - 1]];
    const std::size_t curr = counts[by_count[i]];
    ASSERT_GE(prev, curr);
    if (prev == curr) {
      EXPECT_LT(by_count[i - 1], by_count[i]);
    }
  }

  // 4. Peak-slot interval estimates are close to the planted 300 s truth
  // (exact rates need infinitely many epochs; 3 epochs bound the error).
  for (const contact::SlotIndex s : kPlantedRush) {
    EXPECT_NEAR(stats.estimate_profile().mean_interval_s(s), 300.0, 60.0)
        << "slot " << s;
  }
}

TEST_P(TraceRoundTrip, SurvivesTheOneReportFormatUnchanged) {
  const auto [seed, jitter] = GetParam();
  const SyntheticTraceGenerator generator{spec_for(seed, jitter)};
  const auto direct = generator.generate();

  std::ostringstream os;
  SyntheticTraceGenerator::write_one_report(os, "s0", direct);
  std::istringstream is{os.str()};
  const auto reread = read_one_connectivity(is, "s0");
  ASSERT_EQ(direct, reread);

  const TraceSlotStats a{direct, planted_profile()};
  const TraceSlotStats b{reread, planted_profile()};
  EXPECT_EQ(a.slots_by_count(), b.slots_by_count());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndJitters, TraceRoundTrip,
    ::testing::Values(Case{1, contact::IntervalJitter::kNormalTenth},
                      Case{2, contact::IntervalJitter::kNormalTenth},
                      Case{3, contact::IntervalJitter::kNormalTenth},
                      Case{4, contact::IntervalJitter::kNone}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.jitter == contact::IntervalJitter::kNone
                  ? "_deterministic"
                  : "_jittered");
    });

}  // namespace
}  // namespace snipr::trace
