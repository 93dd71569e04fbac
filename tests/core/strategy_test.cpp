#include "snipr/core/strategy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/core/snip_opt.hpp"

namespace snipr::core {
namespace {

TEST(StrategyTest, IdRoundTripsThroughParse) {
  for (const Strategy strategy : all_strategies()) {
    const auto parsed = parse_strategy(strategy_id(strategy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, strategy);
  }
}

TEST(StrategyTest, NameRoundTripsThroughParse) {
  for (const Strategy strategy : all_strategies()) {
    const auto parsed = parse_strategy(strategy_name(strategy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, strategy);
  }
}

TEST(StrategyTest, RejectsUnknownIds) {
  EXPECT_FALSE(parse_strategy("").has_value());
  EXPECT_FALSE(parse_strategy("snip").has_value());
  EXPECT_FALSE(parse_strategy("AT ").has_value());
}

TEST(StrategyTest, MakeSchedulerCoversEveryStrategy) {
  const RoadsideScenario scenario;
  for (const Strategy strategy : all_strategies()) {
    const auto scheduler = make_scheduler(scenario, strategy, 16.0, 86.4);
    ASSERT_NE(scheduler, nullptr) << strategy_id(strategy);
    EXPECT_FALSE(scheduler->name().empty());
  }
}

TEST(StrategyTest, SchedulerNamesMatchStrategyNames) {
  const RoadsideScenario scenario;
  const auto rh = make_scheduler(scenario, Strategy::kSnipRh, 16.0, 86.4);
  EXPECT_EQ(rh->name(), strategy_name(Strategy::kSnipRh));
  const auto at = make_scheduler(scenario, Strategy::kSnipAt, 16.0, 86.4);
  EXPECT_EQ(at->name(), strategy_name(Strategy::kSnipAt));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The plan a scheduler executes, as far as its type exposes it.
void expect_same_plan(const node::Scheduler& got, const node::Scheduler& want,
                      const std::string& where) {
  EXPECT_EQ(got.name(), want.name()) << where;
  if (const auto* at = dynamic_cast<const SnipAt*>(&want)) {
    const auto* got_at = dynamic_cast<const SnipAt*>(&got);
    ASSERT_NE(got_at, nullptr) << where;
    EXPECT_EQ(bits(got_at->duty()), bits(at->duty())) << where;
    EXPECT_EQ(got_at->cycle(), at->cycle()) << where;
  }
  if (const auto* opt = dynamic_cast<const SnipOpt*>(&want)) {
    const auto* got_opt = dynamic_cast<const SnipOpt*>(&got);
    ASSERT_NE(got_opt, nullptr) << where;
    ASSERT_EQ(got_opt->duties().size(), opt->duties().size()) << where;
    for (std::size_t s = 0; s < opt->duties().size(); ++s) {
      EXPECT_EQ(bits(got_opt->duties()[s]), bits(opt->duties()[s]))
          << where << " slot " << s;
    }
  }
}

TEST(StrategyTest, PlannedMakerBuildsFreshSchedulersEqualToMakeScheduler) {
  constexpr std::size_t kCalls = 3;
  for (const CatalogEntry& entry : ScenarioCatalog::instance().entries()) {
    for (const Strategy strategy : all_strategies()) {
      for (const double target : entry.zeta_targets_s) {
        const std::string where = entry.name + " x " +
                                  std::string{strategy_id(strategy)} +
                                  " @ " + std::to_string(target);
        const SchedulerMaker maker = plan_scheduler(
            entry.scenario, strategy, target, entry.phi_max_s);
        const auto reference =
            make_scheduler(entry.scenario, strategy, target, entry.phi_max_s);
        ASSERT_NE(reference, nullptr) << where;
        std::vector<std::unique_ptr<node::Scheduler>> made;
        std::set<const node::Scheduler*> distinct;
        for (std::size_t i = 0; i < kCalls; ++i) {
          made.push_back(maker());
          ASSERT_NE(made.back(), nullptr) << where;
          distinct.insert(made.back().get());
          expect_same_plan(*made.back(), *reference, where);
        }
        EXPECT_EQ(distinct.size(), kCalls) << where;
      }
    }
  }
}

TEST(StrategyTest, PlannedMakerOutlivesItsScenario) {
  SchedulerMaker maker;
  std::unique_ptr<node::Scheduler> reference;
  {
    const RoadsideScenario scenario;
    maker = plan_scheduler(scenario, Strategy::kSnipOpt, 56.0, 86.4);
    reference = make_scheduler(scenario, Strategy::kSnipOpt, 56.0, 86.4);
  }
  expect_same_plan(*maker(), *reference, "roadside opt");
}

TEST(StrategyTest, PlannedMakerIsSafeToCallConcurrently) {
  // Fleet shard workers call one maker at once; it may only read what it
  // captured. The TSan leg runs this.
  const RoadsideScenario scenario;
  for (const Strategy strategy : all_strategies()) {
    const SchedulerMaker maker =
        plan_scheduler(scenario, strategy, 56.0, 86.4);
    const auto reference = make_scheduler(scenario, strategy, 56.0, 86.4);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 8;
    std::vector<std::vector<std::unique_ptr<node::Scheduler>>> made(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&maker, &out = made[t]] {
        for (std::size_t i = 0; i < kPerThread; ++i) out.push_back(maker());
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto& per_thread : made) {
      ASSERT_EQ(per_thread.size(), kPerThread);
      for (const auto& scheduler : per_thread) {
        ASSERT_NE(scheduler, nullptr);
        expect_same_plan(*scheduler, *reference,
                         std::string{strategy_id(strategy)});
      }
    }
  }
}

}  // namespace
}  // namespace snipr::core
