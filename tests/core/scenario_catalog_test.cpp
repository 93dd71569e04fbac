#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"

namespace snipr::core {
namespace {

const ScenarioCatalog& catalog() { return ScenarioCatalog::instance(); }

TEST(ScenarioCatalog, HasAtLeastTwelveDocumentedEntries) {
  EXPECT_GE(catalog().size(), 12U);
  for (const CatalogEntry& entry : catalog().entries()) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_FALSE(entry.description.empty()) << entry.name;
    EXPECT_FALSE(entry.zeta_targets_s.empty()) << entry.name;
    EXPECT_GT(entry.phi_max_s, 0.0) << entry.name;
  }
}

TEST(ScenarioCatalog, NamesAreUniqueAndFindable) {
  std::set<std::string> seen;
  for (const CatalogEntry& entry : catalog().entries()) {
    EXPECT_TRUE(seen.insert(entry.name).second)
        << "duplicate name " << entry.name;
    const CatalogEntry* found = catalog().find(entry.name);
    ASSERT_NE(found, nullptr) << entry.name;
    EXPECT_EQ(found, &entry) << entry.name;
  }
  EXPECT_EQ(seen.size(), catalog().size());
}

TEST(ScenarioCatalog, FindReturnsNullForUnknown) {
  EXPECT_EQ(catalog().find("no-such-scenario"), nullptr);
}

TEST(ScenarioCatalog, AtThrowsListingEveryValidName) {
  try {
    (void)catalog().at("no-such-scenario");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    for (const CatalogEntry& entry : catalog().entries()) {
      EXPECT_NE(what.find(entry.name), std::string::npos)
          << "error message should list " << entry.name;
    }
  }
}

TEST(ScenarioCatalog, EntriesAreInternallyConsistent) {
  for (const CatalogEntry& entry : catalog().entries()) {
    const RoadsideScenario& sc = entry.scenario;
    // Mask and profile must describe the same slot grid, or RH planning
    // and the simulated environment silently disagree.
    EXPECT_EQ(sc.rush_mask.slot_count(), sc.profile.slot_count())
        << entry.name;
    EXPECT_EQ(sc.rush_mask.epoch(), sc.profile.epoch()) << entry.name;
    EXPECT_GT(sc.rush_mask.rush_slot_count(), 0U) << entry.name;
    EXPECT_GT(sc.tcontact_s, 0.0) << entry.name;
    EXPECT_GT(sc.profile.expected_contacts_per_epoch(), 0.0) << entry.name;
  }
}

TEST(ScenarioCatalog, EverySchedulerConstructsForEveryEntry) {
  for (const CatalogEntry& entry : catalog().entries()) {
    for (const Strategy strategy : all_strategies()) {
      const double target = entry.zeta_targets_s.front();
      const auto scheduler =
          make_scheduler(entry.scenario, strategy, target, entry.phi_max_s);
      EXPECT_NE(scheduler, nullptr)
          << entry.name << " x " << strategy_name(strategy);
    }
  }
}

TEST(ScenarioCatalog, PaperEntryMatchesDefaultScenario) {
  const CatalogEntry& entry = catalog().at("roadside");
  const RoadsideScenario paper;
  EXPECT_EQ(entry.scenario.profile.slot_count(), paper.profile.slot_count());
  EXPECT_DOUBLE_EQ(entry.scenario.tcontact_s, paper.tcontact_s);
  EXPECT_DOUBLE_EQ(entry.phi_max_s, paper.phi_max_small_s());
  const CatalogEntry& large = catalog().at("roadside-large-budget");
  EXPECT_DOUBLE_EQ(large.phi_max_s, paper.phi_max_large_s());
}

TEST(ScenarioCatalog, OneTraceEntryRecoversMorningRush) {
  // The ONE-trace-derived environment was generated with a morning-only
  // rush (hours 6-8): the estimated profile and learned mask must put
  // every rush slot there and nowhere else.
  const CatalogEntry& entry = catalog().at("one-trace-commuter");
  const RoadsideScenario& sc = entry.scenario;
  ASSERT_EQ(sc.profile.slot_count(), 24U);
  for (std::size_t hour = 0; hour < 24; ++hour) {
    const bool rush_source = hour >= 6 && hour <= 8;
    if (sc.rush_mask.is_rush_slot(hour)) {
      EXPECT_TRUE(rush_source) << "mask marks off-peak hour " << hour;
    }
    if (rush_source) {
      EXPECT_GT(sc.profile.arrival_rate(hour), sc.profile.arrival_rate(12))
          << "hour " << hour;
    }
  }
  EXPECT_EQ(sc.rush_mask.rush_slot_count(), 3U);
}

TEST(ScenarioCatalog, CatalogSweepCoversAllStrategiesAndSeeds) {
  const CatalogEntry& entry = catalog().at("roadside");
  const SweepSpec sweep = catalog_sweep(entry, /*seeds=*/3, /*epochs=*/7);
  EXPECT_EQ(sweep.label, entry.name);
  EXPECT_EQ(sweep.strategies.size(), all_strategies().size());
  EXPECT_EQ(sweep.zeta_targets_s, entry.zeta_targets_s);
  ASSERT_EQ(sweep.phi_maxes_s.size(), 1U);
  EXPECT_DOUBLE_EQ(sweep.phi_maxes_s[0], entry.phi_max_s);
  EXPECT_EQ(sweep.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(sweep.epochs, 7U);
  const auto runs = expand_sweep(sweep);
  EXPECT_EQ(runs.size(), 4U * entry.zeta_targets_s.size() * 3U);
}

TEST(ScenarioCatalog, FleetEntriesCarryConsistentSpecs) {
  std::size_t fleets = 0;
  for (const CatalogEntry& entry : catalog().entries()) {
    if (!entry.is_fleet()) continue;
    ++fleets;
    const deploy::FleetSpec& spec = *entry.fleet;
    EXPECT_GE(spec.nodes, 64U) << entry.name;
    if (const deploy::RoadWorkload* road = spec.road_workload()) {
      EXPECT_GT(road->spacing_m, 0.0) << entry.name;
      EXPECT_GT(road->range_m, 0.0) << entry.name;
      EXPECT_GT(road->speed_mean_mps, 0.0) << entry.name;
      EXPECT_GE(road->through_fraction, 0.0) << entry.name;
      EXPECT_LE(road->through_fraction, 1.0) << entry.name;
    } else {
      ASSERT_NE(spec.trace_workload(), nullptr) << entry.name;
      EXPECT_FALSE(spec.trace_workload()->trace.empty()) << entry.name;
      // Routing needs carrier identity, which a trace replay lacks.
      EXPECT_FALSE(spec.routing.has_value()) << entry.name;
    }
    // The shared vehicle flow and the per-node environment must describe
    // the same epoch, or fleet epochs and scenario slots drift apart.
    EXPECT_EQ(spec.flow_profile.epoch(), entry.scenario.profile.epoch())
        << entry.name;
    EXPECT_GT(spec.flow_profile.expected_contacts_per_epoch(), 0.0)
        << entry.name;
  }
  EXPECT_GE(fleets, 5U);
  const CatalogEntry& highway = catalog().at("fleet-highway-1k");
  ASSERT_TRUE(highway.is_fleet());
  EXPECT_EQ(highway.fleet->nodes, 1024U);
  // The multi-hop entries pin the v2 network outcome path.
  const CatalogEntry& multihop = catalog().at("fleet-multihop-highway");
  ASSERT_TRUE(multihop.is_fleet());
  ASSERT_TRUE(multihop.fleet->routing.has_value());
  EXPECT_EQ(multihop.fleet->routing->forwarding,
            deploy::ForwardingPolicy::kGreedySink);
  const CatalogEntry& relay = catalog().at("fleet-multihop-relay");
  ASSERT_TRUE(relay.is_fleet());
  ASSERT_TRUE(relay.fleet->routing.has_value());
  EXPECT_EQ(relay.fleet->routing->forwarding,
            deploy::ForwardingPolicy::kTimeCost);
  ASSERT_NE(relay.fleet->road_workload(), nullptr);
  EXPECT_LT(relay.fleet->road_workload()->through_fraction, 1.0);
}

}  // namespace
}  // namespace snipr::core
