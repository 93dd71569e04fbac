#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snipr/core/scenario_catalog.hpp"
#include "snipr/deploy/fleet_engine.hpp"

/// Property: for every fleet catalog entry, the FleetEngine outcome JSON
/// is a pure function of (spec, seed, epochs) — byte-identical at 1, 2
/// and 8 shards, at the default partition (and any thread count). This mirrors
/// catalog_determinism_test for the sharded engine and is the guarantee
/// the fleet golden corpus rests on: node i's RNG stream is forked in
/// node order before partitioning, so the partition cannot leak into the
/// results.

namespace snipr::deploy {
namespace {

std::vector<std::string> fleet_entry_names() {
  std::vector<std::string> names;
  for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
    if (entry.is_fleet()) names.push_back(entry.name);
  }
  return names;
}

std::string fleet_json(const core::CatalogEntry& entry, std::size_t shards) {
  // Two epochs and at most 192 nodes keep the whole catalog fast to
  // replay thrice even under sanitizers; per-node streams diverge within
  // the first epoch if sharding leaks, and full-size shard independence
  // is separately enforced by the golden_catalog_single_thread ctest
  // entry (1-shard replay against the default-shard corpus).
  FleetSpec spec = *entry.fleet;
  spec.nodes = std::min<std::size_t>(spec.nodes, 192);
  FleetConfig config;
  config.deployment = make_fleet_deployment_config(
      entry.scenario, spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
  config.shards = shards;
  return FleetEngine::to_json(FleetEngine{}.run(entry.scenario, spec, config));
}

class FleetDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(FleetDeterminism, SameSeedSameJsonAtAnyShardCount) {
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(GetParam());
  ASSERT_TRUE(entry.is_fleet());
  const std::string one_shard = fleet_json(entry, 1);
  const std::string two_shards = fleet_json(entry, 2);
  const std::string eight_shards = fleet_json(entry, 8);
  EXPECT_EQ(one_shard, two_shards) << entry.name;
  EXPECT_EQ(one_shard, eight_shards) << entry.name;
  // The default partition (0: rounded up to a multiple of the workers).
  EXPECT_EQ(one_shard, fleet_json(entry, 0)) << entry.name;
  // And replaying the same spec reproduces the same bytes (no hidden
  // global state in the engine).
  EXPECT_EQ(one_shard, fleet_json(entry, 1)) << entry.name;
}

INSTANTIATE_TEST_SUITE_P(
    EveryFleetEntry, FleetDeterminism,
    ::testing::ValuesIn(fleet_entry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace snipr::deploy
