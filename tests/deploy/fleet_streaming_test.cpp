#include "snipr/deploy/fleet_streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "snipr/core/crc32.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/snip_at.hpp"
#include "snipr/deploy/fleet_engine.hpp"

namespace snipr::deploy {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small road fleet from the catalog: real scenario, real schedulers,
/// few enough node-epochs that every test replays it several times.
const core::CatalogEntry& fleet_entry() {
  for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
    if (entry.is_fleet() && entry.fleet->road_workload() != nullptr) {
      return entry;
    }
  }
  throw std::logic_error("no road fleet entry in the catalog");
}

struct FleetCase {
  core::RoadsideScenario scenario;
  FleetSpec spec;
  FleetConfig config;
};

/// Re-frame `body` with a correct CRC line, exactly as the writer does, so
/// only the parser can reject what the body says.
std::string crc_framed(const std::string& body) {
  char crc_line[20];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n", core::crc32(body));
  return body + crc_line;
}

FleetCase small_fleet(std::size_t nodes = 24, std::size_t shards = 0) {
  const core::CatalogEntry& entry = fleet_entry();
  FleetCase s{entry.scenario, *entry.fleet, {}};
  s.spec.nodes = nodes;
  s.spec.routing.reset();
  s.config.deployment = make_fleet_deployment_config(
      entry.scenario, s.spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
  s.config.shards = shards;
  return s;
}

/// Every fault-free catalog fleet without routing: the fleets both
/// engines accept, road and trace workloads alike.
class StreamingMatchesEngine : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamingMatchesEngine, BitForBit) {
  // The streaming path folds exactly the values FleetEngine::run folds
  // (per-node means in node order), so every aggregate it shares with
  // DeploymentOutcome must match to the last bit — not approximately.
  const core::CatalogEntry& entry =
      core::ScenarioCatalog::instance().at(GetParam());
  ASSERT_TRUE(entry.is_fleet());
  FleetSpec spec = *entry.fleet;
  ASSERT_FALSE(spec.routing.has_value());
  ASSERT_FALSE(spec.faults != nullptr && spec.faults->enabled());
  spec.nodes = std::min<std::size_t>(spec.nodes, 40);
  for (const std::size_t shards : {1U, 5U}) {
    SCOPED_TRACE(shards);
    FleetConfig config;
    config.deployment = make_fleet_deployment_config(
        entry.scenario, spec, entry.phi_max_s, /*epochs=*/2, /*seed=*/7);
    config.shards = shards;
    const DeploymentOutcome reference =
        FleetEngine{}.run(entry.scenario, spec, config);
    const auto summary = run_streaming_fleet(entry.scenario, spec, config);
    ASSERT_TRUE(summary.has_value());
    EXPECT_EQ(summary->nodes, reference.nodes.size());
    EXPECT_EQ(summary->epochs, 2u);
    EXPECT_EQ(summary->total_zeta_s, reference.total_zeta_s);
    EXPECT_EQ(summary->total_phi_s, reference.total_phi_s);
    EXPECT_EQ(summary->total_bytes, reference.total_bytes);
    EXPECT_EQ(summary->mean_zeta_s, reference.mean_zeta_s);
    EXPECT_EQ(summary->zeta_variance, reference.zeta_variance);
    EXPECT_EQ(summary->zeta_stddev_s, reference.zeta_stddev_s);
    EXPECT_EQ(summary->min_zeta_s, reference.min_zeta_s);
    EXPECT_EQ(summary->max_zeta_s, reference.max_zeta_s);
    EXPECT_EQ(summary->zeta_fairness, reference.zeta_fairness);
    EXPECT_GT(summary->total_zeta_s, 0.0);
    // The sketch is lossy by design; its medians must still bracket the
    // exact mean-adjacent range (1% relative error on per-node means).
    EXPECT_GE(summary->zeta_p50_s, reference.min_zeta_s * 0.98);
    EXPECT_LE(summary->zeta_p99_s, reference.max_zeta_s * 1.02);
    EXPECT_GE(summary->zeta_p90_s, summary->zeta_p50_s);
    EXPECT_GE(summary->zeta_p99_s, summary->zeta_p90_s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, StreamingMatchesEngine,
    ::testing::Values("fleet-highway-1k", "fleet-urban-grid",
                      "fleet-rural-sparse", "fleet-trace-metro"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(FleetStreaming, JsonIsShardAndBatchInvariant) {
  const FleetCase base = small_fleet();
  const auto one = run_streaming_fleet(base.scenario, base.spec,
                                       small_fleet(24, 1).config);
  const auto five = run_streaming_fleet(base.scenario, base.spec,
                                        small_fleet(24, 5).config);
  StreamingOptions tiny_batches;
  tiny_batches.batch_shards = 1;
  const auto batched = run_streaming_fleet(
      base.scenario, base.spec, small_fleet(24, 5).config, tiny_batches);
  // The default partition on three workers: a multiple of three shards.
  FleetCase by_default = small_fleet(24, 0);
  by_default.config.threads = 3;
  const auto defaulted = run_streaming_fleet(base.scenario, base.spec,
                                             by_default.config);
  ASSERT_TRUE(one && five && batched && defaulted);
  EXPECT_EQ(defaulted->shards % 3, 0U);
  const std::string json = to_json(*one);
  EXPECT_EQ(json, to_json(*five));
  EXPECT_EQ(json, to_json(*batched));
  EXPECT_EQ(json, to_json(*defaulted));
  EXPECT_EQ(core::json::extract_schema(json), "snipr.fleet_summary.v1");
}

TEST(FleetStreaming, CheckpointResumeIsBitIdentical) {
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path =
      ::testing::TempDir() + "/fleet_streaming_checkpoint";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 2;
  // Drive the run two shards at a time, dropping all in-memory state
  // between calls — exactly a kill/restart cycle.
  std::optional<FleetSummary> resumed;
  int calls = 0;
  while (!resumed.has_value()) {
    resumed = run_streaming_fleet(s.scenario, s.spec, s.config, slice);
    ASSERT_LT(++calls, 10) << "streaming run failed to converge";
  }
  EXPECT_GT(calls, 1) << "max_shards never sliced the run";
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
  std::remove(path.c_str());
}

TEST(FleetStreaming, MismatchedCheckpointIsRejected) {
  const FleetCase s = small_fleet(24, 6);
  const std::string path =
      ::testing::TempDir() + "/fleet_streaming_checkpoint_mismatch";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.max_shards = 2;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Same checkpoint, different seed: resuming would silently blend two
  // different runs, so it must throw instead.
  FleetCase other = small_fleet(24, 6);
  other.config.deployment.seed = 8;
  EXPECT_THROW(
      (void)run_streaming_fleet(other.scenario, other.spec, other.config,
                                slice),
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(FleetStreaming, TornCheckpointFallsBackToPreviousGeneration) {
  // A write torn mid-stream (power loss after the rename of the old
  // generation) must not poison the run: the CRC frame rejects the
  // truncated file and restore falls back to <path>.prev, redoing only
  // the shards since the previous generation — bit-identically.
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path = ::testing::TempDir() + "/fleet_streaming_torn";
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 3;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Three single-shard batches wrote three generations: main holds
  // shards 1-3, .prev shards 1-2. Tear the newest one in half.
  const std::string intact = slurp(path);
  ASSERT_FALSE(intact.empty());
  ASSERT_FALSE(slurp(prev).empty());
  spill(path, intact.substr(0, intact.size() / 2));

  StreamingOptions resume;
  resume.checkpoint_path = path;
  const auto resumed =
      run_streaming_fleet(s.scenario, s.spec, s.config, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
}

TEST(FleetStreaming, BitFlippedCheckpointFallsBackToPreviousGeneration) {
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path = ::testing::TempDir() + "/fleet_streaming_flip";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 3;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  // Flip one bit in the middle of the body: the text still parses as a
  // plausible checkpoint, so only the CRC frame can catch it.
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 3] ^= 0x01;
  spill(path, bytes);

  StreamingOptions resume;
  resume.checkpoint_path = path;
  const auto resumed =
      run_streaming_fleet(s.scenario, s.spec, s.config, resume);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(to_json(*resumed), to_json(*reference));
}

TEST(FleetStreaming, DamageWithoutFallbackThrows) {
  // Damage with no intact generation anywhere must never degrade into a
  // silent from-scratch rerun — the caller has to see it.
  const FleetCase s = small_fleet(24, 6);
  const std::string path = ::testing::TempDir() + "/fleet_streaming_damaged";
  const std::string prev = path + ".prev";
  std::remove(prev.c_str());
  spill(path, "snipr-fleet-checkpoint-v2\nnot a real checkpoint\n");
  StreamingOptions opts;
  opts.checkpoint_path = path;
  EXPECT_THROW(
      (void)run_streaming_fleet(s.scenario, s.spec, s.config, opts),
      std::runtime_error);
  // A damaged .prev beside the damaged main is no better.
  spill(prev, "garbage");
  EXPECT_THROW(
      (void)run_streaming_fleet(s.scenario, s.spec, s.config, opts),
      std::runtime_error);
  std::remove(path.c_str());
  std::remove(prev.c_str());
}

TEST(FleetStreaming, CompletionRetiresBothCheckpointGenerations) {
  // After a run completes, neither generation may linger: a stale .prev
  // would resurrect this run's partial state into a future run.
  const FleetCase s = small_fleet(24, 6);
  const std::string path = ::testing::TempDir() + "/fleet_streaming_retire";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions opts;
  opts.checkpoint_path = path;
  opts.batch_shards = 1;
  ASSERT_TRUE(
      run_streaming_fleet(s.scenario, s.spec, s.config, opts).has_value());
  EXPECT_TRUE(slurp(path).empty());
  EXPECT_TRUE(slurp(path + ".prev").empty());
}

TEST(FleetStreaming, CrcValidUnparsableCheckpointIsDamageNotZero) {
  // A body the CRC frame vouches for can still hold a token that is not a
  // number (a buggy writer, a hand edit re-framed by a tool). It must load
  // as damage — fall back to .prev, or throw without one — and never be
  // read as 0.0, which would resume from a silently-zeroed accumulator.
  const FleetCase s = small_fleet(24, 6);
  const auto reference = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(reference.has_value());

  const std::string path = ::testing::TempDir() + "/fleet_streaming_nan_tok";
  const std::string prev = path + ".prev";
  std::remove(path.c_str());
  std::remove(prev.c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 3;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  const std::string framed = slurp(path);
  const std::string body = framed.substr(0, framed.rfind("crc "));

  // Line 3 starts "<n> <mean> ...": replace the mean's hexfloat with a
  // token strtod would have turned into 0.0.
  const std::size_t line3 = body.find('\n', body.find('\n') + 1) + 1;
  const std::size_t mean_at = body.find(' ', line3) + 1;
  const std::size_t mean_end = body.find(' ', mean_at);
  std::string bad_number = body;
  bad_number.replace(mean_at, mean_end - mean_at, "zz");
  const std::string leftover = body + "7\n";

  StreamingOptions resume;
  resume.checkpoint_path = path;
  for (const std::string& damaged : {bad_number, leftover}) {
    spill(path, crc_framed(damaged));
    const auto resumed =
        run_streaming_fleet(s.scenario, s.spec, s.config, resume);
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(to_json(*resumed), to_json(*reference));
    // The completed run retired both generations; rebuild them.
    ASSERT_FALSE(
        run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  }
  // Without an intact .prev the same damage throws.
  std::remove(prev.c_str());
  for (const std::string& damaged : {bad_number, leftover}) {
    spill(path, crc_framed(damaged));
    EXPECT_THROW(
        (void)run_streaming_fleet(s.scenario, s.spec, s.config, resume),
        std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(FleetStreaming, RejectsEnabledFaultSpec) {
  // The streaming engine has no fault plane: an enabled spec must be
  // refused by name rather than answered with fault-free numbers.
  FleetCase s = small_fleet();
  auto faults = std::make_shared<fault::FaultSpec>();
  faults->radio.probe_miss_prob = 0.1;
  s.spec.faults = faults;
  try {
    (void)run_streaming_fleet(s.scenario, s.spec, s.config);
    FAIL() << "an enabled fault spec was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("faults"), std::string::npos)
        << e.what();
  }
  // Null and all-zero specs are fault-free by definition and stay legal.
  s.spec.faults = std::make_shared<fault::FaultSpec>();
  const auto zero = run_streaming_fleet(s.scenario, s.spec, s.config);
  s.spec.faults.reset();
  const auto none = run_streaming_fleet(s.scenario, s.spec, s.config);
  ASSERT_TRUE(zero && none);
  EXPECT_EQ(to_json(*zero), to_json(*none));
}

TEST(FleetStreaming, RejectsRoutingAndEmptyFleets) {
  FleetCase s = small_fleet();
  s.spec.routing = RoutingSpec{};
  EXPECT_THROW((void)run_streaming_fleet(s.scenario, s.spec, s.config),
               std::invalid_argument);
  FleetCase empty = small_fleet();
  empty.spec.nodes = 0;
  EXPECT_THROW(
      (void)run_streaming_fleet(empty.scenario, empty.spec, empty.config),
      std::invalid_argument);
}

TEST(FleetStreaming, FirstBatchCheckpointBytesArePinned) {
  // The on-disk snipr-fleet-checkpoint-v2 format, byte for byte: two
  // nodes in two shards, stopped after the first. A format change must
  // show up here, and bump the magic.
  const FleetCase s = small_fleet(2, 2);
  const std::string path = ::testing::TempDir() + "/fleet_streaming_pinned";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  StreamingOptions slice;
  slice.checkpoint_path = path;
  slice.batch_shards = 1;
  slice.max_shards = 1;
  ASSERT_FALSE(
      run_streaming_fleet(s.scenario, s.spec, s.config, slice).has_value());
  EXPECT_EQ(slurp(path),
            "snipr-fleet-checkpoint-v2\n"
            "2 2 7 2 1\n"
            "1 0x1.f0a06fac6045cp+3 0x0p+0 0x1.f0a06fac6045cp+3 "
            "0x1.f0a06fac6045cp+3 0x1.f0a06fac6045cp+3 0x1.273f7ced91688p+5 "
            "0x1.5a9f0a90ea3b2p+17 26 3844\n"
            "0x1.47ae147ae147bp-7 138 0 1\n"
            "1 \n"
            "crc 57d7fcd2\n");
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST(FleetStreaming, SliceCheckpointIsPartitionInvariant) {
  // The file a slice leaves depends only on how many shards it folded,
  // never on the worker count or the fold window; and the generation it
  // demoted to .prev is the one from the previous `batch_shards`
  // boundary, so the checkpoint cadence is pinned too.
  const std::string path = ::testing::TempDir() + "/fleet_streaming_slices";
  const auto clear = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
  };
  const auto slice_file = [&](std::size_t threads, std::size_t batch,
                              std::size_t max_shards) {
    FleetCase s = small_fleet(24, 6);
    s.config.threads = threads;
    StreamingOptions slice;
    slice.checkpoint_path = path;
    slice.batch_shards = batch;
    slice.max_shards = max_shards;
    clear();
    EXPECT_FALSE(run_streaming_fleet(s.scenario, s.spec, s.config, slice)
                     .has_value());
    return std::pair{slurp(path), slurp(path + ".prev")};
  };
  // after[d]: the checkpoint after d shards, one shard per slice call.
  std::vector<std::string> after(6);
  for (std::size_t d = 1; d < 6; ++d) after[d] = slice_file(1, 1, d).first;

  for (const std::size_t max_shards : {1U, 2U, 5U}) {
    for (const std::size_t threads : {1U, 2U, 4U}) {
      for (const std::size_t batch : {1U, 2U, 3U}) {
        const auto [file, prev] = slice_file(threads, batch, max_shards);
        const std::size_t last = max_shards % batch == 0
                                     ? max_shards - batch
                                     : max_shards - max_shards % batch;
        SCOPED_TRACE(::testing::Message()
                     << "threads " << threads << ", batch_shards " << batch
                     << ", max_shards " << max_shards);
        EXPECT_EQ(file, after[max_shards]);
        EXPECT_EQ(prev, last == 0 ? std::string{} : after[last]);
      }
    }
  }
  clear();
}

TEST(FleetStreaming, MaxShardsWithoutCheckpointIsRejected) {
  // Each slice would return nullopt and save nothing, so a caller that
  // keeps slicing would loop forever.
  const FleetCase s = small_fleet(24, 6);
  StreamingOptions slice;
  slice.max_shards = 2;
  try {
    (void)run_streaming_fleet(s.scenario, s.spec, s.config, slice);
    FAIL() << "max_shards without a checkpoint_path was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("max_shards"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSpecValidation, BothEnginesRejectBadRoadGeometryByName) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct BadValue {
    const char* field;
    double RoadWorkload::*member;
    double value;
  };
  const BadValue cases[] = {
      {"spacing_m", &RoadWorkload::spacing_m, kNaN},
      {"spacing_m", &RoadWorkload::spacing_m, kInf},
      {"spacing_m", &RoadWorkload::spacing_m, 0.0},
      {"spacing_m", &RoadWorkload::spacing_m, -300.0},
      {"range_m", &RoadWorkload::range_m, kNaN},
      {"range_m", &RoadWorkload::range_m, kInf},
      {"range_m", &RoadWorkload::range_m, 0.0},
      {"range_m", &RoadWorkload::range_m, -10.0},
      {"first_position_m", &RoadWorkload::first_position_m, kNaN},
      {"first_position_m", &RoadWorkload::first_position_m, kInf},
      {"first_position_m", &RoadWorkload::first_position_m, -1.0},
      {"through_fraction", &RoadWorkload::through_fraction, kNaN},
      {"through_fraction", &RoadWorkload::through_fraction, 1.5},
      {"through_fraction", &RoadWorkload::through_fraction, -0.1},
  };
  for (const BadValue& bad : cases) {
    SCOPED_TRACE(std::string{bad.field} + " = " + std::to_string(bad.value));
    FleetCase s = small_fleet(4);
    RoadWorkload road = *s.spec.road_workload();
    road.*bad.member = bad.value;
    s.spec.workload = road;
    const auto expect_named = [&bad](const auto& run) {
      try {
        run();
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find(bad.field), std::string::npos)
            << e.what();
      }
    };
    expect_named(
        [&] { (void)FleetEngine{}.run(s.scenario, s.spec, s.config); });
    expect_named(
        [&] { (void)run_streaming_fleet(s.scenario, s.spec, s.config); });
  }
}

TEST(FleetSpecValidation, BothEnginesRejectBadTargetsAndBudgetsByName) {
  // Unrejected, a NaN ζtarget had SNIP-OPT report ζ = 0 at full budget,
  // RH and adaptive run at a NaN sensing rate and SNIP-AT die on a
  // non-positive wakeup: every strategy must refuse it by name instead.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_named = [](const char* field, const auto& run) {
    try {
      run();
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
          << e.what();
    }
  };
  const auto both_engines = [&expect_named](const char* field,
                                            const FleetCase& s) {
    expect_named(
        field, [&] { (void)FleetEngine{}.run(s.scenario, s.spec, s.config); });
    expect_named(field, [&] {
      (void)run_streaming_fleet(s.scenario, s.spec, s.config);
    });
  };
  for (const core::Strategy strategy : core::all_strategies()) {
    for (const double target : {kNaN, kInf, -kInf, -1.0}) {
      SCOPED_TRACE(std::string{core::strategy_id(strategy)} +
                   " zeta_target_s = " + std::to_string(target));
      FleetCase s = small_fleet(4);
      s.spec.strategy = strategy;
      s.spec.zeta_target_s = target;
      both_engines("zeta_target_s", s);
    }
    SCOPED_TRACE(std::string{core::strategy_id(strategy)} + " budget");
    FleetCase s = small_fleet(4);
    s.spec.strategy = strategy;
    s.config.deployment.node.budget_limit = sim::Duration::seconds(-1.0);
    both_engines("budget_limit", s);
  }
  // Checked once on the shared input path: both engines and both
  // FleetEngine::run overloads.
  const SchedulerFactory snip_at = [](std::size_t) {
    return std::make_unique<core::SnipAt>(0.01, sim::Duration::seconds(0.02));
  };
  for (const double rate : {kNaN, kInf, -1.0}) {
    SCOPED_TRACE("sensing_rate_bps = " + std::to_string(rate));
    FleetCase s = small_fleet(4);
    s.config.deployment.node.sensing_rate_bps = rate;
    both_engines("DeploymentConfig::node.sensing_rate_bps", s);
    expect_named("DeploymentConfig::node.sensing_rate_bps", [&] {
      const contact::ContactSchedule empty{std::vector<contact::Contact>{}};
      (void)FleetEngine{}.run(std::vector<contact::ContactSchedule>(2, empty),
                              snip_at, s.config);
    });
  }
  {
    // A run of no epochs would report all-zero rows as if it had run.
    SCOPED_TRACE("epochs = 0");
    FleetCase s = small_fleet(4);
    s.config.deployment.epochs = 0;
    both_engines("DeploymentConfig::epochs", s);
    expect_named("DeploymentConfig::epochs", [&] {
      const contact::ContactSchedule empty{std::vector<contact::Contact>{}};
      (void)FleetEngine{}.run(std::vector<contact::ContactSchedule>(2, empty),
                              snip_at, s.config);
    });
  }
  const FleetCase s = small_fleet(4);
  for (const double phi : {kNaN, kInf, -1.0}) {
    SCOPED_TRACE("phi_max_s = " + std::to_string(phi));
    expect_named("phi_max_s", [&] {
      (void)make_fleet_deployment_config(s.scenario, s.spec, phi, 2, 7);
    });
  }
}

}  // namespace
}  // namespace snipr::deploy
