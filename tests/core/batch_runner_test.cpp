#include "snipr/core/batch_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "snipr/core/snip_rh.hpp"

namespace snipr::core {
namespace {

// Small grids keep each experiment to a couple of simulated epochs; the
// engine's determinism does not depend on run length.

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.strategies = {Strategy::kSnipAt, Strategy::kSnipRh};
  sweep.zeta_targets_s = {16.0, 32.0};
  sweep.phi_maxes_s = {86.4};
  sweep.seeds = {1, 2, 3};
  sweep.epochs = 2;
  return sweep;
}

TEST(BatchRunnerTest, ExpandSweepIsTheFullGridInGridOrder) {
  const SweepSpec sweep = small_sweep();
  const std::vector<BatchRun> runs = expand_sweep(sweep);
  ASSERT_EQ(runs.size(), 2u * 2u * 1u * 3u);
  // Strategy-major order: first half AT, second half RH.
  EXPECT_EQ(runs.front().strategy, Strategy::kSnipAt);
  EXPECT_EQ(runs.back().strategy, Strategy::kSnipRh);
  // Within a strategy: targets, then seeds.
  EXPECT_EQ(runs[0].zeta_target_s, 16.0);
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[2].seed, 3u);
  EXPECT_EQ(runs[3].zeta_target_s, 32.0);
}

TEST(BatchRunnerTest, ExperimentConfigDerivesSensingRateFromTarget) {
  BatchRun run;
  run.zeta_target_s = 24.0;
  const ExperimentConfig config = run.experiment_config();
  EXPECT_DOUBLE_EQ(config.sensing_rate_bps,
                   run.scenario.sensing_rate_for_target(24.0));
  EXPECT_EQ(config.seed, run.seed);
  EXPECT_EQ(config.epochs, run.epochs);
}

TEST(BatchRunnerTest, AggregateJsonIsByteIdenticalAcrossThreadCounts) {
  const std::vector<BatchRun> runs = expand_sweep(small_sweep());
  const std::string single = BatchRunner::to_json(
      BatchRunner{BatchRunner::Config{.threads = 1}}.run(runs));
  for (const std::size_t threads : {4u, 8u}) {
    const std::string parallel = BatchRunner::to_json(
        BatchRunner{BatchRunner::Config{.threads = threads}}.run(runs));
    EXPECT_EQ(single, parallel) << threads << " worker threads";
  }
}

TEST(BatchRunnerTest, ResultsStayInSpecOrder) {
  const std::vector<BatchRun> runs = expand_sweep(small_sweep());
  const auto results =
      BatchRunner{BatchRunner::Config{.threads = 8}}.run(runs);
  ASSERT_EQ(results.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(results[i].strategy, runs[i].strategy);
    EXPECT_EQ(results[i].zeta_target_s, runs[i].zeta_target_s);
    EXPECT_EQ(results[i].seed, runs[i].seed);
  }
}

TEST(BatchRunnerTest, AggregateAveragesAcrossSeedsOnly) {
  const std::vector<BatchRun> runs = expand_sweep(small_sweep());
  const auto results = BatchRunner{}.run(runs);
  const auto cells = BatchRunner::aggregate(results);
  // 2 strategies x 2 targets x 1 budget; seeds folded in.
  ASSERT_EQ(cells.size(), 4u);
  for (const BatchAggregate& cell : cells) {
    EXPECT_EQ(cell.seeds, 3u);
    double zeta_sum = 0.0;
    for (const BatchRunResult& r : results) {
      if (r.strategy == cell.strategy &&
          r.zeta_target_s == cell.zeta_target_s) {
        zeta_sum += r.run.mean_zeta_s;
      }
    }
    EXPECT_NEAR(cell.mean_zeta_s, zeta_sum / 3.0, 1e-12);
    EXPECT_GE(cell.mean_miss_ratio, 0.0);
    EXPECT_LE(cell.mean_miss_ratio, 1.0);
  }
}

TEST(BatchRunnerTest, CustomSchedulerFactoryOverridesStrategy) {
  BatchRun run;
  run.epochs = 1;
  run.strategy = Strategy::kSnipAt;
  run.scheduler_factory = [scenario = run.scenario] {
    return std::make_unique<SnipRh>(scenario.rush_mask, SnipRhConfig{});
  };
  const auto results = BatchRunner{}.run({run});
  ASSERT_EQ(results.size(), 1u);
  // The factory's scheduler ran, not the labelled strategy.
  EXPECT_EQ(results[0].run.scheduler_name, "SNIP-RH");
  EXPECT_EQ(results[0].strategy, Strategy::kSnipAt);
}

TEST(BatchRunnerTest, EmptyBatchYieldsEmptyResultsAndValidJson) {
  const auto results = BatchRunner{}.run({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(BatchRunner::to_json(results),
            "{\"schema\":\"snipr.batch.v1\",\"runs\":[],\"aggregates\":[]}");
}

TEST(BatchRunnerTest, JsonCarriesTheBatchMetrics) {
  SweepSpec sweep = small_sweep();
  sweep.strategies = {Strategy::kSnipRh};
  sweep.zeta_targets_s = {16.0};
  sweep.seeds = {7};
  const auto results = BatchRunner{}.run(expand_sweep(sweep));
  const std::string json = BatchRunner::to_json(results);
  EXPECT_NE(json.find("\"schema\":\"snipr.batch.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"rh\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
  EXPECT_NE(json.find("\"energy_per_contact_j\":"), std::string::npos);
  EXPECT_NE(json.find("\"miss_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"probes_issued\":"), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\":[{"), std::string::npos);
}

TEST(BatchRunnerTest, JsonEscapesHostileLabels) {
  BatchRun run;
  run.label = "quo\"te\\back\nline";
  run.epochs = 1;
  const auto results = BatchRunner{}.run({run});
  const std::string json = BatchRunner::to_json(results);
  EXPECT_NE(json.find("quo\\\"te\\\\back\\u000aline"), std::string::npos);
}

TEST(BatchRunnerTest, AggregateKeysDoNotCollideOnSeparatorLabels) {
  // Labels crafted so a naive "label|strategy|..." key would collide.
  BatchRun a;
  a.label = "x|1";
  a.epochs = 1;
  BatchRun b = a;
  b.label = "x";
  const auto results = BatchRunner{}.run({a, b});
  EXPECT_EQ(BatchRunner::aggregate(results).size(), 2u);
}

TEST(BatchRunnerTest, GridMaterializesEachDistinctScheduleExactlyOnce) {
  // 2 strategies x 2 targets x 3 seeds over one scenario: the schedule
  // depends only on (scenario, epochs, jitter, seed), so the whole grid
  // must build exactly 3 schedules — one per seed — not one per run.
  const std::vector<BatchRun> runs = expand_sweep(small_sweep());
  ASSERT_EQ(runs.size(), 12u);
  const std::uint64_t before = BatchRunner::schedule_builds();
  (void)BatchRunner{BatchRunner::Config{.threads = 4}}.run(runs);
  EXPECT_EQ(BatchRunner::schedule_builds() - before, 3u);
}

TEST(BatchRunnerTest, ScheduleSharingSplitsOnEpochsJitterAndSeed) {
  SweepSpec sweep = small_sweep();
  sweep.strategies = {Strategy::kSnipRh};
  sweep.zeta_targets_s = {16.0};
  sweep.seeds = {1};
  std::vector<BatchRun> runs = expand_sweep(sweep);
  BatchRun more_epochs = runs[0];
  more_epochs.epochs += 1;
  BatchRun no_jitter = runs[0];
  no_jitter.jitter = contact::IntervalJitter::kNone;
  BatchRun other_seed = runs[0];
  other_seed.seed = 99;
  BatchRun duplicate = runs[0];  // shares the first run's schedule
  runs.insert(runs.end(), {more_epochs, no_jitter, other_seed, duplicate});
  const std::uint64_t before = BatchRunner::schedule_builds();
  (void)BatchRunner{BatchRunner::Config{.threads = 2}}.run(runs);
  EXPECT_EQ(BatchRunner::schedule_builds() - before, 4u);
}

TEST(BatchRunnerTest, ZeroCaptureRunReportsTheWorstRho) {
  // 5 ms contacts close before any probe handshake completes: SNIP-AT
  // spends its whole budget and captures nothing. ρ is +∞, the worst
  // value, and JSON, which has no inf, writes it as null.
  SweepSpec sweep = small_sweep();
  sweep.scenario.tcontact_s = 0.005;
  sweep.strategies = {Strategy::kSnipAt};
  sweep.zeta_targets_s = {16.0};
  sweep.seeds = {1};
  const auto results = BatchRunner{}.run(expand_sweep(sweep));
  ASSERT_EQ(results.size(), 1U);
  EXPECT_EQ(results[0].run.mean_zeta_s, 0.0);
  EXPECT_GT(results[0].run.mean_phi_s, 0.0);
  EXPECT_TRUE(std::isinf(results[0].run.rho()));
  const auto cells = BatchRunner::aggregate(results);
  ASSERT_EQ(cells.size(), 1U);
  EXPECT_TRUE(std::isinf(cells[0].rho()));
  const std::string json = BatchRunner::to_json(results);
  EXPECT_NE(json.find("\"rho\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"rho\":0,"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(BatchRunnerTest, ZeroThreadConfigFallsBackToHardwareConcurrency) {
  const BatchRunner runner{BatchRunner::Config{.threads = 0}};
  EXPECT_GE(runner.threads(), 1u);
}

}  // namespace
}  // namespace snipr::core
