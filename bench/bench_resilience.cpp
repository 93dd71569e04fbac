/// Resilience sweep: how much probed contact capacity does the fault
/// plane cost?
///
/// Sweeps a grid of probe-miss probabilities x per-epoch crash rates on
/// the paper's road-side fleet and runs two policies through each point:
///  - adaptive-eps: the AdaptiveSnipRh learner with the epsilon-floor
///    exploration guarantee (amnesiac reboots — the hard mode), and
///  - snip-at: the static always-there baseline.
///
/// Reported per (fault mix, policy): mean zeta under faults, the same
/// policy's fault-free mean zeta, and `zeta_regret_s = fault_free -
/// faulted`. Zeta is probed contact capacity (departure minus awareness,
/// summed per epoch; higher is better), so the regret is the capacity
/// the fault mix costs: missed probes lose whole contacts or re-probe
/// them later. `detections_lost` and `crashes` ride along to say which
/// fault took it. The regret can go negative: an amnesiac adaptive node
/// reboots into its SNIP-AT learning phase, which spends more probing
/// budget and so probes more capacity than its learned mask would.
///
/// With --json FILE the rows are written as a machine-readable artifact
/// (schema "snipr.bench.resilience.v1"); tools/check_bench_regression.py
/// gates the regret counters *upward*: losing more capacity to the same
/// faults is the regression.
///
///   bench_resilience [--json FILE] [--seed N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "snipr/core/json_writer.hpp"
#include "snipr/core/scenario.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/fault/fault_plan.hpp"

namespace {

struct FaultMix {
  std::string name;
  double probe_miss;
  double crash_per_epoch;
};

struct PolicySpec {
  std::string name;
  snipr::core::Strategy strategy;
};

snipr::deploy::FleetSpec fleet_for(const PolicySpec& policy,
                                   const FaultMix& mix,
                                   std::uint64_t fault_seed) {
  using namespace snipr;
  deploy::RoadWorkload road;
  road.spacing_m = 300.0;
  road.range_m = 10.0;
  road.speed_mean_mps = 10.0;
  road.speed_stddev_mps = 1.5;
  road.speed_min_mps = 2.0;
  deploy::FleetSpec spec =
      deploy::FleetSpec::road(48, road, policy.strategy, 16.0);
  if (policy.strategy == core::Strategy::kAdaptive) {
    spec.exploration.kind = core::ExplorationPolicyKind::kEpsilonFloor;
  }
  if (mix.probe_miss > 0.0 || mix.crash_per_epoch > 0.0) {
    auto faults = std::make_shared<fault::FaultSpec>();
    faults->seed = fault_seed;
    faults->radio.probe_miss_prob = mix.probe_miss;
    faults->radio.snr_edge_weight = 0.5;
    faults->node.crash_prob_per_epoch = mix.crash_per_epoch;
    faults->node.restore_from_checkpoint = false;
    faults->node.reconvergence_overlap = 0.9;
    spec.faults = std::move(faults);
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snipr;

  std::string json_path;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(value(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }

  const std::vector<FaultMix> mixes = {
      {"miss0.0-crash0.0", 0.0, 0.0},
      {"miss0.1-crash0.0", 0.1, 0.0},
      {"miss0.2-crash0.0", 0.2, 0.0},
      {"miss0.0-crashwk", 0.0, 1.0 / 7.0},
      {"miss0.1-crashwk", 0.1, 1.0 / 7.0},
      {"miss0.2-crashwk", 0.2, 1.0 / 7.0},
  };
  const std::vector<PolicySpec> policies = {
      {"adaptive-eps", core::Strategy::kAdaptive},
      {"snip-at", core::Strategy::kSnipAt},
  };
  constexpr std::size_t kEpochs = 14;  // two faulted weeks

  const core::RoadsideScenario scenario;
  std::string rows;

  std::printf("# probed capacity lost to the fault plane (48-node road "
              "fleet, %zu epochs, amnesiac reboots; crashwk = 1 "
              "crash/node/week; regret = ff_zeta - mean_zeta)\n",
              kEpochs);
  std::printf("# %-18s %-13s %10s %10s %10s %8s %8s %8s\n", "faults",
              "policy", "mean_zeta", "ff_zeta", "regret", "lost",
              "crashes", "reconv");

  for (const PolicySpec& policy : policies) {
    double fault_free_zeta_s = 0.0;
    for (const FaultMix& mix : mixes) {
      const deploy::FleetSpec spec = fleet_for(policy, mix, seed + 17);
      deploy::FleetConfig config;
      config.deployment = deploy::make_fleet_deployment_config(
          scenario, spec, scenario.phi_max_small_s(), kEpochs, seed);
      const deploy::DeploymentOutcome outcome =
          deploy::FleetEngine{}.run(scenario, spec, config);

      // The first mix is the fault-free reference; every later row's
      // regret is the capacity lost against this policy's own clean run.
      if (spec.faults == nullptr) fault_free_zeta_s = outcome.mean_zeta_s;
      const double zeta_regret_s = fault_free_zeta_s - outcome.mean_zeta_s;

      std::uint64_t lost = 0;
      std::uint64_t crashes = 0;
      std::uint64_t reconvergence_epochs = 0;
      if (outcome.resilience.has_value()) {
        lost = outcome.resilience->probing.detections_lost;
        crashes = outcome.resilience->probing.crashes;
        reconvergence_epochs =
            outcome.resilience->probing.reconvergence_epochs;
      }

      std::printf("  %-18s %-13s %10.2f %10.2f %10.2f %8llu %8llu %8llu\n",
                  mix.name.c_str(), policy.name.c_str(),
                  outcome.mean_zeta_s, fault_free_zeta_s, zeta_regret_s,
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(crashes),
                  static_cast<unsigned long long>(reconvergence_epochs));

      if (!rows.empty()) rows += ',';
      rows += '{';
      core::json::append_string_field(rows, "scenario", mix.name);
      core::json::append_string_field(rows, "policy", policy.name);
      core::json::append_uint_field(rows, "epochs", kEpochs);
      core::json::append_field(rows, "mean_zeta_s", outcome.mean_zeta_s);
      core::json::append_field(rows, "fault_free_zeta_s", fault_free_zeta_s);
      core::json::append_field(rows, "zeta_regret_s", zeta_regret_s);
      core::json::append_uint_field(rows, "detections_lost", lost);
      core::json::append_uint_field(rows, "crashes", crashes);
      core::json::append_uint_field(rows, "reconvergence_epochs",
                                    reconvergence_epochs, false);
      rows += '}';
    }
  }
  std::printf("# reading: regret > 0 is capacity lost to the faults; "
              "regret < 0 means the faulted run probed more, e.g. an "
              "amnesiac learner back in its costlier learning phase\n");

  if (!json_path.empty()) {
    std::string json;
    core::json::open_document(json, core::json::kBenchResilienceSchemaV1);
    json += "\"rows\":[";
    json += rows;
    json += "]}";
    json += '\n';
    if (std::FILE* f = std::fopen(json_path.c_str(), "wb")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("# wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
