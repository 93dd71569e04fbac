/// snipr-cli — run contact-probing experiments from the command line.
///
/// The CLI is organised as subcommands:
///
///   snipr_cli run    [options]      one experiment, human or CSV output
///   snipr_cli batch  [options]      mechanism x target x budget x seed
///                                   sweep through the BatchRunner pool
///   snipr_cli fleet  NAME [options] a multi-node deployment (a fleet
///                                   catalog entry) through the sharded
///                                   FleetEngine
///   snipr_cli trace  NAME [options] replay a TraceCatalog workload (add
///                                   --batch for a sweep over it)
///   snipr_cli list   [scenarios|traces]  print the catalogs
///
/// Each subcommand has its own --help. An invocation that starts with a
/// flag instead of a subcommand word is a `run`; the old mode-selecting
/// flags (`--batch`, `--fleet`, `--trace`, `--list-scenarios`,
/// `--list-traces`) are rejected with a pointer at their subcommand.
///
/// Environments come from the named scenario library
/// (`core::ScenarioCatalog`). Without `--scenario` the defaults
/// reproduce the paper's road-side scenario: target 16 s, budget
/// Tepoch/1000 = 86.4 s, 14 epochs, jittered environment, SNIP-RH.
///
///   ./snipr_cli batch --scenario night-shift --mechanisms at,rh
///       --targets 16,24,32 --seeds 5
///   ./snipr_cli fleet fleet-multihop-relay --epochs 3 --json relay.json

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "snipr/core/batch_runner.hpp"
#include "snipr/core/experiment.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "snipr/core/strategy.hpp"
#include "snipr/deploy/fleet_engine.hpp"
#include "snipr/trace/trace_catalog.hpp"

namespace {

using namespace snipr;

enum class Mode { kRun, kBatch, kFleet, kTrace, kList };

struct Options {
  Mode mode{Mode::kRun};
  std::string scenario;  // empty = paper default (catalog "roadside")
  bool list_scenarios{false};
  bool list_traces{false};
  std::string mechanism{"rh"};
  double target_s{16.0};
  bool target_set{false};
  double budget_s{86.4};
  bool budget_set{false};
  bool ton_set{false};
  bool tcontact_set{false};
  std::size_t epochs{14};
  std::uint64_t seed{1};
  bool deterministic{false};
  std::size_t warmup{0};
  double ton_s{0.02};
  double tcontact_s{2.0};
  bool csv{false};
  bool help{false};
  // Batch mode.
  bool batch{false};
  std::string mechanisms{"at,opt,rh"};
  std::string targets{"16,24,32,40,48,56"};
  bool targets_set{false};
  std::string budgets{"86.4"};
  bool budgets_set{false};
  std::size_t seeds{1};
  std::size_t threads{0};  // 0 = hardware concurrency
  std::string json_path;   // empty = stdout
  // Fleet mode.
  std::string fleet;       // fleet catalog entry name
  std::size_t shards{0};   // 0 = the engines' default partition
  // Trace mode.
  std::string trace;       // trace catalog entry name
  std::string trace_dir;   // data dir override for file-backed entries
  // Day-to-day replay jitter: non-zero by default so seeds (and seed
  // sweeps in --batch) actually vary; 0 replays the trace exactly.
  double replay_jitter_s{5.0};
};

/// The flags a subcommand reads. A flag outside its subcommand's set
/// would be parsed and then ignored, so it is a usage error instead.
bool reads_flag(const Options& opt, std::string_view flag) {
  const auto in = [flag](std::initializer_list<std::string_view> set) {
    return std::find(set.begin(), set.end(), flag) != set.end();
  };
  // The environment and horizon of a single run or a sweep.
  const bool environment =
      in({"--epochs", "--warmup", "--deterministic", "--ton", "--tcontact"});
  const bool single = in({"--mechanism", "--target", "--budget", "--seed",
                          "--csv"});
  const bool sweep = in({"--batch", "--mechanisms", "--targets", "--budgets",
                         "--target", "--budget", "--seeds", "--threads",
                         "--json"});
  switch (opt.mode) {
    case Mode::kRun:
      return environment || single || flag == "--scenario";
    case Mode::kBatch:
      return environment || sweep || flag == "--scenario";
    case Mode::kTrace:
      return environment || (opt.batch ? sweep : single) ||
             in({"--batch", "--trace-dir", "--replay-jitter"});
    case Mode::kFleet:
      return in({"--shards", "--threads", "--epochs", "--seed", "--json"});
    case Mode::kList:
      return false;
  }
  return false;
}

const char* subcommand_name(const Options& opt) {
  switch (opt.mode) {
    case Mode::kRun:
      return "run";
    case Mode::kBatch:
      return "batch";
    case Mode::kTrace:
      return opt.batch ? "trace --batch" : "trace";
    case Mode::kFleet:
      return "fleet";
    case Mode::kList:
      return "list";
  }
  return "run";
}

void print_common_flags() {
  std::printf(
      "common options:\n"
      "  --epochs N                     epochs to simulate (default 14)\n"
      "  --warmup N                     epochs excluded from averages\n"
      "  --deterministic                no interval jitter (analysis env)\n"
      "  --ton S                        SNIP wakeup on-time (default 0.02)\n"
      "  --tcontact S                   mean contact length (default 2)\n");
}

void print_usage(const char* argv0, Mode mode) {
  switch (mode) {
    case Mode::kRun:
      std::printf(
          "usage: %s run [options]\n"
          "  --scenario NAME                named environment from the "
          "catalog\n"
          "  --mechanism at|opt|rh|adaptive scheduling policy (default rh)\n"
          "  --target S                     zeta target per epoch, seconds\n"
          "  --budget S                     probing budget per epoch, "
          "seconds\n"
          "  --seed N                       RNG seed (default 1)\n"
          "  --csv                          machine-readable output\n",
          argv0);
      print_common_flags();
      return;
    case Mode::kBatch:
      std::printf(
          "usage: %s batch [options]\n"
          "  --scenario NAME                named environment from the "
          "catalog\n"
          "  --mechanisms a,b,...           grid mechanisms (default "
          "at,opt,rh)\n"
          "  --targets s1,s2,...            grid zeta targets, seconds\n"
          "  --budgets s1,s2,...            grid budgets, seconds\n"
          "  --target S, --budget S         a one-value grid\n"
          "  --seeds N                      seeds 1..N per grid point\n"
          "  --threads N                    worker threads (default: all "
          "cores)\n"
          "  --json FILE                    write JSON to FILE (default "
          "stdout)\n",
          argv0);
      print_common_flags();
      return;
    case Mode::kFleet:
      std::printf(
          "usage: %s fleet NAME [options]\n"
          "run a fleet catalog entry (see '%s list scenarios') through the\n"
          "sharded FleetEngine; entries with a RoutingSpec also run the\n"
          "multi-hop collection pass and emit the v2 network outcome.\n"
          "  --shards N                     simulator shards (default: one\n"
          "                                 per hardware thread or 16\n"
          "                                 nodes, rounded up to a\n"
          "                                 multiple of the workers; never\n"
          "                                 changes the results, only the\n"
          "                                 wall clock)\n"
          "  --threads N                    worker threads\n"
          "  --epochs N                     epochs to simulate\n"
          "  --seed N                       RNG seed (default 1)\n"
          "  --json FILE                    write fleet JSON to FILE\n",
          argv0, argv0);
      return;
    case Mode::kTrace:
      std::printf(
          "usage: %s trace NAME [options]\n"
          "replay a trace catalog workload (see '%s list traces'): the\n"
          "trace drives the channel while the planners see the profile\n"
          "estimated from it. Add --batch for a sweep over the replay.\n"
          "  --trace-dir DIR                data dir for checked-in corpora\n"
          "  --replay-jitter S              per-contact day-to-day jitter\n"
          "                                 stddev (default 5; 0 = exact\n"
          "                                 replay, all seeds identical)\n"
          "  --batch                        sweep over the replay (then the\n"
          "                                 'batch' options apply, but not\n"
          "                                 --scenario)\n"
          "  --mechanism, --target, --budget, --seed, --csv\n"
          "                                 as in 'run' (without --batch)\n",
          argv0, argv0);
      print_common_flags();
      return;
    case Mode::kList:
      std::printf(
          "usage: %s list [scenarios|traces]\n"
          "print the scenario and/or trace catalogs (default: both).\n",
          argv0);
      return;
  }
}

void print_overview(const char* argv0) {
  std::printf(
      "usage: %s <subcommand> [options]\n"
      "  run      one experiment (default when invoked with bare flags)\n"
      "  batch    mechanism x target x budget x seed sweep, aggregate JSON\n"
      "  fleet    a multi-node deployment through the sharded FleetEngine\n"
      "  trace    replay a trace-catalog workload\n"
      "  list     print the scenario / trace catalogs\n"
      "run '%s <subcommand> --help' for that subcommand's options.\n",
      argv0, argv0);
}

/// Parse a comma-separated list of finite numbers; false (and a
/// diagnostic) on any token atof would silently fold to 0, and on
/// nan/inf, which strtod accepts.
bool parse_double_list(const char* flag, const std::string& list,
                       std::vector<double>& out) {
  out.clear();
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) {
      const std::string token = list.substr(start, end - start);
      char* token_end = nullptr;
      const double value = std::strtod(token.c_str(), &token_end);
      if (token_end == token.c_str() || *token_end != '\0' ||
          !std::isfinite(value)) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", flag,
                     token.c_str());
        return false;
      }
      out.push_back(value);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// The flags that selected a mode before subcommands existed: rejected
/// with a pointer at the subcommand that replaced them. Returns false,
/// the parse result.
bool reject_mode_flag(const std::string& arg, const char* replacement) {
  std::fprintf(stderr, "'%s' is not an option; use '%s'\n", arg.c_str(),
               replacement);
  return false;
}

bool parse(int argc, char** argv, int first, Options& opt) {
  // Every option flag given, checked against the subcommand's own set
  // once the whole command line (and so `trace --batch`) is known.
  std::vector<std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto take_string = [&](std::string& out) {
      const char* v = next_value();
      if (v == nullptr) return false;
      out = v;
      return true;
    };
    auto take_double = [&](double& out) {
      const char* v = next_value();
      if (v == nullptr) return false;
      char* end = nullptr;
      out = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(out)) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", arg.c_str(), v);
        return false;
      }
      return true;
    };
    auto take_size = [&](std::size_t& out) {
      const char* v = next_value();
      if (v == nullptr) return false;
      char* end = nullptr;
      const long long parsed = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s: invalid count '%s'\n", arg.c_str(), v);
        return false;
      }
      out = static_cast<std::size_t>(parsed);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
      return true;
    }
    if (!arg.empty() && arg[0] != '-') {
      // Subcommand positionals: the fleet / trace entry name, or the
      // list filter. Anything else is a stray word.
      if (opt.mode == Mode::kFleet && opt.fleet.empty()) {
        opt.fleet = arg;
        continue;
      }
      if (opt.mode == Mode::kTrace && opt.trace.empty()) {
        opt.trace = arg;
        continue;
      }
      if (opt.mode == Mode::kList && !opt.list_scenarios &&
          !opt.list_traces) {
        if (arg == "scenarios") {
          opt.list_scenarios = true;
          continue;
        }
        if (arg == "traces") {
          opt.list_traces = true;
          continue;
        }
        std::fprintf(stderr, "list: unknown catalog '%s' (scenarios or "
                             "traces)\n", arg.c_str());
        return false;
      }
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    flags.push_back(arg);
    if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--batch") {
      // A sweep over a trace replay; redundant under batch itself.
      if (opt.mode != Mode::kBatch && opt.mode != Mode::kTrace) {
        return reject_mode_flag(arg, "snipr_cli batch");
      }
      opt.batch = true;
    } else if (arg == "--list-scenarios") {
      return reject_mode_flag(arg, "snipr_cli list scenarios");
    } else if (arg == "--list-traces") {
      return reject_mode_flag(arg, "snipr_cli list traces");
    } else if (arg == "--scenario") {
      if (!take_string(opt.scenario)) return false;
    } else if (arg == "--fleet") {
      return reject_mode_flag(arg, "snipr_cli fleet NAME");
    } else if (arg == "--trace") {
      return reject_mode_flag(arg, "snipr_cli trace NAME");
    } else if (arg == "--trace-dir") {
      if (!take_string(opt.trace_dir)) return false;
    } else if (arg == "--replay-jitter") {
      if (!take_double(opt.replay_jitter_s)) return false;
      if (opt.replay_jitter_s < 0.0) {
        std::fprintf(stderr, "--replay-jitter: must be >= 0\n");
        return false;
      }
    } else if (arg == "--shards") {
      if (!take_size(opt.shards)) return false;
    } else if (arg == "--deterministic") {
      opt.deterministic = true;
    } else if (arg == "--mechanism") {
      if (!take_string(opt.mechanism)) return false;
      if (!core::parse_strategy(opt.mechanism)) {
        std::fprintf(stderr, "unknown mechanism '%s'\n",
                     opt.mechanism.c_str());
        return false;
      }
    } else if (arg == "--mechanisms") {
      if (!take_string(opt.mechanisms)) return false;
    } else if (arg == "--targets") {
      if (!take_string(opt.targets)) return false;
      opt.targets_set = true;
    } else if (arg == "--budgets") {
      if (!take_string(opt.budgets)) return false;
      opt.budgets_set = true;
    } else if (arg == "--json") {
      if (!take_string(opt.json_path)) return false;
    } else if (arg == "--target") {
      if (!take_double(opt.target_s)) return false;
      opt.target_set = true;
    } else if (arg == "--budget") {
      if (!take_double(opt.budget_s)) return false;
      opt.budget_set = true;
    } else if (arg == "--ton") {
      if (!take_double(opt.ton_s)) return false;
      opt.ton_set = true;
    } else if (arg == "--tcontact") {
      if (!take_double(opt.tcontact_s)) return false;
      opt.tcontact_set = true;
    } else if (arg == "--epochs") {
      if (!take_size(opt.epochs)) return false;
    } else if (arg == "--warmup") {
      if (!take_size(opt.warmup)) return false;
    } else if (arg == "--seeds") {
      if (!take_size(opt.seeds)) return false;
    } else if (arg == "--threads") {
      if (!take_size(opt.threads)) return false;
    } else if (arg == "--seed") {
      const char* v = next_value();
      if (v == nullptr) return false;
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      // strtoull silently wraps negatives to huge seeds; reject them.
      if (end == v || *end != '\0' || v[0] == '-') {
        std::fprintf(stderr, "--seed: invalid count '%s'\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  for (const std::string& flag : flags) {
    if (!reads_flag(opt, flag)) {
      std::fprintf(stderr, "'%s' is not an option of '%s'\n", flag.c_str(),
                   subcommand_name(opt));
      return false;
    }
  }
  return true;
}

void print_scenarios(std::FILE* out) {
  std::fprintf(out, "scenarios (run NAME via --scenario, or 'fleet NAME'\n"
                    "for the entries marked [fleet]):\n");
  for (const core::CatalogEntry& entry :
       core::ScenarioCatalog::instance().entries()) {
    std::fprintf(out, "  %-22s %s%s\n", entry.name.c_str(),
                 entry.is_fleet() ? "[fleet] " : "",
                 entry.description.c_str());
  }
}

void print_traces(std::FILE* out) {
  std::fprintf(out,
               "traces ('trace NAME'; file-backed entries resolve against\n"
               "--trace-dir, $SNIPR_TRACE_DATA_DIR, or %s):\n",
               trace::TraceCatalog::default_data_dir().c_str());
  for (const trace::TraceEntry& entry :
       trace::TraceCatalog::instance().entries()) {
    const bool from_file = entry.source == trace::TraceSource::kFile;
    std::fprintf(out, "  %-24s %s%s\n", entry.name.c_str(),
                 from_file ? "[file] " : "[generator] ",
                 entry.description.c_str());
  }
}

/// Resolve the trace name into a replay scenario through the one shared
/// trace-to-environment rule (`core::make_replay_scenario`): the top
/// slots/6 busiest slots become the mask, and the replay carries
/// --replay-jitter of day-to-day variation (so different seeds differ).
int build_trace_scenario(const Options& opt, core::RoadsideScenario& scenario,
                         std::string& label) {
  const trace::TraceEntry* entry =
      trace::TraceCatalog::instance().find(opt.trace);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown trace '%s'\n", opt.trace.c_str());
    print_traces(stderr);
    return 2;
  }
  try {
    auto contacts = std::make_shared<const std::vector<contact::Contact>>(
        trace::TraceCatalog::load(*entry, opt.trace_dir));
    scenario = core::make_replay_scenario(
        *entry, std::move(contacts),
        std::max<std::size_t>(1, entry->slots / 6), opt.replay_jitter_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot load trace '%s': %s\n", entry->name.c_str(),
                 e.what());
    return 1;
  }
  label = "trace:" + entry->name;
  return 0;
}

int run_fleet(const Options& opt) {
  const core::CatalogEntry* entry =
      core::ScenarioCatalog::instance().find(opt.fleet);
  if (entry == nullptr || !entry->is_fleet()) {
    std::fprintf(stderr, "%s '%s'; fleet entries:\n",
                 entry == nullptr ? "unknown scenario"
                                  : "not a fleet scenario",
                 opt.fleet.c_str());
    for (const core::CatalogEntry& e :
         core::ScenarioCatalog::instance().entries()) {
      if (e.is_fleet()) {
        std::fprintf(stderr, "  %-22s %s\n", e.name.c_str(),
                     e.description.c_str());
      }
    }
    return 2;
  }

  deploy::FleetConfig config;
  config.deployment = deploy::make_fleet_deployment_config(
      entry->scenario, *entry->fleet, entry->phi_max_s, opt.epochs, opt.seed);
  config.shards = opt.shards;
  config.threads = opt.threads;
  deploy::DeploymentOutcome outcome;
  try {
    outcome = deploy::FleetEngine{}.run(entry->scenario, *entry->fleet, config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (!opt.json_path.empty()) {
    const std::string json = deploy::FleetEngine::to_json(outcome);
    if (!core::BatchRunner::write_json_file(json, opt.json_path.c_str())) {
      return 1;
    }
    std::fprintf(stderr, "wrote %zu-node fleet outcome to %s\n",
                 outcome.nodes.size(), opt.json_path.c_str());
    return 0;
  }

  const std::string_view mechanism =
      core::strategy_name(entry->fleet->strategy);
  std::printf("fleet %s: %zu nodes x %zu epochs (%.*s per node)\n",
              entry->name.c_str(), outcome.nodes.size(), opt.epochs,
              static_cast<int>(mechanism.size()), mechanism.data());
  std::printf("  fleet capacity   Σζ = %12.1f s/epoch\n",
              outcome.total_zeta_s);
  std::printf("  fleet overhead   ΣΦ = %12.1f s/epoch\n",
              outcome.total_phi_s);
  std::printf("  per-node ζ       mean %.2f s  stddev %.3f s  [%.2f, %.2f]\n",
              outcome.mean_zeta_s, outcome.zeta_stddev_s, outcome.min_zeta_s,
              outcome.max_zeta_s);
  std::printf("  Jain fairness       = %8.4f\n", outcome.zeta_fairness);
  if (outcome.network.has_value()) {
    const deploy::NetworkOutcome& net = *outcome.network;
    std::printf("  multi-hop collection (%s / %s):\n",
                deploy::to_string(entry->fleet->routing->forwarding),
                deploy::to_string(entry->fleet->routing->drop_policy));
    std::printf("    delivery ratio    = %7.3f%%  (%.3g of %.3g MB)\n",
                100.0 * net.delivery_ratio, net.delivered_bytes / 1e6,
                net.generated_bytes / 1e6);
    std::printf("    latency p50/p99   = %.0f s / %.0f s\n",
                net.latency_p50_s, net.latency_p99_s);
    std::printf("    custody           = %llu pickups, %llu deposits, "
                "%llu deliveries (mean %.2f hops)\n",
                static_cast<unsigned long long>(net.pickups),
                static_cast<unsigned long long>(net.deposits),
                static_cast<unsigned long long>(net.deliveries),
                net.mean_hops);
  }
  return 0;
}

int run_batch(const Options& opt, const core::RoadsideScenario& scenario,
              const std::string& label, const core::CatalogEntry* entry,
              double default_budget_s) {
  core::SweepSpec sweep;
  sweep.label = label;
  sweep.scenario = scenario;
  sweep.strategies.clear();
  for (const std::string& id : split_csv(opt.mechanisms)) {
    const auto strategy = core::parse_strategy(id);
    if (!strategy) {
      std::fprintf(stderr, "unknown mechanism '%s'\n", id.c_str());
      return 2;
    }
    sweep.strategies.push_back(*strategy);
  }
  if (!parse_double_list("--targets", opt.targets, sweep.zeta_targets_s) ||
      !parse_double_list("--budgets", opt.budgets, sweep.phi_maxes_s)) {
    return 2;
  }
  // Grid precedence: the plural flags win, then the singular single-run
  // flags (a one-point grid), then the environment's own default budget
  // (a catalog entry's pinned budget, or the trace-derived one) and a
  // named entry's representative targets (the golden-corpus grid) — so
  // `trace X` and `trace X --batch` run under the same budget.
  if (!opt.budgets_set) {
    sweep.phi_maxes_s = {opt.budget_set ? opt.budget_s : default_budget_s};
  }
  if (!opt.targets_set) {
    if (opt.target_set) {
      sweep.zeta_targets_s = {opt.target_s};
    } else if (entry != nullptr) {
      sweep.zeta_targets_s = entry->zeta_targets_s;
    }
  }
  sweep.seeds.clear();
  for (std::uint64_t seed = 1; seed <= opt.seeds; ++seed) {
    sweep.seeds.push_back(seed);
  }
  sweep.epochs = opt.epochs;
  sweep.warmup_epochs = opt.warmup;
  sweep.jitter = opt.deterministic ? contact::IntervalJitter::kNone
                                   : contact::IntervalJitter::kNormalTenth;
  if (sweep.strategies.empty() || sweep.zeta_targets_s.empty() ||
      sweep.phi_maxes_s.empty() || sweep.seeds.empty()) {
    std::fprintf(stderr, "empty batch grid\n");
    return 2;
  }

  const core::BatchRunner runner{
      core::BatchRunner::Config{.threads = opt.threads}};
  std::vector<core::BatchRunResult> results;
  try {
    results = runner.run(core::expand_sweep(sweep));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::string json = core::BatchRunner::to_json(results);

  if (opt.json_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    if (!core::BatchRunner::write_json_file(json, opt.json_path.c_str())) {
      return 1;
    }
    std::fprintf(stderr, "wrote %zu runs to %s\n", results.size(),
                 opt.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int first = 1;
  if (argc > 1 && argv[1][0] != '-') {
    const std::string_view word{argv[1]};
    if (word == "run") {
      opt.mode = Mode::kRun;
    } else if (word == "batch") {
      opt.mode = Mode::kBatch;
      opt.batch = true;
    } else if (word == "fleet") {
      opt.mode = Mode::kFleet;
    } else if (word == "trace") {
      opt.mode = Mode::kTrace;
    } else if (word == "list") {
      opt.mode = Mode::kList;
    } else {
      std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
      print_overview(argv[0]);
      return 2;
    }
    first = 2;
  }
  if (!parse(argc, argv, first, opt)) {
    print_usage(argv[0], opt.mode);
    return 2;
  }
  if (opt.help) {
    // Bare `--help` names the subcommands; `SUB --help` details one.
    if (first == 1) {
      print_overview(argv[0]);
    } else {
      print_usage(argv[0], opt.mode);
    }
    return 0;
  }
  if (opt.mode == Mode::kList) {
    // The subcommand's positional narrows to one catalog; bare `list`
    // prints both.
    const bool both = opt.list_scenarios == opt.list_traces;
    if (both || opt.list_scenarios) print_scenarios(stdout);
    if (both || opt.list_traces) print_traces(stdout);
    return 0;
  }
  if (opt.mode == Mode::kFleet && opt.fleet.empty()) {
    std::fprintf(stderr, "fleet: missing entry NAME\n");
    print_usage(argv[0], Mode::kFleet);
    return 2;
  }
  if (opt.mode == Mode::kTrace && opt.trace.empty()) {
    std::fprintf(stderr, "trace: missing workload NAME\n");
    print_usage(argv[0], Mode::kTrace);
    return 2;
  }
  if (opt.mode == Mode::kFleet) return run_fleet(opt);

  core::RoadsideScenario scenario;
  std::string label{"roadside"};
  double default_budget_s = 86.4;
  const core::CatalogEntry* entry = nullptr;
  if (!opt.trace.empty()) {
    if (const int rc = build_trace_scenario(opt, scenario, label); rc != 0) {
      return rc;
    }
    default_budget_s = scenario.phi_max_small_s();
  }
  if (!opt.scenario.empty()) {
    entry = core::ScenarioCatalog::instance().find(opt.scenario);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s'\n", opt.scenario.c_str());
      print_scenarios(stderr);
      return 2;
    }
    // A fleet entry's environment is its FleetSpec; running its
    // placeholder per-node scenario here would silently report a
    // single-node result under the fleet's name.
    if (entry->is_fleet()) {
      std::fprintf(stderr,
                   "'%s' is a fleet scenario; run it with 'snipr_cli "
                   "fleet %s'\n",
                   opt.scenario.c_str(), opt.scenario.c_str());
      return 2;
    }
    scenario = entry->scenario;
    label = entry->name;
    default_budget_s = entry->phi_max_s;
  }
  // Overrides make the environment no longer the catalog entry: mark the
  // label so JSON grouped by it is never conflated with the pinned
  // catalog (and golden-corpus) environment of the same name.
  if (opt.ton_set) {
    scenario.snip.ton_s = opt.ton_s;
    char marker[32];
    std::snprintf(marker, sizeof marker, "+ton=%g", opt.ton_s);
    label += marker;
  }
  if (opt.tcontact_set) {
    scenario.tcontact_s = opt.tcontact_s;
    char marker[32];
    std::snprintf(marker, sizeof marker, "+tcontact=%g", opt.tcontact_s);
    label += marker;
  }

  if (opt.batch) {
    return run_batch(opt, scenario, label, entry, default_budget_s);
  }

  const double budget_s = opt.budget_set ? opt.budget_s : default_budget_s;
  core::ExperimentConfig cfg;
  cfg.epochs = opt.epochs;
  cfg.phi_max_s = budget_s;
  cfg.sensing_rate_bps = scenario.sensing_rate_for_target(opt.target_s);
  cfg.jitter = opt.deterministic ? contact::IntervalJitter::kNone
                                 : contact::IntervalJitter::kNormalTenth;
  cfg.seed = opt.seed;
  cfg.warmup_epochs = opt.warmup;

  const core::Strategy strategy = *core::parse_strategy(opt.mechanism);
  core::RunResult r;
  try {
    // The scheduler's constructor rejects a zero Ton or Tcontact.
    const std::unique_ptr<node::Scheduler> scheduler =
        core::make_scheduler(scenario, strategy, opt.target_s, budget_s);
    r = core::run_experiment(scenario, *scheduler, cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (opt.csv) {
    std::printf(
        "mechanism,target_s,budget_s,epochs,seed,zeta_s,phi_s,rho,"
        "miss_ratio,latency_s,probing_j\n");
    std::printf("%s,%.3f,%.3f,%zu,%llu,%.4f,%.4f,%.4f,%.4f,%.1f,%.4f\n",
                opt.mechanism.c_str(), opt.target_s, budget_s, r.epochs,
                static_cast<unsigned long long>(opt.seed), r.mean_zeta_s,
                r.mean_phi_s, r.rho(), r.miss_ratio,
                r.mean_delivery_latency_s, r.probing_energy_j);
  } else {
    std::printf("%s over %zu epochs (target %.1f s, budget %.1f s):\n",
                r.scheduler_name.c_str(), r.epochs, opt.target_s,
                budget_s);
    std::printf("  probed capacity   ζ = %8.2f s/epoch %s\n", r.mean_zeta_s,
                r.mean_zeta_s + 0.5 >= opt.target_s ? "(target met)"
                                                    : "(below target)");
    std::printf("  probing overhead  Φ = %8.2f s/epoch\n", r.mean_phi_s);
    std::printf("  per-unit cost     ρ = %8.2f\n", r.rho());
    std::printf("  contact miss ratio  = %7.1f%%\n", 100.0 * r.miss_ratio);
    std::printf("  delivery latency    = %8.2f h\n",
                r.mean_delivery_latency_s / 3600.0);
    std::printf("  probing energy      = %8.3f J/epoch\n",
                r.probing_energy_j);
  }
  return 0;
}
