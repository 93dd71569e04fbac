#include "snipr/core/batch_runner.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "snipr/core/json_writer.hpp"
#include "snipr/core/thread_pool.hpp"

namespace snipr::core {

ExperimentConfig BatchRun::experiment_config() const {
  ExperimentConfig config;
  config.epochs = epochs;
  config.phi_max_s = phi_max_s;
  config.sensing_rate_bps = scenario.sensing_rate_for_target(zeta_target_s);
  config.jitter = jitter;
  config.seed = seed;
  config.warmup_epochs = warmup_epochs;
  return config;
}

std::vector<BatchRun> expand_sweep(const SweepSpec& sweep) {
  std::vector<BatchRun> runs;
  runs.reserve(sweep.strategies.size() * sweep.zeta_targets_s.size() *
               sweep.phi_maxes_s.size() * sweep.seeds.size());
  for (const Strategy strategy : sweep.strategies) {
    for (const double target : sweep.zeta_targets_s) {
      for (const double phi_max : sweep.phi_maxes_s) {
        for (const std::uint64_t seed : sweep.seeds) {
          BatchRun run;
          run.label = sweep.label;
          run.scenario = sweep.scenario;
          run.strategy = strategy;
          run.zeta_target_s = target;
          run.phi_max_s = phi_max;
          run.seed = seed;
          run.epochs = sweep.epochs;
          run.warmup_epochs = sweep.warmup_epochs;
          run.jitter = sweep.jitter;
          runs.push_back(std::move(run));
        }
      }
    }
  }
  return runs;
}

BatchRunner::BatchRunner(Config config) : threads_(config.threads) {
  if (threads_ == 0) threads_ = ThreadPool::hardware_threads();
}

namespace {

std::atomic<std::uint64_t> g_schedule_builds{0};

/// Byte-exact identity of the schedule a BatchRun would materialise:
/// every input of RoadsideScenario::make_schedule and of the RNG stream
/// feeding it. Equal keys guarantee bit-identical schedules; replay
/// workloads compare by corpus pointer (conservative — equal contents at
/// two addresses simply build twice).
std::string schedule_key(const BatchRun& run) {
  std::string key;
  key.reserve(64 + 8 * run.scenario.profile.slot_count());
  const auto put = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const auto put_u64 = [&put](std::uint64_t v) { put(&v, sizeof v); };
  put_u64(run.epochs);
  put_u64(static_cast<std::uint64_t>(run.jitter));
  put_u64(run.seed);
  put_u64(std::bit_cast<std::uint64_t>(run.scenario.tcontact_s));
  put_u64(std::bit_cast<std::uint64_t>(run.scenario.replay_jitter_s));
  put_u64(static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(run.scenario.replay.get())));
  put_u64(static_cast<std::uint64_t>(run.scenario.profile.epoch().count()));
  for (std::size_t s = 0; s < run.scenario.profile.slot_count(); ++s) {
    put_u64(std::bit_cast<std::uint64_t>(
        run.scenario.profile.mean_interval_s(s)));
  }
  return key;
}

BatchRunResult execute_one(
    const BatchRun& spec,
    std::shared_ptr<const contact::ContactSchedule> schedule) {
  std::unique_ptr<node::Scheduler> scheduler =
      spec.scheduler_factory
          ? spec.scheduler_factory()
          : make_scheduler(spec.scenario, spec.strategy, spec.zeta_target_s,
                           spec.phi_max_s);
  BatchRunResult result;
  result.label = spec.label;
  result.strategy = spec.strategy;
  result.zeta_target_s = spec.zeta_target_s;
  result.phi_max_s = spec.phi_max_s;
  result.seed = spec.seed;
  result.run = run_experiment_on_schedule(
      spec.scenario, std::move(schedule), *scheduler,
      spec.experiment_config());
  return result;
}

}  // namespace

std::uint64_t BatchRunner::schedule_builds() noexcept {
  return g_schedule_builds.load(std::memory_order_relaxed);
}

std::vector<BatchRunResult> BatchRunner::run(
    const std::vector<BatchRun>& runs) const {
  // Group runs whose schedule inputs coincide; each group materialises
  // its schedule once and shares it read-only across the group's runs.
  std::unordered_map<std::string, std::size_t> group_index;
  std::vector<std::size_t> group_rep;           // group -> first run index
  std::vector<std::size_t> group_of(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto [it, inserted] =
        group_index.try_emplace(schedule_key(runs[i]), group_rep.size());
    if (inserted) group_rep.push_back(i);
    group_of[i] = it->second;
  }

  const ThreadPool pool{threads_};
  std::vector<std::shared_ptr<const contact::ContactSchedule>> schedules(
      group_rep.size());
  pool.parallel_for(group_rep.size(), [&](std::size_t g) {
    const BatchRun& spec = runs[group_rep[g]];
    // The same fresh Rng{seed} stream run_experiment used to draw, so
    // the shared schedule is bit-identical to a per-run build.
    sim::Rng rng{spec.seed};
    schedules[g] = std::make_shared<const contact::ContactSchedule>(
        spec.scenario.make_schedule(spec.epochs, spec.jitter, rng));
    g_schedule_builds.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<BatchRunResult> results(runs.size());
  // Result slot i belongs to spec i and each run seeds its own node,
  // so worker assignment cannot influence output order or RNG streams.
  pool.parallel_for(runs.size(), [&](std::size_t i) {
    results[i] = execute_one(runs[i], schedules[group_of[i]]);
  });
  return results;
}

namespace {

/// Aggregate cell identity, hashed directly — no per-result string
/// rebuild. The label view borrows from the result row, which outlives
/// the map. Doubles compare by bit pattern so equal keys always hash
/// equally (matching the exact "%.17g" round-trip this replaces).
struct CellKey {
  std::string_view label;
  Strategy strategy;
  std::uint64_t zeta_bits;
  std::uint64_t phi_bits;

  bool operator==(const CellKey&) const = default;
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& k) const noexcept {
    std::size_t h = std::hash<std::string_view>{}(k.label);
    const auto mix = [&h](std::uint64_t v) {
      h ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ULL + (h << 6) +
           (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.strategy));
    mix(k.zeta_bits);
    mix(k.phi_bits);
    return h;
  }
};

}  // namespace

std::vector<BatchAggregate> BatchRunner::aggregate(
    const std::vector<BatchRunResult>& results) {
  std::vector<BatchAggregate> cells;
  cells.reserve(results.size());
  // First-appearance order with O(1) grouping.
  std::unordered_map<CellKey, std::size_t, CellKeyHash> cell_index;
  cell_index.reserve(results.size());
  for (const BatchRunResult& r : results) {
    const CellKey key{r.label, r.strategy,
                      std::bit_cast<std::uint64_t>(r.zeta_target_s),
                      std::bit_cast<std::uint64_t>(r.phi_max_s)};
    const auto [it, inserted] = cell_index.try_emplace(key, cells.size());
    if (inserted) {
      cells.emplace_back();
      BatchAggregate& fresh = cells.back();
      fresh.label = r.label;
      fresh.strategy = r.strategy;
      fresh.zeta_target_s = r.zeta_target_s;
      fresh.phi_max_s = r.phi_max_s;
    }
    BatchAggregate* cell = &cells[it->second];
    cell->seeds += 1;
    cell->mean_zeta_s += r.run.mean_zeta_s;
    cell->mean_phi_s += r.run.mean_phi_s;
    cell->mean_miss_ratio += r.run.miss_ratio;
    cell->mean_probes_issued += r.run.mean_wakeups;
    cell->mean_energy_per_contact_j += r.energy_per_contact_j();
    cell->mean_probing_energy_j += r.run.probing_energy_j;
    cell->mean_delivery_latency_s += r.run.mean_delivery_latency_s;
  }
  for (BatchAggregate& cell : cells) {
    const auto n = static_cast<double>(cell.seeds);
    cell.mean_zeta_s /= n;
    cell.mean_phi_s /= n;
    cell.mean_miss_ratio /= n;
    cell.mean_probes_issued /= n;
    cell.mean_energy_per_contact_j /= n;
    cell.mean_probing_energy_j /= n;
    cell.mean_delivery_latency_s /= n;
  }
  return cells;
}

std::string BatchRunner::to_json(const std::vector<BatchRunResult>& results) {
  using json::append_field;
  using json::append_string_field;
  using json::append_uint_field;

  std::string out;
  out.reserve(512 + 512 * results.size());
  json::open_document(out, json::kBatchSchemaV1);
  out += "\"runs\":[";
  bool first = true;
  for (const BatchRunResult& r : results) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_string_field(out, "label", r.label);
    append_string_field(out, "strategy", strategy_id(r.strategy));
    append_field(out, "target_s", r.zeta_target_s);
    append_field(out, "phi_max_s", r.phi_max_s);
    append_uint_field(out, "seed", r.seed);
    append_uint_field(out, "epochs", r.run.epochs);
    append_field(out, "zeta_s", r.run.mean_zeta_s);
    append_field(out, "phi_s", r.run.mean_phi_s);
    append_field(out, "rho", r.run.rho());
    append_field(out, "miss_ratio", r.run.miss_ratio);
    append_field(out, "probes_issued", r.run.mean_wakeups);
    append_field(out, "energy_per_contact_j", r.energy_per_contact_j());
    append_field(out, "probing_energy_j", r.run.probing_energy_j);
    append_field(out, "transfer_energy_j", r.run.transfer_energy_j);
    append_field(out, "latency_s", r.run.mean_delivery_latency_s,
                 /*comma=*/false);
    out += '}';
  }
  out += "],\"aggregates\":[";
  first = true;
  for (const BatchAggregate& cell : aggregate(results)) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_string_field(out, "label", cell.label);
    append_string_field(out, "strategy", strategy_id(cell.strategy));
    append_field(out, "target_s", cell.zeta_target_s);
    append_field(out, "phi_max_s", cell.phi_max_s);
    append_uint_field(out, "seeds", cell.seeds);
    append_field(out, "zeta_s", cell.mean_zeta_s);
    append_field(out, "phi_s", cell.mean_phi_s);
    append_field(out, "rho", cell.rho());
    append_field(out, "miss_ratio", cell.mean_miss_ratio);
    append_field(out, "probes_issued", cell.mean_probes_issued);
    append_field(out, "energy_per_contact_j", cell.mean_energy_per_contact_j);
    append_field(out, "probing_energy_j", cell.mean_probing_energy_j);
    append_field(out, "latency_s", cell.mean_delivery_latency_s,
                 /*comma=*/false);
    out += '}';
  }
  out += "]}";
  return out;
}

bool BatchRunner::write_json_file(const std::string& json, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    std::fprintf(stderr, "short write to %s\n", path);
    return false;
  }
  return true;
}

}  // namespace snipr::core
