#include "snipr/deploy/fleet_streaming.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snipr/core/checkpoint_io.hpp"
#include "snipr/core/crc32.hpp"
#include "snipr/core/json_writer.hpp"
#include "snipr/stats/online_stats.hpp"
#include "snipr/stats/quantile_sketch.hpp"
#include "fleet_inputs.hpp"

namespace snipr::deploy {
namespace {

/// Running aggregate across all folded shards — the entire resident
/// state of a streaming run between checkpoints.
struct Accumulator {
  FleetTotals totals;
  stats::QuantileSketch sketch{0.01};
  std::uint64_t contacts_probed{0};
  std::uint64_t events{0};

  void fold(const ShardRun& shard) {
    for (const NodeOutcome& row : shard.rows) {
      totals.add(row);
      sketch.add(row.mean_zeta_s);
    }
    contacts_probed += shard.probed_sessions;
    events += shard.events;
  }
};

// --- Checkpointing -----------------------------------------------------
//
// Text format in the core::ckpt codec, one value per token; doubles as
// hexfloats so restore round-trips bit-exactly. Hardened (v2):
//  - the last line is a CRC-32 frame over every preceding byte, so a
//    torn write, truncation or bit flip is *detected*, never parsed into
//    a silently-wrong accumulator;
//  - writes go to <path>.tmp, the current checkpoint is demoted to
//    <path>.prev, then the tmp is renamed in — keep-last-good: damage to
//    the newest file costs at most one checkpoint interval of progress;
//  - restore prefers <path>, falls back to an intact <path>.prev when
//    the main file is damaged or missing, and throws only when damage
//    exists with no good fallback (a damaged checkpoint must never turn
//    into a silent from-scratch rerun).

constexpr const char* kCheckpointMagic = "snipr-fleet-checkpoint-v2";

/// Replace the trailing token separator with a line break.
void end_line(std::string& out) { out.back() = '\n'; }

void write_checkpoint(const std::string& path, const FleetConfig& config,
                      std::uint64_t nodes, std::uint64_t shards,
                      std::uint64_t shards_done, const Accumulator& acc) {
  using core::ckpt::append_double;
  using core::ckpt::append_i64;
  using core::ckpt::append_u64;
  std::string out;
  out.reserve(4096);
  out += kCheckpointMagic;
  out += '\n';
  append_u64(out, nodes);
  append_u64(out, config.deployment.epochs);
  append_u64(out, config.deployment.seed);
  append_u64(out, shards);
  append_u64(out, shards_done);
  end_line(out);
  const stats::OnlineStats::Snapshot z = acc.totals.zeta.snapshot();
  append_u64(out, z.n);
  append_double(out, z.mean);
  append_double(out, z.m2);
  append_double(out, z.min);
  append_double(out, z.max);
  append_double(out, acc.totals.zeta_s);
  append_double(out, acc.totals.phi_s);
  append_double(out, acc.totals.bytes);
  append_u64(out, acc.contacts_probed);
  append_u64(out, acc.events);
  end_line(out);
  const stats::QuantileSketch::Snapshot s = acc.sketch.snapshot();
  append_double(out, s.relative_error);
  append_i64(out, s.base);
  append_u64(out, s.zero_count);
  append_u64(out, s.counts.size());
  end_line(out);
  for (const std::uint64_t c : s.counts) append_u64(out, c);
  out += '\n';

  // CRC frame over every byte above, as the final line.
  char crc_line[20];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n",
                core::crc32(out));
  out += crc_line;

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f{tmp, std::ios::binary | std::ios::trunc};
    if (!f) {
      throw std::runtime_error("run_streaming_fleet: cannot write " + tmp);
    }
    f << out;
  }
  // Keep-last-good: demote the current checkpoint before promoting the
  // new one. Both steps may fail benignly (first write: nothing to
  // demote), so only the final promotion is checked.
  const std::string prev = path + ".prev";
  (void)std::remove(prev.c_str());
  (void)std::rename(path.c_str(), prev.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("run_streaming_fleet: cannot move checkpoint to " +
                             path);
  }
}

enum class CheckpointLoad { kMissing, kCorrupt, kOk };

/// Parse one checkpoint file into (shards_done, acc) — committed only on
/// success. kCorrupt covers torn writes, truncation, bit flips and
/// foreign formats: anything the CRC frame or the parser rejects. A
/// config mismatch throws instead — that file is *intact* but belongs to
/// a different run, and resuming it would silently blend two runs.
CheckpointLoad load_checkpoint(const std::string& path,
                               const FleetConfig& config, std::uint64_t nodes,
                               std::uint64_t shards,
                               std::uint64_t& shards_done, Accumulator& acc) {
  std::string content;
  {
    std::ifstream file{path, std::ios::binary};
    if (!file) return CheckpointLoad::kMissing;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    content = buffer.str();
  }
  // Verify the CRC frame: the final line must read "crc <hex>" and match
  // the CRC-32 of every byte before it.
  const std::size_t crc_pos = content.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && content[crc_pos - 1] != '\n')) {
    return CheckpointLoad::kCorrupt;
  }
  const std::string body = content.substr(0, crc_pos);
  char* hex_end = nullptr;
  const unsigned long stored =
      std::strtoul(content.c_str() + crc_pos + 4, &hex_end, 16);
  if (hex_end == content.c_str() + crc_pos + 4 ||
      static_cast<std::uint32_t>(stored) != core::crc32(body)) {
    return CheckpointLoad::kCorrupt;
  }

  // Every token must convert in full and none may be left over: a field
  // that does not parse is damage, never a 0.0.
  core::ckpt::TokenReader f{body};
  std::uint64_t ck_nodes = 0;
  std::uint64_t ck_epochs = 0;
  std::uint64_t ck_seed = 0;
  std::uint64_t ck_shards = 0;
  std::uint64_t ck_done = 0;
  if (!f.expect(kCheckpointMagic) || !f.read_u64(ck_nodes) ||
      !f.read_u64(ck_epochs) || !f.read_u64(ck_seed) ||
      !f.read_u64(ck_shards) || !f.read_u64(ck_done)) {
    return CheckpointLoad::kCorrupt;
  }
  if (ck_nodes != nodes || ck_epochs != config.deployment.epochs ||
      ck_seed != config.deployment.seed || ck_shards != shards ||
      ck_done > shards) {
    throw std::runtime_error("run_streaming_fleet: checkpoint " + path +
                             " belongs to a different run configuration");
  }
  Accumulator parsed;
  stats::OnlineStats::Snapshot z;
  std::uint64_t n = 0;
  if (!f.read_u64(n) || !f.read_double(z.mean) || !f.read_double(z.m2) ||
      !f.read_double(z.min) || !f.read_double(z.max) ||
      !f.read_double(parsed.totals.zeta_s) ||
      !f.read_double(parsed.totals.phi_s) ||
      !f.read_double(parsed.totals.bytes) ||
      !f.read_u64(parsed.contacts_probed) || !f.read_u64(parsed.events)) {
    return CheckpointLoad::kCorrupt;
  }
  z.n = static_cast<std::size_t>(n);
  stats::QuantileSketch::Snapshot s;
  std::int64_t base = 0;
  std::uint64_t bucket_count = 0;
  if (!f.read_double(s.relative_error) || !(s.relative_error > 0.0) ||
      !(s.relative_error < 1.0) || !f.read_i64(base) ||
      base < std::numeric_limits<std::int32_t>::min() ||
      base > std::numeric_limits<std::int32_t>::max() ||
      !f.read_u64(s.zero_count) || !f.read_u64(bucket_count) ||
      bucket_count > body.size()) {
    return CheckpointLoad::kCorrupt;
  }
  s.base = static_cast<std::int32_t>(base);
  s.counts.resize(static_cast<std::size_t>(bucket_count));
  for (std::uint64_t& c : s.counts) {
    if (!f.read_u64(c)) return CheckpointLoad::kCorrupt;
  }
  if (!f.exhausted()) return CheckpointLoad::kCorrupt;
  parsed.totals.zeta.restore(z);
  parsed.sketch = stats::QuantileSketch{s};
  shards_done = ck_done;
  acc = std::move(parsed);
  return CheckpointLoad::kOk;
}

/// Restore a checkpoint into (shards_done, acc): the main file when it
/// verifies, else an intact <path>.prev. Returns false when neither file
/// exists (fresh start); throws when damage exists with no good
/// fallback, or on a config mismatch.
bool read_checkpoint(const std::string& path, const FleetConfig& config,
                     std::uint64_t nodes, std::uint64_t shards,
                     std::uint64_t& shards_done, Accumulator& acc) {
  const CheckpointLoad main_state =
      load_checkpoint(path, config, nodes, shards, shards_done, acc);
  if (main_state == CheckpointLoad::kOk) return true;
  const std::string prev = path + ".prev";
  const CheckpointLoad prev_state =
      load_checkpoint(prev, config, nodes, shards, shards_done, acc);
  if (prev_state == CheckpointLoad::kOk) return true;
  if (main_state == CheckpointLoad::kMissing &&
      prev_state == CheckpointLoad::kMissing) {
    return false;  // fresh start
  }
  // Some checkpoint exists but nothing verifies: surface it rather than
  // silently recomputing from scratch (the damage may be a sign of a
  // bigger problem, and the rerun cost may be enormous).
  throw std::runtime_error("run_streaming_fleet: checkpoint " + path +
                           " is damaged and no intact .prev fallback exists");
}

FleetSummary finalize(const Accumulator& acc, std::uint64_t nodes,
                      std::uint64_t epochs, std::uint64_t shards) {
  FleetSummary s;
  static_cast<FleetAggregate&>(s) = acc.totals.aggregate();
  s.nodes = nodes;
  s.epochs = epochs;
  s.shards = shards;
  s.zeta_p50_s = acc.sketch.quantile(0.50);
  s.zeta_p90_s = acc.sketch.quantile(0.90);
  s.zeta_p99_s = acc.sketch.quantile(0.99);
  s.contacts_probed = acc.contacts_probed;
  s.events_executed = acc.events;
  return s;
}

}  // namespace

std::optional<FleetSummary> run_streaming_fleet(
    const core::RoadsideScenario& scenario, const FleetSpec& spec,
    const FleetConfig& config, const StreamingOptions& options) {
  if (options.max_shards != 0 && options.checkpoint_path.empty()) {
    // Each slice would return nullopt and save nothing, so a caller that
    // keeps slicing would never finish.
    throw std::invalid_argument(
        "run_streaming_fleet: StreamingOptions::max_shards needs a "
        "checkpoint_path to resume from");
  }
  FleetInputs in =
      build_fleet_inputs(scenario, spec, config, FleetOutput::kSummary);
  const std::size_t n = spec.nodes;
  const FleetPartition partition = partition_fleet(config, n);
  const std::size_t shards = partition.shards;
  const std::size_t batch_shards =
      options.batch_shards == 0 ? partition.threads : options.batch_shards;

  Accumulator acc;
  std::uint64_t done = 0;
  if (!options.checkpoint_path.empty()) {
    (void)read_checkpoint(options.checkpoint_path, config, n, shards, done,
                          acc);
  }

  // This call's slice: the rest of the run, or `max_shards` of it.
  const std::size_t start = static_cast<std::size_t>(done);
  const std::size_t slice =
      options.max_shards == 0
          ? shards - start
          : std::min<std::size_t>(options.max_shards, shards - start);
  // Shards commit in shard order — node order overall, so the
  // accumulator state is independent of the thread count. The checkpoint
  // cadence is every `batch_shards` shards from the resume point, plus
  // the slice end.
  run_shards(in, partition, start, slice,
             [&](std::size_t s, const ShardRun& shard) {
               acc.fold(shard);
               done = s + 1;
               const std::size_t folded = done - start;
               if (!options.checkpoint_path.empty() &&
                   (folded % batch_shards == 0 || folded == slice)) {
                 write_checkpoint(options.checkpoint_path, config, n, shards,
                                  done, acc);
               }
             });
  if (done < shards) {
    return std::nullopt;  // time slice exhausted; checkpoint holds state
  }
  if (!options.checkpoint_path.empty()) {
    // Completed: retire both generations, or a stale .prev could
    // resurrect this run's partial state into a future one.
    (void)std::remove(options.checkpoint_path.c_str());
    (void)std::remove((options.checkpoint_path + ".prev").c_str());
  }
  return finalize(acc, n, config.deployment.epochs, shards);
}

std::string to_json(const FleetSummary& s) {
  using core::json::append_field;
  using core::json::append_uint_field;
  std::string out;
  out.reserve(512);
  core::json::open_document(out, core::json::kFleetSummarySchemaV1);
  append_uint_field(out, "nodes", s.nodes);
  append_uint_field(out, "epochs", s.epochs);
  // No "shards" field: the partition is a performance knob, and the JSON
  // must be byte-identical across partitions (shard invariance test).
  append_aggregate(out, s);
  append_field(out, "zeta_p50_s", s.zeta_p50_s);
  append_field(out, "zeta_p90_s", s.zeta_p90_s);
  append_field(out, "zeta_p99_s", s.zeta_p99_s);
  append_uint_field(out, "contacts_probed", s.contacts_probed);
  append_uint_field(out, "events_executed", s.events_executed,
                    /*comma=*/false);
  out += '}';
  return out;
}

}  // namespace snipr::deploy
