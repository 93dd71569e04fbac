#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tracing.hpp"

/// \file workloads.hpp
/// The four benchmark workloads. Each one owns its fully built inputs
/// (catalog entry, spec, sweep) and runs them through the library's
/// public entry points, untraced for the end-to-end metrics or traced for
/// the per-layer breakdown. README.md says why each exists.

namespace snipbench {

inline constexpr std::array<std::string_view, 4> kWorkloadNames{
    "urban-adaptive", "relay-chaos", "mega-stream", "paper-grid"};

struct WorkloadOptions {
  std::uint64_t seed{1};
  std::size_t threads{1};
  /// Directory for the files a workload writes (streaming checkpoints).
  std::string work_dir{"."};
  /// Shrink every workload to well under a second of work (self-tests).
  bool small{false};
};

/// How an engine partitions one run. Output bytes must not depend on it.
struct Partition {
  std::size_t threads{1};
  std::size_t shards{0};  ///< 0 = the engine's default
};

/// What one iteration produced: the bytes a user gets and the figures the
/// end-to-end metrics report.
struct RunOutput {
  std::string json;
  double phi_s{0.0};   ///< ΣΦ over nodes or grid runs
  double zeta_s{0.0};  ///< Σζ over nodes or grid runs
  /// Mean over nodes (grid cells) of max(0, ζtarget − ζ).
  double zeta_shortfall_s{0.0};
  /// Bytes that reached a sink over bytes sensed.
  double delivery_ratio{0.0};
  /// Output checks that failed: non-finite ζ/Φ, byte conservation, and
  /// in traced runs the cross-checks against the engine's own results.
  std::vector<std::string> failures;

  [[nodiscard]] double rho() const noexcept {
    return zeta_s > 0.0 ? phi_s / zeta_s : 0.0;
  }
};

/// Per-layer figures of one traced iteration, by metric name.
struct LayerFigures {
  std::map<std::string, double> values;
  /// Names holding exact work counts, which must repeat bit for bit.
  std::set<std::string> exact;

  void set(const std::string& name, double value) { values[name] = value; }
  void count(const std::string& name, std::uint64_t value) {
    values[name] = static_cast<double>(value);
    exact.insert(name);
  }
};

struct TracedOutput {
  RunOutput output;
  LayerFigures layers;
  /// Wall seconds of the traced calls that do the work of one untraced
  /// iteration; minus the untraced time, it is the tracing overhead.
  double mirror_s{0.0};
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Simulated node-days and engine runs (fleet runs, or grid runs) per
  /// iteration.
  [[nodiscard]] virtual double node_days() const = 0;
  [[nodiscard]] virtual double runs() const = 0;

  [[nodiscard]] virtual Partition default_partition() const = 0;
  /// A different shard/thread split of the same work.
  [[nodiscard]] virtual Partition alternate_partition() const = 0;

  /// One untraced iteration.
  [[nodiscard]] virtual RunOutput run(const Partition& partition) const = 0;

  /// One traced iteration on the default partition: spans around every
  /// layer call under `parent`, decorated schedulers where the engine
  /// takes a factory. Its output bytes equal run()'s.
  [[nodiscard]] virtual TracedOutput run_traced(Tracer& tracer,
                                                int parent) const = 0;
};

/// The set-up: resolve the catalog entry, build the spec or expand the
/// sweep. Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const WorkloadOptions& options);

}  // namespace snipbench
