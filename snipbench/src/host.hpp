#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

/// \file host.hpp
/// Clocks, memory readings and the host fingerprint every result carries.
/// Wall-clock numbers are only comparable between runs with equal
/// fingerprints.

namespace snipbench {

/// Monotonic wall clock, seconds.
[[nodiscard]] double wall_s();

/// CPU time consumed by every thread of this process, seconds.
[[nodiscard]] double process_cpu_s();

/// Process VmHWM (peak resident set) in MiB; 0 when /proc is unavailable.
[[nodiscard]] double peak_rss_mib();

/// Reset VmHWM to the current resident set (Linux clear_refs), so the
/// next workload of a multi-workload process reports its own peak.
/// Returns false when the kernel refuses.
bool reset_peak_rss();

/// What a timing depends on besides the code: CPUs, compiler, build type,
/// IPO, worker threads, and the source revision.
struct Fingerprint {
  std::size_t cpus{0};
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool ipo{false};
  std::size_t threads{0};
  std::string revision;
};

[[nodiscard]] Fingerprint host_fingerprint(std::size_t threads,
                                           std::string revision);

/// Deterministic one-line JSON of a fingerprint (`snipbench.host.v1`).
[[nodiscard]] std::string to_json(const Fingerprint& fp);

}  // namespace snipbench
