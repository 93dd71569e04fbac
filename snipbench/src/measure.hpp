#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

/// \file measure.hpp
/// The two measurements of one workload and the result line.
///
/// End to end (tracing off): one untimed iteration on the alternate
/// partition, more untimed ones until two seconds have passed, then timed
/// iterations on the default partition until the time budget is spent.
/// Every iteration's bytes must equal the first one's, which checks
/// determinism and partition independence at once.
///
/// Per layer (tracing on): an untimed and a timed untraced iteration,
/// then two traced iterations whose bytes must equal the untraced ones
/// and whose exact counters must repeat.

namespace snipbench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Report {
  std::string workload;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
};

[[nodiscard]] Report measure_end_to_end(std::string_view workload,
                                        const Workload& w, double setup_s,
                                        double seconds);

/// `spans_path` receives the first traced iteration's spans.
[[nodiscard]] Report measure_layers(std::string_view workload,
                                    const Workload& w,
                                    const std::string& spans_path);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Metric names carry a "<workload>:" prefix when there are several
/// reports.
[[nodiscard]] std::string result_line(const std::vector<Report>& reports);

}  // namespace snipbench
