/// snipbench: the program behind snipr's benchmark.
///
///   snipbench --workload NAME|all --seed N --seconds S --trace 0|1
///             --threads T --out DIR [--revision REV] [--setup-only]
///
/// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
/// runs the traced breakdown and writes its spans to DIR. The last stdout
/// line is the result object; the exit code is 0 only when every
/// correctness check passed. run.py builds this program and wraps it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "host.hpp"
#include "measure.hpp"
#include "snipr/core/scenario_catalog.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "snipbench: %s\nusage: snipbench --workload NAME|all --seed N "
               "--seconds S --trace 0|1 --threads T --out DIR "
               "[--revision REV] [--setup-only]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string{"bad value for "} + flag).c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snipbench;
  const double process_start = wall_s();

  std::string workload;
  std::string out_dir;
  std::string revision = "unknown";
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::uint64_t threads = 0;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    const std::string_view flag = argv[i];
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      seed = parse_uint(value(), "--seed");
    } else if (flag == "--seconds") {
      seconds = parse_uint(value(), "--seconds");
    } else if (flag == "--trace") {
      trace = parse_uint(value(), "--trace");
    } else if (flag == "--threads") {
      threads = parse_uint(value(), "--threads");
    } else if (flag == "--out") {
      out_dir = value();
    } else if (flag == "--revision") {
      revision = value();
    } else if (flag == "--setup-only") {
      setup_only = true;
    } else {
      usage(("unknown option " + std::string{flag}).c_str());
    }
  }
  if (workload.empty() || out_dir.empty() || threads == 0 || trace > 1) {
    usage("--workload, --out and a positive --threads are required");
  }
  std::vector<std::string> names;
  if (workload == "all") {
    names.assign(kWorkloadNames.begin(), kWorkloadNames.end());
  } else {
    names.push_back(workload);
  }

  try {
    // The catalog is built once per process; every workload's set-up
    // time includes it.
    (void)snipr::core::ScenarioCatalog::instance();
    const double catalog_s = wall_s() - process_start;

    WorkloadOptions options;
    options.seed = seed;
    options.threads = threads;
    options.work_dir = out_dir;

    if (!setup_only) {
      std::printf("host: %s\n",
                  to_json(host_fingerprint(threads, revision)).c_str());
    }
    std::vector<Report> reports;
    for (const std::string& name : names) {
      if (names.size() > 1) (void)reset_peak_rss();
      const double start = wall_s();
      const std::unique_ptr<Workload> w = make_workload(name, options);
      const double setup_s = catalog_s + (wall_s() - start);
      if (setup_only) {
        std::printf("{\"setup_s\":%.17g}\n", setup_s);
        continue;
      }
      reports.push_back(
          trace == 0
              ? measure_end_to_end(name, *w, setup_s,
                                   static_cast<double>(seconds))
              : measure_layers(name, *w,
                               out_dir + "/spans-" + name + "-" +
                                   std::to_string(seed) + ".json"));
      const Report& r = reports.back();
      for (const Metric& m : r.metrics) {
        std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
      for (const std::string& failure : r.failures) {
        std::printf("  FAILED: %s\n", failure.c_str());
      }
      std::printf("%s: %llu operations attempted, %llu failed\n", name.c_str(),
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
    }
    if (setup_only) return 0;
    std::printf("%s\n", result_line(reports).c_str());
    for (const Report& r : reports) {
      if (r.failed != 0) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snipbench: %s\n", e.what());
    return 1;
  }
}
