/// Tests of the benchmark's own pieces, on shrunken workloads:
///  - tracing (decorated schedulers, spans) leaves output bytes unchanged;
///  - exact counters repeat between two traced runs;
///  - the seed decides the inputs: same seed, same bytes; another seed,
///    other bytes; and the shard/thread partition never matters;
///  - the relay workload's rebuilt session list reproduces the engine's
///    network section, so its collection time is measured.
///
///   snipbench_test [WORK_DIR]

#include <cstdio>
#include <string>

#include "tracing.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

snipbench::WorkloadOptions small(std::uint64_t seed, const char* work_dir) {
  snipbench::WorkloadOptions options;
  options.seed = seed;
  options.threads = 2;
  options.work_dir = work_dir;
  options.small = true;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snipbench;
  const char* work_dir = argc > 1 ? argv[1] : ".";

  for (const std::string_view view : kWorkloadNames) {
    const std::string name{view};
    const auto w = make_workload(name, small(1, work_dir));
    const RunOutput plain = w->run(w->default_partition());
    check(plain.failures.empty() && plain.rho() > 0.0,
          name + ": output checks pass and rho is positive");
    check(w->run(w->alternate_partition()).json == plain.json,
          name + ": another shard/thread partition gives identical bytes");

    Tracer first_tracer;
    const TracedOutput first = w->run_traced(first_tracer, -1);
    check(first.output.failures.empty(), name + ": traced checks pass");
    check(first.output.json == plain.json,
          name + ": traced run's bytes equal the untraced run's");
    Tracer second_tracer;
    const TracedOutput second = w->run_traced(second_tracer, -1);
    bool counters_repeat = !first.layers.exact.empty() &&
                           first.layers.exact == second.layers.exact;
    for (const std::string& counter : first.layers.exact) {
      counters_repeat = counters_repeat && first.layers.values.at(counter) ==
                                               second.layers.values.at(counter);
    }
    check(counters_repeat, name + ": exact counters repeat across traced runs");

    const auto same_seed = make_workload(name, small(1, work_dir));
    const auto other_seed = make_workload(name, small(2, work_dir));
    check(same_seed->run(same_seed->default_partition()).json == plain.json,
          name + ": the same seed gives identical bytes");
    check(other_seed->run(other_seed->default_partition()).json != plain.json,
          name + ": another seed gives other bytes");

    if (name == "relay-chaos") {
      const auto& v = first.layers.values;
      check(v.count("deploy.collection_s") == 0 &&
                v.at("deploy.collection.sessions") > 0.0,
            name + ": the rebuilt sessions reproduce the engine's network");
    }
    if (name == "urban-adaptive" || name == "paper-grid") {
      check(first.layers.values.at("core.scheduler.wakeup_calls") > 0.0,
            name + ": the decorator counted scheduler wakeups");
    }
  }

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
