#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "host.hpp"
#include "snipr/core/json_writer.hpp"

namespace snipbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. BENCHMARK.json lists the
/// same names; a workload that never enters a layer reports 0 there, and
/// -1 marks a figure that could not be measured faithfully.
constexpr MetricDef kPerLayer[] = {
    {"contact.build_s", "s"},
    {"contact.contacts", "count"},
    {"contact.vehicles", "count"},
    {"sim.ns_per_wakeup", "ns"},
    {"sim.events", "count"},
    {"core.scheduler.wakeup_calls", "count"},
    {"core.scheduler.probe_calls", "count"},
    {"core.scheduler.detections", "count"},
    {"core.scheduler.epoch_calls", "count"},
    {"core.scheduler.detections_per_probe", "ratio"},
    {"core.scheduler.wakeup_s", "s"},
    {"core.scheduler.epoch_s", "s"},
    {"model.make_scheduler_s.at", "s"},
    {"model.make_scheduler_s.opt", "s"},
    {"model.make_scheduler_s.rh", "s"},
    {"model.make_scheduler_s.adaptive", "s"},
    {"deploy.collection_s", "s"},
    {"deploy.collection.sessions", "count"},
    {"deploy.collection.pickups", "count"},
    {"deploy.collection.deposits", "count"},
    {"deploy.collection.deliveries", "count"},
    {"deploy.to_json_s", "s"},
    {"deploy.json_bytes", "bytes"},
    {"deploy.stream.batches", "count"},
    {"deploy.stream.checkpoint_bytes", "bytes"},
    {"fault.detections_lost", "count"},
    {"fault.spurious_detections", "count"},
    {"fault.transfers_aborted", "count"},
    {"fault.crashes", "count"},
    {"fault.handoffs_lost", "count"},
    {"fault.handoffs_retried", "count"},
    {"fault.handoffs_abandoned", "count"},
    {"core.pool.cpu_over_wall", "ratio"},
    {"core.batch.schedule_builds", "count"},
    {"core.batch.to_json_s", "s"},
    {"core.experiment_s.at", "s"},
    {"core.experiment_s.opt", "s"},
    {"core.experiment_s.rh", "s"},
    {"core.experiment_s.adaptive", "s"},
    {"contact.self_s", "s"},
    {"sim.self_s", "s"},
    {"core.self_s", "s"},
    {"model.self_s", "s"},
    {"deploy.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

constexpr const char* kStrategies[] = {"at", "opt", "rh", "adaptive"};
constexpr const char* kLayers[] = {"contact", "sim", "core", "model", "deploy"};

/// Timed iterations below this count never end a measurement, however
/// long each one takes.
constexpr std::size_t kMinIterations = 2;
constexpr std::size_t kMaxIterations = 10'000;
/// Untimed work before the first timed iteration. Virtual CPUs that were
/// idle can run several times slower for the first second of load, which
/// one short warm-up iteration does not cover.
constexpr double kWarmUpSeconds = 2.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One attempted operation; any failed check fails it.
void record_operation(Report& r, const std::vector<std::string>& failures) {
  ++r.attempted;
  if (failures.empty()) return;
  ++r.failed;
  r.failures.insert(r.failures.end(), failures.begin(), failures.end());
}

/// Iterations until kWarmUpSeconds have passed, each checked against
/// `reference`'s bytes.
void warm_up(const Workload& w, const RunOutput& reference, double since,
             Report& r) {
  while (wall_s() - since < kWarmUpSeconds) {
    RunOutput out = w.run(w.default_partition());
    if (out.json != reference.json) {
      out.failures.push_back("warm-up output bytes differ");
    }
    record_operation(r, out.failures);
  }
}

void add_metric(Report& r, const char* name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    ++r.attempted;
    ++r.failed;
    r.failures.push_back(std::string{"metric "} + name + " is not finite");
    value = 0.0;
  }
  r.metrics.push_back(Metric{name, value, unit});
}

}  // namespace

Report measure_end_to_end(std::string_view workload, const Workload& w,
                          double setup_s, double seconds) {
  Report r;
  r.workload = workload;
  const double start = wall_s();
  const RunOutput reference = w.run(w.alternate_partition());
  record_operation(r, reference.failures);
  warm_up(w, reference, start, r);

  std::vector<double> times;
  double timed_s = 0.0;
  while (times.size() < kMaxIterations &&
         (times.size() < kMinIterations || timed_s < seconds)) {
    const double t0 = wall_s();
    RunOutput out = w.run(w.default_partition());
    const double elapsed = wall_s() - t0;
    times.push_back(elapsed);
    timed_s += elapsed;
    if (out.json != reference.json) {
      out.failures.push_back("iteration " + std::to_string(times.size()) +
                             ": output bytes differ from the warm-up's");
    }
    record_operation(r, out.failures);
  }
  const double mid = median(times);
  std::sort(times.begin(), times.end());
  std::printf(
      "%.*s: %zu timed iterations, median %.4f s (min %.4f, p25 %.4f, p75 "
      "%.4f, max %.4f)\n",
      static_cast<int>(workload.size()), workload.data(), times.size(), mid,
      times.front(), times[times.size() / 4], times[times.size() * 3 / 4],
      times.back());

  add_metric(r, "setup_s", setup_s, "s");
  add_metric(r, "node_days_per_s", w.node_days() / mid, "node-day/s");
  add_metric(r, "runs_per_s", w.runs() / mid, "run/s");
  add_metric(r, "peak_rss_mib", peak_rss_mib(), "MiB");
  add_metric(r, "rho", reference.rho(), "ratio");
  add_metric(r, "zeta_shortfall_s", reference.zeta_shortfall_s, "s");
  add_metric(r, "delivery_ratio", reference.delivery_ratio, "ratio");
  return r;
}

Report measure_layers(std::string_view workload, const Workload& w,
                      const std::string& spans_path) {
  Report r;
  r.workload = workload;
  const double start = wall_s();
  const RunOutput reference = w.run(w.default_partition());
  record_operation(r, reference.failures);
  warm_up(w, reference, start, r);

  const double wall0 = wall_s();
  const double cpu0 = process_cpu_s();
  RunOutput untraced = w.run(w.default_partition());
  const double untraced_s = wall_s() - wall0;
  const double cpu_over_wall = (process_cpu_s() - cpu0) / untraced_s;
  if (untraced.json != reference.json) {
    untraced.failures.push_back("untraced iterations differ");
  }
  record_operation(r, untraced.failures);

  Tracer tracer;
  TracedOutput first = w.run_traced(tracer, -1);
  if (first.output.json != reference.json) {
    first.output.failures.push_back(
        "traced output bytes differ from the untraced run's");
  }
  record_operation(r, first.output.failures);

  Tracer again;
  TracedOutput second = w.run_traced(again, -1);
  if (second.output.json != reference.json) {
    second.output.failures.push_back(
        "second traced run's bytes differ from the untraced run's");
  }
  for (const std::string& name : first.layers.exact) {
    if (second.layers.values[name] != first.layers.values.at(name)) {
      second.output.failures.push_back("exact counter " + name +
                                       " differs between traced runs");
    }
  }
  record_operation(r, second.output.failures);

  // Figures read off the first traced run's spans. A workload sets a
  // figure itself only to mark it unmeasured.
  LayerFigures& layers = first.layers;
  const auto from_spans = [&layers](const std::string& name, double value) {
    layers.values.try_emplace(name, value);
  };
  double contact_s = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.name.starts_with("contact.")) contact_s += s.end_s - s.start_s;
  }
  from_spans("contact.build_s", contact_s);
  for (const char* id : kStrategies) {
    from_spans(std::string{"model.make_scheduler_s."} + id,
               tracer.total_s(std::string{"model.make_scheduler."} + id));
    from_spans(std::string{"core.experiment_s."} + id,
               tracer.total_s(std::string{"core.experiment."} + id));
  }
  from_spans("deploy.collection_s", tracer.total_s("deploy.run_collection"));
  from_spans("deploy.to_json_s", tracer.total_s("deploy.to_json"));
  from_spans("core.batch.to_json_s", tracer.total_s("core.batch_to_json"));
  const std::map<std::string, double> self = tracer.self_time_by_layer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    from_spans(std::string{layer} + ".self_s",
               it == self.end() ? 0.0 : it->second);
  }
  from_spans("core.pool.cpu_over_wall", cpu_over_wall);
  from_spans("trace.overhead_s", first.mirror_s - untraced_s);
  from_spans("trace.spans", static_cast<double>(tracer.spans().size()));
  std::printf("%.*s: untraced %.4f s, traced %.4f s, overhead %+.4f s\n",
              static_cast<int>(workload.size()), workload.data(), untraced_s,
              first.mirror_s, first.mirror_s - untraced_s);

  std::ofstream spans{spans_path, std::ios::binary | std::ios::trunc};
  spans << tracer.to_json();
  spans.close();
  record_operation(r, spans ? std::vector<std::string>{}
                            : std::vector<std::string>{
                                  "cannot write spans to " + spans_path});

  for (const MetricDef& def : kPerLayer) {
    const auto it = layers.values.find(def.name);
    add_metric(r, def.name, it == layers.values.end() ? 0.0 : it->second,
               def.unit);
  }
  return r;
}

std::string result_line(const std::vector<Report>& reports) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Report& r : reports) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::string out = "{\"correct\":";
  out += failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const Report& r : reports) {
    for (const Metric& m : r.metrics) {
      if (!first) out += ',';
      first = false;
      std::string name = reports.size() > 1 ? r.workload + ":" + m.name : m.name;
      out += "\"" + name + "\":{\"value\":";
      char number[40];
      std::snprintf(number, sizeof number, "%.17g", m.value);
      out += number;
      out += ",";
      snipr::core::json::append_string_field(out, "unit", m.unit,
                                             /*comma=*/false);
      out += '}';
    }
  }
  out += "}}";
  return out;
}

}  // namespace snipbench
