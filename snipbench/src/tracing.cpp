#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "host.hpp"
#include "snipr/core/json_writer.hpp"

namespace snipbench {

int Tracer::open(std::string name, int parent) {
  const double now = wall_s();
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard lock{mu_};
  auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it == threads_.end()) it = threads_.insert(threads_.end(), self);
  Span span;
  span.name = std::move(name);
  span.start_s = now;
  span.end_s = now;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.thread = static_cast<std::uint32_t>(it - threads_.begin());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(int id) {
  const double now = wall_s();
  const std::lock_guard lock{mu_};
  spans_.at(static_cast<std::size_t>(id)).end_s = now;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock{mu_};
  return spans_;
}

double Tracer::total_s(std::string_view name) const {
  const std::lock_guard lock{mu_};
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  // Spans under a "check.*" span re-run work for a cross-check or a count
  // the engines do not expose; they are not part of any layer's share.
  std::vector<bool> excluded(all.size(), false);
  std::map<std::string, double> by_layer;
  for (const Span& s : all) {
    const auto i = static_cast<std::size_t>(s.id);
    excluded[i] = s.name.starts_with("check.") ||
                  (s.parent >= 0 && excluded[static_cast<std::size_t>(s.parent)]);
    if (excluded[i]) continue;
    // Union of the child intervals, clipped to the span: children on
    // worker threads may overlap each other.
    auto& kids = children[static_cast<std::size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [begin, end] : kids) {
      const double lo = std::max(begin, reach);
      const double hi = std::min(end, s.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end_s));
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += (s.end_s - s.start_s) - covered;
  }
  return by_layer;
}

std::string Tracer::to_json() const {
  using snipr::core::json::append_field;
  using snipr::core::json::append_string_field;
  using snipr::core::json::append_uint_field;
  const std::vector<Span> all = spans();
  const double origin = all.empty() ? 0.0 : all.front().start_s;
  std::string out = "{\"schema\":\"snipbench.spans.v1\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : all) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_string_field(out, "name", s.name);
    append_string_field(out, "cat", s.name.substr(0, s.name.find('.')));
    append_string_field(out, "ph", "X");
    append_field(out, "ts", (s.start_s - origin) * 1e6);
    append_field(out, "dur", (s.end_s - s.start_s) * 1e6);
    append_uint_field(out, "pid", 1);
    append_uint_field(out, "tid", s.thread);
    out += "\"args\":{";
    append_uint_field(out, "id", static_cast<std::uint64_t>(s.id));
    out += "\"parent\":";
    out += std::to_string(s.parent);
    out += "}}";
  }
  out += "]}";
  return out;
}

void SchedulerCounts::merge(const SchedulerCounts& other) noexcept {
  wakeup_calls += other.wakeup_calls;
  probe_calls += other.probe_calls;
  detections += other.detections;
  epoch_calls += other.epoch_calls;
  wakeup_ns += other.wakeup_ns;
  epoch_ns += other.epoch_ns;
  other_ns += other.other_ns;
}

void SchedulerTally::add(const SchedulerCounts& counts) {
  const std::lock_guard lock{mu_};
  sum_.merge(counts);
}

SchedulerCounts SchedulerTally::total() const {
  const std::lock_guard lock{mu_};
  return sum_;
}

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

CountingScheduler::CountingScheduler(
    std::unique_ptr<snipr::node::Scheduler> inner, SchedulerTally& tally)
    : inner_{std::move(inner)}, tally_{tally} {
  if (inner_ == nullptr) {
    throw std::invalid_argument("CountingScheduler: null scheduler");
  }
}

CountingScheduler::~CountingScheduler() { tally_.add(counts_); }

snipr::node::SchedulerDecision CountingScheduler::on_wakeup(
    const snipr::node::SensorContext& ctx) {
  const Clock::time_point start = Clock::now();
  const snipr::node::SchedulerDecision decision = inner_->on_wakeup(ctx);
  counts_.wakeup_ns += ns_since(start);
  ++counts_.wakeup_calls;
  if (decision.probe) ++counts_.probe_calls;
  return decision;
}

void CountingScheduler::on_probe_detected(snipr::sim::TimePoint when) {
  const Clock::time_point start = Clock::now();
  inner_->on_probe_detected(when);
  counts_.other_ns += ns_since(start);
  ++counts_.detections;
}

void CountingScheduler::on_contact_probed(
    const snipr::node::ProbedContactObservation& obs) {
  const Clock::time_point start = Clock::now();
  inner_->on_contact_probed(obs);
  counts_.other_ns += ns_since(start);
}

void CountingScheduler::on_epoch_start(std::int64_t epoch_index) {
  const Clock::time_point start = Clock::now();
  inner_->on_epoch_start(epoch_index);
  counts_.epoch_ns += ns_since(start);
  ++counts_.epoch_calls;
}

std::string CountingScheduler::name() const { return inner_->name(); }

std::string CountingScheduler::checkpoint() const {
  return inner_->checkpoint();
}

bool CountingScheduler::restore(std::string_view blob) {
  return inner_->restore(blob);
}

void CountingScheduler::reset() { inner_->reset(); }

std::vector<bool> CountingScheduler::rush_mask_bits() const {
  return inner_->rush_mask_bits();
}

MakeScheduler traced_maker(MakeScheduler make, Tracer& tracer,
                           std::string span_name, int parent,
                           SchedulerTally& tally) {
  return [make = std::move(make), &tracer, span_name = std::move(span_name),
          parent, &tally]() -> std::unique_ptr<snipr::node::Scheduler> {
    std::unique_ptr<snipr::node::Scheduler> inner;
    {
      const SpanScope span{tracer, span_name, parent};
      inner = make();
    }
    return std::make_unique<CountingScheduler>(std::move(inner), tally);
  };
}

}  // namespace snipbench
