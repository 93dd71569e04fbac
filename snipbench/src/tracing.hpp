#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "snipr/node/scheduler.hpp"

/// \file tracing.hpp
/// Tracing from outside the library: spans around the benchmark's calls
/// into each layer, and a counting, timing `node::Scheduler` decorator
/// handed to the engines through their scheduler-factory seams. Nothing
/// here changes what the library computes; the benchmark checks that the
/// traced run's output bytes equal the untraced run's.

namespace snipbench {

/// One timed call into a library layer. The layer is the name's prefix
/// before the first '.', e.g. "contact" for "contact.materialize_vehicles".
struct Span {
  std::string name;
  double start_s{0.0};
  double end_s{0.0};
  int id{0};
  int parent{-1};  ///< -1 = top level
  std::uint32_t thread{0};
};

/// In-memory span store, written out once the run ends. Thread-safe:
/// scheduler factories open spans from engine worker threads.
class Tracer {
 public:
  /// Open a span now; returns its id.
  int open(std::string name, int parent);
  /// Close span `id` now.
  void close(int id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Sum of the durations of every span named exactly `name`.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// Self time per layer: each span's duration minus the part of it that
  /// the union of its children's intervals covers, summed by layer.
  /// Spans named "check.*" and everything under them are left out.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;

  /// Chrome trace-event JSON (loadable in Perfetto); span ids and parents
  /// ride along in each event's args.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, int parent)
      : tracer_{tracer}, id_{tracer.open(std::move(name), parent)} {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&&) = delete;
  SpanScope& operator=(SpanScope&&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Scheduler calls and self time. Counts are exact on any machine; the
/// times are wall seconds summed over every scheduler instance.
struct SchedulerCounts {
  std::uint64_t wakeup_calls{0};
  std::uint64_t probe_calls{0};  ///< wakeups that decided to probe
  std::uint64_t detections{0};   ///< on_probe_detected
  std::uint64_t epoch_calls{0};
  std::int64_t wakeup_ns{0};
  std::int64_t epoch_ns{0};
  std::int64_t other_ns{0};  ///< detection and contact-probed hooks

  void merge(const SchedulerCounts& other) noexcept;
  [[nodiscard]] double self_s() const noexcept {
    return static_cast<double>(wakeup_ns + epoch_ns + other_ns) * 1e-9;
  }
};

/// Where decorators deposit their counts when they are destroyed.
class SchedulerTally {
 public:
  void add(const SchedulerCounts& counts);
  [[nodiscard]] SchedulerCounts total() const;

 private:
  mutable std::mutex mu_;
  SchedulerCounts sum_;
};

/// Counting, timing decorator. Counters live in the instance and reach
/// the shared tally once, on destruction, so the probing loop never
/// touches shared memory.
class CountingScheduler final : public snipr::node::Scheduler {
 public:
  CountingScheduler(std::unique_ptr<snipr::node::Scheduler> inner,
                    SchedulerTally& tally);
  ~CountingScheduler() override;

  [[nodiscard]] snipr::node::SchedulerDecision on_wakeup(
      const snipr::node::SensorContext& ctx) override;
  void on_probe_detected(snipr::sim::TimePoint when) override;
  void on_contact_probed(
      const snipr::node::ProbedContactObservation& obs) override;
  void on_epoch_start(std::int64_t epoch_index) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string checkpoint() const override;
  bool restore(std::string_view blob) override;
  void reset() override;
  [[nodiscard]] std::vector<bool> rush_mask_bits() const override;

 private:
  std::unique_ptr<snipr::node::Scheduler> inner_;
  SchedulerTally& tally_;
  SchedulerCounts counts_;
};

/// A scheduler maker, e.g. a bound `core::make_scheduler`.
using MakeScheduler = std::function<std::unique_ptr<snipr::node::Scheduler>()>;

/// Decorate `make`: each call is traced as span `span_name` under
/// `parent` and its scheduler is wrapped in a CountingScheduler feeding
/// `tally`. `tracer` and `tally` must outlive every scheduler produced.
[[nodiscard]] MakeScheduler traced_maker(MakeScheduler make, Tracer& tracer,
                                         std::string span_name, int parent,
                                         SchedulerTally& tally);

}  // namespace snipbench
