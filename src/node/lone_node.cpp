#include "snipr/node/lone_node.hpp"

#include <utility>

#include "snipr/node/mobile_node.hpp"
#include "snipr/radio/channel.hpp"

namespace snipr::node {

LoneNodeRun run_lone_node(
    Scheduler& scheduler,
    std::shared_ptr<const contact::ContactSchedule> schedule,
    const radio::LinkParams& link, SensorNodeConfig config,
    sim::Duration horizon, fault::NodeFaultInjector* faults) {
  radio::Channel channel{std::move(schedule), link};
  MobileNode sink;
  config.record_epoch_history = true;
  if (config.epoch > sim::Duration::zero()) {  // else SensorNode throws
    config.expected_epochs =
        static_cast<std::size_t>(horizon.count() / config.epoch.count());
  }
  SensorNode sensor{channel, sink, scheduler, config};
  sensor.attach_faults(faults);
  sensor.start();

  LoneNodeRun run;
  run.events = sensor.run_until(sim::TimePoint::zero() + horizon);
  run.per_epoch = sensor.take_epoch_history();
  run.probed = sensor.take_probed_contacts();
  run.probed_sessions = sensor.counters().probed_sessions;
  run.total_contacts = channel.schedule().size();
  run.mean_delivery_latency_s = sensor.buffer().mean_delivery_latency_s();
  return run;
}

NodeSummary summarize(const LoneNodeRun& run, std::size_t warmup_epochs) {
  NodeSummary s;
  for (std::size_t e = warmup_epochs; e < run.per_epoch.size(); ++e) {
    const EpochStats& epoch = run.per_epoch[e];
    s.mean_zeta_s += epoch.zeta.to_seconds();
    s.mean_phi_s += epoch.phi.to_seconds();
    s.mean_bytes_uploaded += epoch.bytes_uploaded;
    s.mean_contacts_probed += static_cast<double>(epoch.contacts_probed);
    s.mean_wakeups += static_cast<double>(epoch.wakeups);
    s.probing_energy_j += epoch.probing_energy_j;
    s.transfer_energy_j += epoch.transfer_energy_j;
    ++s.epochs;
  }
  if (s.epochs > 0) {
    const auto n = static_cast<double>(s.epochs);
    s.mean_zeta_s /= n;
    s.mean_phi_s /= n;
    s.mean_bytes_uploaded /= n;
    s.mean_contacts_probed /= n;
    s.mean_wakeups /= n;
    s.probing_energy_j /= n;
    s.transfer_energy_j /= n;
  }
  if (run.total_contacts > 0) {
    s.miss_ratio = 1.0 - static_cast<double>(run.probed_sessions) /
                             static_cast<double>(run.total_contacts);
  }
  s.mean_delivery_latency_s = run.mean_delivery_latency_s;
  return s;
}

}  // namespace snipr::node
