#include "snipr/sim/simulator.hpp"

#include <stdexcept>

#include "snipr/node/sensor_node.hpp"

namespace snipr::sim {

std::size_t Simulator::run_until(TimePoint until) {
  if (until < now_) {
    throw std::logic_error("Simulator::run_until: target is in the past");
  }
  std::size_t events = 0;
  for (node::SensorNode* node : nodes_) events += node->run_until(until);
  now_ = until;
  return events;
}

}  // namespace snipr::sim
