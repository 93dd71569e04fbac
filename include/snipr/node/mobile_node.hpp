#pragma once

/// \file mobile_node.hpp
/// The data sink carried through the deployment.
///
/// Mobile nodes have rechargeable batteries so their radio is always on
/// (Sec. III assumption); they answer any probing beacon they hear and
/// absorb uploaded data. In this library the reply logic is evaluated by
/// the channel (delivery is contact-driven) and the node's own counters
/// carry what it uploaded, so the sink holds no state. The type remains
/// only as a `SensorNode` constructor argument.

namespace snipr::node {

class MobileNode {};

}  // namespace snipr::node
