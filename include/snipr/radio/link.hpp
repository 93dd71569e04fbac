#pragma once

#include "snipr/sim/time.hpp"

/// \file link.hpp
/// Link-layer parameters shared by sensor and mobile nodes.
///
/// Values default to an IEEE 802.15.4 (Zigbee-compliant) radio as assumed
/// in Sec. II of the paper: 250 kbit/s PHY rate, ~1 ms airtime for a short
/// beacon/reply frame, and an effective data throughput of ~12.5 kB/s after
/// MAC overhead.

namespace snipr::radio {

struct LinkParams {
  /// Airtime of a probing beacon (sensor -> mobile).
  sim::Duration beacon_airtime{sim::Duration::milliseconds(1)};
  /// Airtime of the mobile node's reply (mobile -> sensor).
  sim::Duration reply_airtime{sim::Duration::milliseconds(1)};
  /// Effective payload throughput during data transfer, bytes/second.
  double data_rate_bps{12500.0};
};

}  // namespace snipr::radio
