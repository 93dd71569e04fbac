#pragma once

#include <cstdint>

/// \file mobile_node.hpp
/// The data sink carried through the deployment.
///
/// Mobile nodes have rechargeable batteries so their radio is always on
/// (Sec. III assumption); they answer any probing beacon they hear and
/// absorb uploaded data. In this library the reply logic is evaluated by
/// the channel (delivery is contact-driven); the MobileNode accumulates
/// sink-side statistics so tests can check conservation end-to-end.

namespace snipr::node {

class MobileNode {
 public:
  /// Sink callback: `bytes` arrived over a probed contact. `new_contact`
  /// is false for follow-up transfers within the same contact.
  void deliver(double bytes, bool new_contact) noexcept;

  [[nodiscard]] double bytes_received() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t contacts_served() const noexcept {
    return contacts_;
  }

 private:
  double bytes_{0.0};
  std::uint64_t contacts_{0};
};

}  // namespace snipr::node
