#include "snipr/node/mobile_node.hpp"

namespace snipr::node {

void MobileNode::deliver(double bytes, bool new_contact) noexcept {
  bytes_ += bytes;
  if (new_contact) ++contacts_;
}

}  // namespace snipr::node
