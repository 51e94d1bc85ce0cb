#include "capture/filter.hpp"

namespace roomnet {

bool LocalFilter::matches(const PacketView& packet) const {
  // Multicast/broadcast destination: always local by definition.
  if (packet.eth.dst.is_multicast()) return true;
  // Unicast non-IP (ARP, EAPOL, LLC).
  if (!packet.ipv4 && !packet.ipv6) return true;
  // IPv6 on the LAN is link-local in our scope.
  if (packet.ipv6)
    return packet.ipv6->src.is_link_local() && packet.ipv6->dst.is_link_local();
  // IPv4 unicast: both endpoints inside the subnet.
  return packet.ipv4->src.in_subnet(subnet, prefix_len) &&
         packet.ipv4->dst.in_subnet(subnet, prefix_len);
}

bool is_private_to_private(const PacketView& packet) {
  if (!packet.ipv4) return false;
  return packet.ipv4->src.is_private() && packet.ipv4->dst.is_private();
}

}  // namespace roomnet
