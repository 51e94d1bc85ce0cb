// The paper's local-traffic filter (Appendix C.1):
//   (ip.dst in subnet AND ip.src in subnet)  -- local IP unicast
//   OR eth.dst.ig == 1                       -- multicast/broadcast
//   OR (eth.dst.ig == 0 AND !ip)             -- non-IP unicast (ARP, EAPOL)
// Both predicates read a PacketView, the decoded form of a frame that
// decode_frame_view() produces (re-exported here with it).
#pragma once

#include "netcore/address.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet {

struct LocalFilter {
  Ipv4Address subnet = Ipv4Address(192, 168, 10, 0);
  int prefix_len = 24;

  [[nodiscard]] bool matches(const PacketView& packet) const;
};

/// The broader membership test used on crowdsourced data (§3.3): both
/// endpoints in any RFC 1918/link-local private range.
bool is_private_to_private(const PacketView& packet);

}  // namespace roomnet
