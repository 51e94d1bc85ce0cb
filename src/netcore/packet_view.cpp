#include "netcore/packet_view.hpp"

namespace roomnet {

std::optional<PacketView> decode_frame_view(BytesView raw) {
  auto eth = decode_ethernet(raw);
  if (!eth) return std::nullopt;
  PacketView p;
  p.eth = *eth;
  const BytesView body = p.eth.payload;

  if (p.eth.is_llc()) {
    p.llc = decode_llc(body);
    return p;
  }
  switch (static_cast<EtherType>(p.eth.ethertype)) {
    case EtherType::kArp:
      p.arp = decode_arp(body);
      break;
    case EtherType::kEapol:
      p.eapol = decode_eapol(body);
      break;
    case EtherType::kIpv4: {
      p.ipv4 = decode_ipv4(body);
      // A non-first fragment carries the middle of a datagram: reading it
      // as a transport header would invent ports.
      if (!p.ipv4 || p.ipv4->fragment_offset != 0) break;
      switch (static_cast<IpProto>(p.ipv4->protocol)) {
        case IpProto::kUdp:
          p.udp = decode_udp(p.ipv4->payload);
          break;
        case IpProto::kTcp:
          p.tcp = decode_tcp(p.ipv4->payload);
          break;
        case IpProto::kIcmp:
          p.icmp = decode_icmp(p.ipv4->payload);
          break;
        case IpProto::kIgmp:
          p.igmp = decode_igmp(p.ipv4->payload);
          break;
        default:
          break;
      }
      break;
    }
    case EtherType::kIpv6: {
      p.ipv6 = decode_ipv6(body);
      if (!p.ipv6) break;
      switch (static_cast<IpProto>(p.ipv6->next_header)) {
        case IpProto::kUdp:
          p.udp = decode_udp(p.ipv6->payload);
          break;
        case IpProto::kTcp:
          p.tcp = decode_tcp(p.ipv6->payload);
          break;
        case IpProto::kIcmpv6:
          p.icmpv6 = decode_icmpv6(p.ipv6->payload);
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return p;
}

}  // namespace roomnet
