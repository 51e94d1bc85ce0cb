#include "netcore/packet_view.hpp"

namespace roomnet {

namespace {
MacAddress read_mac(ByteReader& r) {
  std::array<std::uint8_t, 6> o{};
  for (auto& b : o) b = r.u8().value_or(0);
  return MacAddress(o);
}
Ipv4Address read_ipv4(ByteReader& r) { return Ipv4Address(r.u32().value_or(0)); }
Ipv6Address read_ipv6(ByteReader& r) {
  std::array<std::uint8_t, 16> b{};
  for (auto& x : b) x = r.u8().value_or(0);
  return Ipv6Address(b);
}
}  // namespace

// ----------------------------------------------------------------- Ethernet

std::optional<EthernetFrameView> decode_ethernet_view(BytesView raw) {
  ByteReader r(raw);
  EthernetFrameView f;
  f.dst = read_mac(r);
  f.src = read_mac(r);
  f.ethertype = r.u16().value_or(0);
  if (!r.ok()) return std::nullopt;
  f.payload = r.rest();
  return f;
}

// ------------------------------------------------------------------ LLC/XID

std::optional<LlcXidFrameView> decode_llc_view(BytesView raw) {
  ByteReader r(raw);
  LlcXidFrameView f;
  f.dsap = r.u8().value_or(0);
  f.ssap = r.u8().value_or(0);
  const auto control = r.u8();
  if (!r.ok()) return std::nullopt;
  f.is_xid = (*control & 0xef) == 0xaf;
  f.info = r.rest();
  return f;
}

// -------------------------------------------------------------------- EAPOL

std::optional<EapolFrameView> decode_eapol_view(BytesView raw) {
  ByteReader r(raw);
  EapolFrameView f;
  f.version = r.u8().value_or(0);
  const auto type = r.u8();
  const auto len = r.u16();
  if (!r.ok() || *type > 3) return std::nullopt;
  f.type = static_cast<EapolType>(*type);
  auto body = r.view(*len);
  if (!body) return std::nullopt;
  f.body = *body;
  return f;
}

// --------------------------------------------------------------------- IPv4

std::optional<Ipv4PacketView> decode_ipv4_view(BytesView raw) {
  ByteReader r(raw);
  const auto ver_ihl = r.u8();
  if (!ver_ihl || (*ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(*ver_ihl & 0x0f) * 4;
  if (ihl < 20) return std::nullopt;
  r.skip(1);  // DSCP
  const auto total_len = r.u16();
  Ipv4PacketView p;
  p.identification = r.u16().value_or(0);
  r.skip(2);  // flags+fragment offset
  p.ttl = r.u8().value_or(0);
  p.protocol = r.u8().value_or(0);
  r.skip(2);  // checksum (trusted; simulator always writes valid ones)
  p.src = read_ipv4(r);
  p.dst = read_ipv4(r);
  if (!r.ok() || *total_len < ihl || raw.size() < *total_len) return std::nullopt;
  if (!r.seek(ihl)) return std::nullopt;
  auto payload = r.view(*total_len - ihl);
  if (!payload) return std::nullopt;
  p.payload = *payload;
  return p;
}

// --------------------------------------------------------------------- IPv6

std::optional<Ipv6PacketView> decode_ipv6_view(BytesView raw) {
  ByteReader r(raw);
  const auto vcf = r.u32();
  if (!vcf || (*vcf >> 28) != 6) return std::nullopt;
  const auto payload_len = r.u16();
  Ipv6PacketView p;
  p.next_header = r.u8().value_or(0);
  p.hop_limit = r.u8().value_or(0);
  p.src = read_ipv6(r);
  p.dst = read_ipv6(r);
  if (!r.ok()) return std::nullopt;
  auto payload = r.view(*payload_len);
  if (!payload) return std::nullopt;
  p.payload = *payload;
  return p;
}

// ---------------------------------------------------------------------- UDP

std::optional<UdpDatagramView> decode_udp_view(BytesView raw) {
  ByteReader r(raw);
  UdpDatagramView u;
  u.src_port = port(r.u16().value_or(0));
  u.dst_port = port(r.u16().value_or(0));
  const auto len = r.u16();
  r.skip(2);  // checksum
  if (!r.ok() || *len < 8 || raw.size() < *len) return std::nullopt;
  auto payload = r.view(*len - 8);
  if (!payload) return std::nullopt;
  u.payload = *payload;
  return u;
}

// ---------------------------------------------------------------------- TCP

std::optional<TcpSegmentView> decode_tcp_view(BytesView raw) {
  ByteReader r(raw);
  TcpSegmentView t;
  t.src_port = port(r.u16().value_or(0));
  t.dst_port = port(r.u16().value_or(0));
  t.seq = r.u32().value_or(0);
  t.ack = r.u32().value_or(0);
  const auto offset_byte = r.u8();
  const auto flags_byte = r.u8();
  t.window = r.u16().value_or(0);
  r.skip(4);  // checksum + urgent
  if (!r.ok()) return std::nullopt;
  const std::size_t header_len = static_cast<std::size_t>(*offset_byte >> 4) * 4;
  if (header_len < 20 || raw.size() < header_len) return std::nullopt;
  t.flags = TcpFlags::from_byte(*flags_byte);
  if (!r.seek(header_len)) return std::nullopt;
  t.payload = r.rest();
  return t;
}

// --------------------------------------------------------------------- ICMP

std::optional<IcmpMessageView> decode_icmp_view(BytesView raw) {
  ByteReader r(raw);
  IcmpMessageView m;
  m.type = r.u8().value_or(0);
  m.code = r.u8().value_or(0);
  r.skip(2);
  if (!r.ok()) return std::nullopt;
  m.body = r.rest();
  return m;
}

// ------------------------------------------------------------------- ICMPv6

std::optional<Icmpv6MessageView> decode_icmpv6_view(BytesView raw) {
  ByteReader r(raw);
  const auto type = r.u8();
  const auto code = r.u8();
  r.skip(2);
  if (!r.ok()) return std::nullopt;
  Icmpv6MessageView m;
  m.type = static_cast<Icmpv6Type>(*type);
  m.code = *code;
  const bool ndp = m.type == Icmpv6Type::kNeighborSolicitation ||
                   m.type == Icmpv6Type::kNeighborAdvertisement;
  if (ndp) {
    if (!r.skip(4)) return std::nullopt;
    m.target = read_ipv6(r);
    if (!r.ok()) return std::nullopt;
    while (r.remaining() >= 8) {
      const auto opt_type = r.u8().value_or(0);
      const auto opt_len = r.u8().value_or(0);
      if (opt_len == 0) break;
      const std::size_t body_len = static_cast<std::size_t>(opt_len) * 8 - 2;
      if ((opt_type == 1 || opt_type == 2) && body_len >= 6) {
        m.link_layer_option = read_mac(r);
        r.skip(body_len - 6);
      } else {
        r.skip(body_len);
      }
      if (!r.ok()) return std::nullopt;
    }
  } else {
    m.extra = r.rest();
  }
  return m;
}

// --------------------------------------------------------------- full frame

std::optional<PacketView> decode_frame_view(BytesView raw) {
  auto eth = decode_ethernet_view(raw);
  if (!eth) return std::nullopt;
  PacketView p;
  p.eth = *eth;
  const BytesView body = p.eth.payload;

  if (p.eth.is_llc()) {
    p.llc = decode_llc_view(body);
    return p;
  }
  switch (static_cast<EtherType>(p.eth.ethertype)) {
    case EtherType::kArp:
      p.arp = decode_arp(body);
      break;
    case EtherType::kEapol:
      p.eapol = decode_eapol_view(body);
      break;
    case EtherType::kIpv4: {
      p.ipv4 = decode_ipv4_view(body);
      if (!p.ipv4) break;
      switch (static_cast<IpProto>(p.ipv4->protocol)) {
        case IpProto::kUdp:
          p.udp = decode_udp_view(p.ipv4->payload);
          break;
        case IpProto::kTcp:
          p.tcp = decode_tcp_view(p.ipv4->payload);
          break;
        case IpProto::kIcmp:
          p.icmp = decode_icmp_view(p.ipv4->payload);
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
      p.ipv6 = decode_ipv6_view(body);
      if (!p.ipv6) break;
      switch (static_cast<IpProto>(p.ipv6->next_header)) {
        case IpProto::kUdp:
          p.udp = decode_udp_view(p.ipv6->payload);
          break;
        case IpProto::kTcp:
          p.tcp = decode_tcp_view(p.ipv6->payload);
          break;
        case IpProto::kIcmpv6:
          p.icmpv6 = decode_icmpv6_view(p.ipv6->payload);
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

// ---------------------------------------------------- Packet <-> PacketView

PacketView as_view(const Packet& packet) {
  PacketView v;
  v.eth = {packet.eth.dst, packet.eth.src, packet.eth.ethertype,
           BytesView(packet.eth.payload)};
  v.arp = packet.arp;
  if (packet.llc)
    v.llc = {packet.llc->dsap, packet.llc->ssap, packet.llc->is_xid,
             BytesView(packet.llc->info)};
  if (packet.eapol)
    v.eapol = {packet.eapol->version, packet.eapol->type,
               BytesView(packet.eapol->body)};
  if (packet.ipv4)
    v.ipv4 = {packet.ipv4->src,      packet.ipv4->dst,
              packet.ipv4->protocol, packet.ipv4->ttl,
              packet.ipv4->identification, BytesView(packet.ipv4->payload)};
  if (packet.ipv6)
    v.ipv6 = {packet.ipv6->src, packet.ipv6->dst, packet.ipv6->next_header,
              packet.ipv6->hop_limit, BytesView(packet.ipv6->payload)};
  if (packet.udp)
    v.udp = {packet.udp->src_port, packet.udp->dst_port,
             BytesView(packet.udp->payload)};
  if (packet.tcp)
    v.tcp = {packet.tcp->src_port, packet.tcp->dst_port, packet.tcp->seq,
             packet.tcp->ack,      packet.tcp->flags,    packet.tcp->window,
             BytesView(packet.tcp->payload)};
  if (packet.icmp)
    v.icmp = {packet.icmp->type, packet.icmp->code,
              BytesView(packet.icmp->body)};
  if (packet.icmpv6)
    v.icmpv6 = {packet.icmpv6->type, packet.icmpv6->code, packet.icmpv6->target,
                packet.icmpv6->link_layer_option,
                BytesView(packet.icmpv6->extra)};
  v.igmp = packet.igmp;
  return v;
}

namespace {
Bytes owned(BytesView v) { return Bytes(v.begin(), v.end()); }
}  // namespace

Packet materialize(const PacketView& view) {
  Packet p;
  p.eth.dst = view.eth.dst;
  p.eth.src = view.eth.src;
  p.eth.ethertype = view.eth.ethertype;
  p.eth.payload = owned(view.eth.payload);
  p.arp = view.arp;
  if (view.llc)
    p.llc = LlcXidFrame{view.llc->dsap, view.llc->ssap, view.llc->is_xid,
                        owned(view.llc->info)};
  if (view.eapol)
    p.eapol = EapolFrame{view.eapol->version, view.eapol->type,
                         owned(view.eapol->body)};
  if (view.ipv4)
    p.ipv4 = Ipv4Packet{view.ipv4->src,      view.ipv4->dst,
                        view.ipv4->protocol, view.ipv4->ttl,
                        view.ipv4->identification, owned(view.ipv4->payload)};
  if (view.ipv6)
    p.ipv6 = Ipv6Packet{view.ipv6->src, view.ipv6->dst, view.ipv6->next_header,
                        view.ipv6->hop_limit, owned(view.ipv6->payload)};
  if (view.udp)
    p.udp = UdpDatagram{view.udp->src_port, view.udp->dst_port,
                        owned(view.udp->payload)};
  if (view.tcp)
    p.tcp = TcpSegment{view.tcp->src_port, view.tcp->dst_port, view.tcp->seq,
                       view.tcp->ack,      view.tcp->flags,    view.tcp->window,
                       owned(view.tcp->payload)};
  if (view.icmp)
    p.icmp = IcmpMessage{view.icmp->type, view.icmp->code,
                         owned(view.icmp->body)};
  if (view.icmpv6)
    p.icmpv6 =
        Icmpv6Message{view.icmpv6->type, view.icmpv6->code, view.icmpv6->target,
                      view.icmpv6->link_layer_option, owned(view.icmpv6->extra)};
  p.igmp = view.igmp;
  return p;
}

}  // namespace roomnet
