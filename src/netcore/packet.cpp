#include "netcore/packet.hpp"

#include <cstring>

#include "netcore/checksum.hpp"

namespace roomnet {

namespace {
// A short read yields an all-zero address and fails the reader; every
// decoder checks r.ok() before it returns a value.
MacAddress read_mac(ByteReader& r) {
  std::array<std::uint8_t, 6> o{};
  if (const auto v = r.view(o.size())) std::memcpy(o.data(), v->data(), o.size());
  return MacAddress(o);
}
Ipv4Address read_ipv4(ByteReader& r) { return Ipv4Address(r.u32().value_or(0)); }
Ipv6Address read_ipv6(ByteReader& r) {
  std::array<std::uint8_t, 16> b{};
  if (const auto v = r.view(b.size())) std::memcpy(b.data(), v->data(), b.size());
  return Ipv6Address(b);
}
void write_mac(ByteWriter& w, const MacAddress& m) { w.raw(BytesView(m.octets())); }
void write_ipv6(ByteWriter& w, const Ipv6Address& a) { w.raw(BytesView(a.bytes())); }
/// The bytes written since offset `at`.
BytesView written_since(const ByteWriter& w, std::size_t at) {
  return BytesView(w.data()).subspan(at);
}
}  // namespace

// ----------------------------------------------------------------- Ethernet

void append_ethernet_header(ByteWriter& w, const EthernetFrame& frame) {
  write_mac(w, frame.dst);
  write_mac(w, frame.src);
  w.u16(frame.ethertype);
}

Bytes encode_ethernet(const EthernetFrame& frame) {
  ByteWriter w;
  append_ethernet_header(w.reserve(14 + frame.payload.size()), frame);
  return w.raw(frame.payload).take();
}

std::optional<EthernetFrame> decode_ethernet(BytesView raw) {
  ByteReader r(raw);
  EthernetFrame f;
  f.dst = read_mac(r);
  f.src = read_mac(r);
  f.ethertype = r.u16().value_or(0);
  if (!r.ok()) return std::nullopt;
  f.payload = r.rest();
  return f;
}

// ---------------------------------------------------------------------- ARP

void append_arp(ByteWriter& w, const ArpPacket& arp) {
  w.u16(1);       // hardware type: Ethernet
  w.u16(0x0800);  // protocol type: IPv4
  w.u8(6).u8(4);  // address lengths
  w.u16(static_cast<std::uint16_t>(arp.op));
  write_mac(w, arp.sender_mac);
  w.u32(arp.sender_ip.value());
  write_mac(w, arp.target_mac);
  w.u32(arp.target_ip.value());
}

Bytes encode_arp(const ArpPacket& arp) {
  ByteWriter w;
  append_arp(w.reserve(28), arp);
  return w.take();
}

std::optional<ArpPacket> decode_arp(BytesView raw) {
  ByteReader r(raw);
  const auto htype = r.u16();
  const auto ptype = r.u16();
  const auto hlen = r.u8();
  const auto plen = r.u8();
  const auto op = r.u16();
  if (!r.ok() || *htype != 1 || *ptype != 0x0800 || *hlen != 6 || *plen != 4)
    return std::nullopt;
  if (*op != 1 && *op != 2) return std::nullopt;
  ArpPacket a;
  a.op = static_cast<ArpOp>(*op);
  a.sender_mac = read_mac(r);
  a.sender_ip = read_ipv4(r);
  a.target_mac = read_mac(r);
  a.target_ip = read_ipv4(r);
  if (!r.ok()) return std::nullopt;
  return a;
}

// ------------------------------------------------------------------ LLC/XID

void append_llc_xid(ByteWriter& w, const LlcXidFrame& frame) {
  w.u8(frame.dsap);
  w.u8(frame.ssap);
  w.u8(frame.is_xid ? 0xaf : 0x03);  // XID command vs UI
  w.raw(frame.info);
}

Bytes encode_llc_xid(const LlcXidFrame& frame) {
  ByteWriter w;
  append_llc_xid(w.reserve(3 + frame.info.size()), frame);
  return w.take();
}

std::optional<LlcXidFrame> decode_llc(BytesView raw) {
  ByteReader r(raw);
  LlcXidFrame f;
  f.dsap = r.u8().value_or(0);
  f.ssap = r.u8().value_or(0);
  const auto control = r.u8();
  if (!r.ok()) return std::nullopt;
  f.is_xid = (*control & 0xef) == 0xaf;
  f.info = r.rest();
  return f;
}

// -------------------------------------------------------------------- EAPOL

void append_eapol(ByteWriter& w, const EapolFrame& frame) {
  w.u8(frame.version);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u16(static_cast<std::uint16_t>(frame.body.size()));
  w.raw(frame.body);
}

Bytes encode_eapol(const EapolFrame& frame) {
  ByteWriter w;
  append_eapol(w.reserve(4 + frame.body.size()), frame);
  return w.take();
}

std::optional<EapolFrame> decode_eapol(BytesView raw) {
  ByteReader r(raw);
  EapolFrame f;
  f.version = r.u8().value_or(0);
  const auto type = r.u8();
  const auto len = r.u16();
  if (!r.ok() || *type > 3) return std::nullopt;
  f.type = static_cast<EapolType>(*type);
  const auto body = r.view(*len);
  if (!body) return std::nullopt;
  f.body = *body;
  return f;
}

// --------------------------------------------------------------------- IPv4

void append_ipv4_header(ByteWriter& w, const Ipv4Packet& packet,
                        std::size_t payload_len) {
  const std::size_t at = w.size();
  w.u8(0x45);  // version 4, IHL 5
  w.u8(0);     // DSCP/ECN
  w.u16(static_cast<std::uint16_t>(20 + payload_len));
  w.u16(packet.identification);
  w.u16(0x4000);  // flags: DF
  w.u8(packet.ttl);
  w.u8(packet.protocol);
  w.u16(0);  // checksum placeholder
  w.u32(packet.src.value());
  w.u32(packet.dst.value());
  w.patch_u16(at + 10, internet_checksum(written_since(w, at)));
}

Bytes encode_ipv4(const Ipv4Packet& packet) {
  ByteWriter w;
  append_ipv4_header(w.reserve(20 + packet.payload.size()), packet,
                     packet.payload.size());
  return w.raw(packet.payload).take();
}

std::optional<Ipv4Packet> decode_ipv4(BytesView raw) {
  ByteReader r(raw);
  const auto ver_ihl = r.u8();
  if (!ver_ihl || (*ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(*ver_ihl & 0x0f) * 4;
  if (ihl < 20) return std::nullopt;
  r.skip(1);  // DSCP
  const auto total_len = r.u16();
  Ipv4Packet p;
  p.identification = r.u16().value_or(0);
  p.fragment_offset = r.u16().value_or(0) & 0x1fff;  // drop the 3 flag bits
  p.ttl = r.u8().value_or(0);
  p.protocol = r.u8().value_or(0);
  r.skip(2);  // checksum (trusted; simulator always writes valid ones)
  p.src = read_ipv4(r);
  p.dst = read_ipv4(r);
  if (!r.ok() || *total_len < ihl || raw.size() < *total_len) return std::nullopt;
  if (!r.seek(ihl)) return std::nullopt;
  const auto payload = r.view(*total_len - ihl);
  if (!payload) return std::nullopt;
  p.payload = *payload;
  return p;
}

// --------------------------------------------------------------------- IPv6

void append_ipv6_header(ByteWriter& w, const Ipv6Packet& packet,
                        std::size_t payload_len) {
  w.u32(0x60000000);  // version 6, no traffic class/flow label
  w.u16(static_cast<std::uint16_t>(payload_len));
  w.u8(packet.next_header);
  w.u8(packet.hop_limit);
  write_ipv6(w, packet.src);
  write_ipv6(w, packet.dst);
}

Bytes encode_ipv6(const Ipv6Packet& packet) {
  ByteWriter w;
  append_ipv6_header(w.reserve(40 + packet.payload.size()), packet,
                     packet.payload.size());
  return w.raw(packet.payload).take();
}

std::optional<Ipv6Packet> decode_ipv6(BytesView raw) {
  ByteReader r(raw);
  const auto vcf = r.u32();
  if (!vcf || (*vcf >> 28) != 6) return std::nullopt;
  const auto payload_len = r.u16();
  Ipv6Packet p;
  p.next_header = r.u8().value_or(0);
  p.hop_limit = r.u8().value_or(0);
  p.src = read_ipv6(r);
  p.dst = read_ipv6(r);
  if (!r.ok()) return std::nullopt;
  const auto payload = r.view(*payload_len);
  if (!payload) return std::nullopt;
  p.payload = *payload;
  return p;
}

// ---------------------------------------------------------------------- UDP

namespace {
/// Appends the datagram with a zero checksum; returns where it starts.
std::size_t append_udp_unsummed(ByteWriter& w, const UdpDatagram& udp) {
  const std::size_t at = w.size();
  w.u16(value(udp.src_port));
  w.u16(value(udp.dst_port));
  w.u16(static_cast<std::uint16_t>(8 + udp.payload.size()));
  w.u16(0);  // checksum placeholder
  w.raw(udp.payload);
  return at;
}
}  // namespace

void append_udp_v4(ByteWriter& w, const UdpDatagram& udp, Ipv4Address src,
                   Ipv4Address dst) {
  const std::size_t at = append_udp_unsummed(w, udp);
  const std::uint16_t csum = transport_checksum_v4(
      src, dst, static_cast<std::uint8_t>(IpProto::kUdp), written_since(w, at));
  w.patch_u16(at + 6, csum);
}

void append_udp_v6(ByteWriter& w, const UdpDatagram& udp,
                   const Ipv6Address& src, const Ipv6Address& dst) {
  const std::size_t at = append_udp_unsummed(w, udp);
  const std::uint16_t csum = transport_checksum_v6(
      src, dst, static_cast<std::uint8_t>(IpProto::kUdp), written_since(w, at));
  w.patch_u16(at + 6, csum);
}

Bytes encode_udp_v4(const UdpDatagram& udp, Ipv4Address src, Ipv4Address dst) {
  ByteWriter w;
  append_udp_v4(w.reserve(8 + udp.payload.size()), udp, src, dst);
  return w.take();
}

Bytes encode_udp_v6(const UdpDatagram& udp, const Ipv6Address& src,
                    const Ipv6Address& dst) {
  ByteWriter w;
  append_udp_v6(w.reserve(8 + udp.payload.size()), udp, src, dst);
  return w.take();
}

std::optional<UdpDatagram> decode_udp(BytesView raw) {
  ByteReader r(raw);
  UdpDatagram u;
  u.src_port = port(r.u16().value_or(0));
  u.dst_port = port(r.u16().value_or(0));
  const auto len = r.u16();
  r.skip(2);  // checksum
  if (!r.ok() || *len < 8 || raw.size() < *len) return std::nullopt;
  const auto payload = r.view(*len - 8);
  if (!payload) return std::nullopt;
  u.payload = *payload;
  return u;
}

// ---------------------------------------------------------------------- TCP

void append_tcp_v4(ByteWriter& w, const TcpSegment& tcp, Ipv4Address src,
                   Ipv4Address dst) {
  const std::size_t at = w.size();
  w.u16(value(tcp.src_port));
  w.u16(value(tcp.dst_port));
  w.u32(tcp.seq);
  w.u32(tcp.ack);
  w.u8(0x50);  // data offset 5 words
  w.u8(tcp.flags.to_byte());
  w.u16(tcp.window);
  w.u16(0);  // checksum placeholder
  w.u16(0);  // urgent pointer
  w.raw(tcp.payload);
  const std::uint16_t csum = transport_checksum_v4(
      src, dst, static_cast<std::uint8_t>(IpProto::kTcp), written_since(w, at));
  w.patch_u16(at + 16, csum);
}

Bytes encode_tcp_v4(const TcpSegment& tcp, Ipv4Address src, Ipv4Address dst) {
  ByteWriter w;
  append_tcp_v4(w.reserve(20 + tcp.payload.size()), tcp, src, dst);
  return w.take();
}

std::optional<TcpSegment> decode_tcp(BytesView raw) {
  ByteReader r(raw);
  TcpSegment t;
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

void append_icmp(ByteWriter& w, const IcmpMessage& icmp) {
  const std::size_t at = w.size();
  w.u8(icmp.type);
  w.u8(icmp.code);
  w.u16(0);
  w.raw(icmp.body);
  w.patch_u16(at + 2, internet_checksum(written_since(w, at)));
}

Bytes encode_icmp(const IcmpMessage& icmp) {
  ByteWriter w;
  append_icmp(w.reserve(4 + icmp.body.size()), icmp);
  return w.take();
}

std::optional<IcmpMessage> decode_icmp(BytesView raw) {
  ByteReader r(raw);
  IcmpMessage m;
  m.type = r.u8().value_or(0);
  m.code = r.u8().value_or(0);
  r.skip(2);
  if (!r.ok()) return std::nullopt;
  m.body = r.rest();
  return m;
}

// ------------------------------------------------------------------- ICMPv6

void append_icmpv6(ByteWriter& w, const Icmpv6Message& msg,
                   const Ipv6Address& src, const Ipv6Address& dst) {
  const std::size_t at = w.size();
  const bool ndp = msg.type == Icmpv6Type::kNeighborSolicitation ||
                   msg.type == Icmpv6Type::kNeighborAdvertisement;
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u8(msg.code);
  w.u16(0);  // checksum placeholder
  if (ndp) {
    w.u32(0);  // reserved/flags
    write_ipv6(w, msg.target.value_or(Ipv6Address{}));
  }
  if (msg.link_layer_option) {
    // Option type 1 (source lladdr) for solicitations, 2 (target) for ads.
    w.u8(msg.type == Icmpv6Type::kNeighborAdvertisement ? 2 : 1);
    w.u8(1);  // length in units of 8 bytes
    write_mac(w, *msg.link_layer_option);
  }
  w.raw(msg.extra);
  const std::uint16_t csum = transport_checksum_v6(
      src, dst, static_cast<std::uint8_t>(IpProto::kIcmpv6), written_since(w, at));
  w.patch_u16(at + 2, csum);
}

Bytes encode_icmpv6(const Icmpv6Message& msg, const Ipv6Address& src,
                    const Ipv6Address& dst) {
  ByteWriter w;
  append_icmpv6(w, msg, src, dst);
  return w.take();
}

std::optional<Icmpv6Message> decode_icmpv6(BytesView raw) {
  ByteReader r(raw);
  const auto type = r.u8();
  const auto code = r.u8();
  r.skip(2);
  if (!r.ok()) return std::nullopt;
  Icmpv6Message m;
  m.type = static_cast<Icmpv6Type>(*type);
  m.code = *code;
  const bool ndp = m.type == Icmpv6Type::kNeighborSolicitation ||
                   m.type == Icmpv6Type::kNeighborAdvertisement;
  if (ndp) {
    if (!r.skip(4)) return std::nullopt;
    m.target = read_ipv6(r);
    if (!r.ok()) return std::nullopt;
    // Parse options looking for a link-layer address.
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

// --------------------------------------------------------------------- IGMP

void append_igmp(ByteWriter& w, const IgmpMessage& msg) {
  const std::size_t at = w.size();
  w.u8(msg.type);
  w.u8(0);
  w.u16(0);
  w.u32(msg.group.value());
  w.patch_u16(at + 2, internet_checksum(written_since(w, at)));
}

Bytes encode_igmp(const IgmpMessage& msg) {
  ByteWriter w;
  append_igmp(w.reserve(8), msg);
  return w.take();
}

std::optional<IgmpMessage> decode_igmp(BytesView raw) {
  ByteReader r(raw);
  IgmpMessage m;
  m.type = r.u8().value_or(0);
  r.skip(3);
  m.group = read_ipv4(r);
  if (!r.ok()) return std::nullopt;
  return m;
}

}  // namespace roomnet
