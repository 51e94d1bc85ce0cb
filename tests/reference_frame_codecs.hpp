// Reference copies of the link/network/transport codecs as they were before
// each header was written through one reservation and read after one length
// check: encoders appended one byte at a time, decoders walked a ByteReader
// field by field with an optional per field, and decode_frame_view copied
// each decoded layer into its PacketView. packet_view_test and the `frame`
// and `roundtrip` fuzz harnesses require the current codecs to match them:
// the same bytes from every encoder, and from every decoder the same
// accept/reject decision, the same fields and the same slices (same pointer,
// same size). `same` and `view_differs` below are the comparison they share.
#pragma once

#include <array>
#include <cstring>
#include <optional>

#include "netcore/checksum.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet::reference {

/// ByteWriter as it was: one push_back per byte.
class BytewiseWriter {
 public:
  BytewiseWriter& u8(std::uint8_t v) {
    out_.push_back(v);
    return *this;
  }
  BytewiseWriter& u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
    return *this;
  }
  BytewiseWriter& u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) out_.push_back(static_cast<std::uint8_t>(v >> s));
    return *this;
  }
  BytewiseWriter& raw(BytesView v) {
    out_.insert(out_.end(), v.begin(), v.end());
    return *this;
  }
  void patch_u16(std::size_t at, std::uint16_t v) {
    out_.at(at) = static_cast<std::uint8_t>(v >> 8);
    out_.at(at + 1) = static_cast<std::uint8_t>(v);
  }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] BytesView since(std::size_t at) const {
    return BytesView(out_).subspan(at);
  }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

inline MacAddress read_mac(ByteReader& r) {
  std::array<std::uint8_t, 6> o{};
  if (const auto v = r.view(o.size())) std::memcpy(o.data(), v->data(), o.size());
  return MacAddress(o);
}
inline Ipv4Address read_ipv4(ByteReader& r) { return Ipv4Address(r.u32().value_or(0)); }
inline Ipv6Address read_ipv6(ByteReader& r) {
  std::array<std::uint8_t, 16> b{};
  if (const auto v = r.view(b.size())) std::memcpy(b.data(), v->data(), b.size());
  return Ipv6Address(b);
}
inline void write_mac(BytewiseWriter& w, const MacAddress& m) {
  w.raw(BytesView(m.octets()));
}
inline void write_ipv6(BytewiseWriter& w, const Ipv6Address& a) {
  w.raw(BytesView(a.bytes()));
}

// ----------------------------------------------------------------- encoders

inline void append_ethernet_header(BytewiseWriter& w, const EthernetFrame& frame) {
  write_mac(w, frame.dst);
  write_mac(w, frame.src);
  w.u16(frame.ethertype);
}

inline Bytes encode_ethernet(const EthernetFrame& frame) {
  BytewiseWriter w;
  reference::append_ethernet_header(w, frame);
  return w.raw(frame.payload).take();
}

inline void append_arp(BytewiseWriter& w, const ArpPacket& arp) {
  w.u16(1);
  w.u16(0x0800);
  w.u8(6).u8(4);
  w.u16(static_cast<std::uint16_t>(arp.op));
  write_mac(w, arp.sender_mac);
  w.u32(arp.sender_ip.value());
  write_mac(w, arp.target_mac);
  w.u32(arp.target_ip.value());
}

inline Bytes encode_arp(const ArpPacket& arp) {
  BytewiseWriter w;
  reference::append_arp(w, arp);
  return w.take();
}

inline Bytes encode_llc_xid(const LlcXidFrame& frame) {
  BytewiseWriter w;
  w.u8(frame.dsap);
  w.u8(frame.ssap);
  w.u8(frame.is_xid ? 0xaf : 0x03);
  w.raw(frame.info);
  return w.take();
}

inline Bytes encode_eapol(const EapolFrame& frame) {
  BytewiseWriter w;
  w.u8(frame.version);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u16(static_cast<std::uint16_t>(frame.body.size()));
  w.raw(frame.body);
  return w.take();
}

inline void append_ipv4_header(BytewiseWriter& w, const Ipv4Packet& packet,
                               std::size_t payload_len) {
  const std::size_t at = w.size();
  w.u8(0x45);
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(20 + payload_len));
  w.u16(packet.identification);
  w.u16(0x4000);
  w.u8(packet.ttl);
  w.u8(packet.protocol);
  w.u16(0);
  w.u32(packet.src.value());
  w.u32(packet.dst.value());
  w.patch_u16(at + 10, internet_checksum(w.since(at)));
}

inline Bytes encode_ipv4(const Ipv4Packet& packet) {
  BytewiseWriter w;
  reference::append_ipv4_header(w, packet, packet.payload.size());
  return w.raw(packet.payload).take();
}

inline void append_ipv6_header(BytewiseWriter& w, const Ipv6Packet& packet,
                               std::size_t payload_len) {
  w.u32(0x60000000);
  w.u16(static_cast<std::uint16_t>(payload_len));
  w.u8(packet.next_header);
  w.u8(packet.hop_limit);
  write_ipv6(w, packet.src);
  write_ipv6(w, packet.dst);
}

inline Bytes encode_ipv6(const Ipv6Packet& packet) {
  BytewiseWriter w;
  reference::append_ipv6_header(w, packet, packet.payload.size());
  return w.raw(packet.payload).take();
}

inline std::size_t append_udp_unsummed(BytewiseWriter& w, const UdpDatagram& udp) {
  const std::size_t at = w.size();
  w.u16(value(udp.src_port));
  w.u16(value(udp.dst_port));
  w.u16(static_cast<std::uint16_t>(8 + udp.payload.size()));
  w.u16(0);
  w.raw(udp.payload);
  return at;
}

inline void append_udp_v4(BytewiseWriter& w, const UdpDatagram& udp,
                          Ipv4Address src, Ipv4Address dst) {
  const std::size_t at = reference::append_udp_unsummed(w, udp);
  w.patch_u16(at + 6, transport_checksum_v4(src, dst, 17, w.since(at)));
}

inline Bytes encode_udp_v4(const UdpDatagram& udp, Ipv4Address src,
                           Ipv4Address dst) {
  BytewiseWriter w;
  reference::append_udp_v4(w, udp, src, dst);
  return w.take();
}

inline Bytes encode_udp_v6(const UdpDatagram& udp, const Ipv6Address& src,
                           const Ipv6Address& dst) {
  BytewiseWriter w;
  const std::size_t at = reference::append_udp_unsummed(w, udp);
  w.patch_u16(at + 6, transport_checksum_v6(src, dst, 17, w.since(at)));
  return w.take();
}

inline void append_tcp_v4(BytewiseWriter& w, const TcpSegment& tcp,
                          Ipv4Address src, Ipv4Address dst) {
  const std::size_t at = w.size();
  w.u16(value(tcp.src_port));
  w.u16(value(tcp.dst_port));
  w.u32(tcp.seq);
  w.u32(tcp.ack);
  w.u8(0x50);
  w.u8(tcp.flags.to_byte());
  w.u16(tcp.window);
  w.u16(0);
  w.u16(0);
  w.raw(tcp.payload);
  w.patch_u16(at + 16, transport_checksum_v4(src, dst, 6, w.since(at)));
}

inline Bytes encode_tcp_v4(const TcpSegment& tcp, Ipv4Address src,
                           Ipv4Address dst) {
  BytewiseWriter w;
  reference::append_tcp_v4(w, tcp, src, dst);
  return w.take();
}

inline Bytes encode_icmp(const IcmpMessage& icmp) {
  BytewiseWriter w;
  w.u8(icmp.type);
  w.u8(icmp.code);
  w.u16(0);
  w.raw(icmp.body);
  w.patch_u16(2, internet_checksum(w.since(0)));
  return w.take();
}

inline Bytes encode_icmpv6(const Icmpv6Message& msg, const Ipv6Address& src,
                           const Ipv6Address& dst) {
  BytewiseWriter w;
  const bool ndp = msg.type == Icmpv6Type::kNeighborSolicitation ||
                   msg.type == Icmpv6Type::kNeighborAdvertisement;
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u8(msg.code);
  w.u16(0);
  if (ndp) {
    w.u32(0);
    write_ipv6(w, msg.target.value_or(Ipv6Address{}));
  }
  if (msg.link_layer_option) {
    w.u8(msg.type == Icmpv6Type::kNeighborAdvertisement ? 2 : 1);
    w.u8(1);
    write_mac(w, *msg.link_layer_option);
  }
  w.raw(msg.extra);
  w.patch_u16(2, transport_checksum_v6(src, dst, 58, w.since(0)));
  return w.take();
}

inline Bytes encode_igmp(const IgmpMessage& msg) {
  BytewiseWriter w;
  w.u8(msg.type);
  w.u8(0);
  w.u16(0);
  w.u32(msg.group.value());
  w.patch_u16(2, internet_checksum(w.since(0)));
  return w.take();
}

// ----------------------------------------------------------------- decoders

inline std::optional<EthernetFrame> decode_ethernet(BytesView raw) {
  ByteReader r(raw);
  EthernetFrame f;
  f.dst = read_mac(r);
  f.src = read_mac(r);
  f.ethertype = r.u16().value_or(0);
  if (!r.ok()) return std::nullopt;
  f.payload = r.rest();
  return f;
}

inline std::optional<ArpPacket> decode_arp(BytesView raw) {
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

inline std::optional<LlcXidFrame> decode_llc(BytesView raw) {
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

inline std::optional<EapolFrame> decode_eapol(BytesView raw) {
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

inline std::optional<Ipv4Packet> decode_ipv4(BytesView raw) {
  ByteReader r(raw);
  const auto ver_ihl = r.u8();
  if (!ver_ihl || (*ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(*ver_ihl & 0x0f) * 4;
  if (ihl < 20) return std::nullopt;
  r.skip(1);
  const auto total_len = r.u16();
  Ipv4Packet p;
  p.identification = r.u16().value_or(0);
  p.fragment_offset = r.u16().value_or(0) & 0x1fff;
  p.ttl = r.u8().value_or(0);
  p.protocol = r.u8().value_or(0);
  r.skip(2);
  p.src = read_ipv4(r);
  p.dst = read_ipv4(r);
  if (!r.ok() || *total_len < ihl || raw.size() < *total_len) return std::nullopt;
  if (!r.seek(ihl)) return std::nullopt;
  const auto payload = r.view(*total_len - ihl);
  if (!payload) return std::nullopt;
  p.payload = *payload;
  return p;
}

inline std::optional<Ipv6Packet> decode_ipv6(BytesView raw) {
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

inline std::optional<UdpDatagram> decode_udp(BytesView raw) {
  ByteReader r(raw);
  UdpDatagram u;
  u.src_port = port(r.u16().value_or(0));
  u.dst_port = port(r.u16().value_or(0));
  const auto len = r.u16();
  r.skip(2);
  if (!r.ok() || *len < 8 || raw.size() < *len) return std::nullopt;
  const auto payload = r.view(*len - 8);
  if (!payload) return std::nullopt;
  u.payload = *payload;
  return u;
}

inline std::optional<TcpSegment> decode_tcp(BytesView raw) {
  ByteReader r(raw);
  TcpSegment t;
  t.src_port = port(r.u16().value_or(0));
  t.dst_port = port(r.u16().value_or(0));
  t.seq = r.u32().value_or(0);
  t.ack = r.u32().value_or(0);
  const auto offset_byte = r.u8();
  const auto flags_byte = r.u8();
  t.window = r.u16().value_or(0);
  r.skip(4);
  if (!r.ok()) return std::nullopt;
  const std::size_t header_len = static_cast<std::size_t>(*offset_byte >> 4) * 4;
  if (header_len < 20 || raw.size() < header_len) return std::nullopt;
  t.flags = TcpFlags::from_byte(*flags_byte);
  if (!r.seek(header_len)) return std::nullopt;
  t.payload = r.rest();
  return t;
}

inline std::optional<IcmpMessage> decode_icmp(BytesView raw) {
  ByteReader r(raw);
  IcmpMessage m;
  m.type = r.u8().value_or(0);
  m.code = r.u8().value_or(0);
  r.skip(2);
  if (!r.ok()) return std::nullopt;
  m.body = r.rest();
  return m;
}

inline std::optional<Icmpv6Message> decode_icmpv6(BytesView raw) {
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

inline std::optional<IgmpMessage> decode_igmp(BytesView raw) {
  ByteReader r(raw);
  IgmpMessage m;
  m.type = r.u8().value_or(0);
  r.skip(3);
  m.group = read_ipv4(r);
  if (!r.ok()) return std::nullopt;
  return m;
}

inline std::optional<PacketView> decode_frame_view(BytesView raw) {
  auto eth = reference::decode_ethernet(raw);
  if (!eth) return std::nullopt;
  PacketView p;
  p.eth = *eth;
  const BytesView body = p.eth.payload;
  if (p.eth.is_llc()) {
    p.llc = reference::decode_llc(body);
    return p;
  }
  switch (static_cast<EtherType>(p.eth.ethertype)) {
    case EtherType::kArp:
      p.arp = reference::decode_arp(body);
      break;
    case EtherType::kEapol:
      p.eapol = reference::decode_eapol(body);
      break;
    case EtherType::kIpv4: {
      p.ipv4 = reference::decode_ipv4(body);
      if (!p.ipv4 || p.ipv4->fragment_offset != 0) break;
      switch (static_cast<IpProto>(p.ipv4->protocol)) {
        case IpProto::kUdp:
          p.udp = reference::decode_udp(p.ipv4->payload);
          break;
        case IpProto::kTcp:
          p.tcp = reference::decode_tcp(p.ipv4->payload);
          break;
        case IpProto::kIcmp:
          p.icmp = reference::decode_icmp(p.ipv4->payload);
          break;
        case IpProto::kIgmp:
          p.igmp = reference::decode_igmp(p.ipv4->payload);
          break;
        default:
          break;
      }
      break;
    }
    case EtherType::kIpv6: {
      p.ipv6 = reference::decode_ipv6(body);
      if (!p.ipv6) break;
      switch (static_cast<IpProto>(p.ipv6->next_header)) {
        case IpProto::kUdp:
          p.udp = reference::decode_udp(p.ipv6->payload);
          break;
        case IpProto::kTcp:
          p.tcp = reference::decode_tcp(p.ipv6->payload);
          break;
        case IpProto::kIcmpv6:
          p.icmpv6 = reference::decode_icmpv6(p.ipv6->payload);
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

// --------------------------------------------------------------- comparison

/// The same slice of the same buffer, not merely equal bytes.
inline bool same(BytesView a, BytesView b) {
  return a.data() == b.data() && a.size() == b.size();
}

inline bool same(const EthernetFrame& a, const EthernetFrame& b) {
  return a.dst == b.dst && a.src == b.src && a.ethertype == b.ethertype &&
         same(a.payload, b.payload);
}
inline bool same(const ArpPacket& a, const ArpPacket& b) {
  return a.op == b.op && a.sender_mac == b.sender_mac &&
         a.sender_ip == b.sender_ip && a.target_mac == b.target_mac &&
         a.target_ip == b.target_ip;
}
inline bool same(const LlcXidFrame& a, const LlcXidFrame& b) {
  return a.dsap == b.dsap && a.ssap == b.ssap && a.is_xid == b.is_xid &&
         same(a.info, b.info);
}
inline bool same(const EapolFrame& a, const EapolFrame& b) {
  return a.version == b.version && a.type == b.type && same(a.body, b.body);
}
inline bool same(const Ipv4Packet& a, const Ipv4Packet& b) {
  return a.src == b.src && a.dst == b.dst && a.protocol == b.protocol &&
         a.ttl == b.ttl && a.identification == b.identification &&
         a.fragment_offset == b.fragment_offset && same(a.payload, b.payload);
}
inline bool same(const Ipv6Packet& a, const Ipv6Packet& b) {
  return a.src == b.src && a.dst == b.dst && a.next_header == b.next_header &&
         a.hop_limit == b.hop_limit && same(a.payload, b.payload);
}
inline bool same(const UdpDatagram& a, const UdpDatagram& b) {
  return a.src_port == b.src_port && a.dst_port == b.dst_port &&
         same(a.payload, b.payload);
}
inline bool same(const TcpSegment& a, const TcpSegment& b) {
  return a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.seq == b.seq && a.ack == b.ack &&
         a.flags.to_byte() == b.flags.to_byte() && a.window == b.window &&
         same(a.payload, b.payload);
}
inline bool same(const IcmpMessage& a, const IcmpMessage& b) {
  return a.type == b.type && a.code == b.code && same(a.body, b.body);
}
inline bool same(const Icmpv6Message& a, const Icmpv6Message& b) {
  return a.type == b.type && a.code == b.code && a.target == b.target &&
         a.link_layer_option == b.link_layer_option && same(a.extra, b.extra);
}
inline bool same(const IgmpMessage& a, const IgmpMessage& b) {
  return a.type == b.type && a.group == b.group;
}

/// Both absent, or both present and the same.
template <typename Layer>
bool same(const std::optional<Layer>& a, const std::optional<Layer>& b) {
  return a.has_value() == b.has_value() && (!a || same(*a, *b));
}

/// nullptr when the two decodes agree on acceptance, on the presence of
/// every layer, on every field and on every slice; otherwise the first
/// layer that differs.
inline const char* view_differs(const std::optional<PacketView>& a,
                                const std::optional<PacketView>& b) {
  if (a.has_value() != b.has_value()) return "frame acceptance differs";
  if (!a) return nullptr;
  if (!same(a->eth, b->eth)) return "eth differs";
  if (!same(a->arp, b->arp)) return "arp differs";
  if (!same(a->llc, b->llc)) return "llc differs";
  if (!same(a->eapol, b->eapol)) return "eapol differs";
  if (!same(a->ipv4, b->ipv4)) return "ipv4 differs";
  if (!same(a->ipv6, b->ipv6)) return "ipv6 differs";
  if (!same(a->udp, b->udp)) return "udp differs";
  if (!same(a->tcp, b->tcp)) return "tcp differs";
  if (!same(a->icmp, b->icmp)) return "icmp differs";
  if (!same(a->icmpv6, b->icmpv6)) return "icmpv6 differs";
  if (!same(a->igmp, b->igmp)) return "igmp differs";
  if (a->app != b->app) return "app memo differs";
  return nullptr;
}

}  // namespace roomnet::reference
