#include "netcore/packet.hpp"

#include <cstring>
#include <stdexcept>

#include "netcore/checksum.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet {

namespace {
MacAddress load_mac(const std::uint8_t* p) {
  std::array<std::uint8_t, 6> o;
  std::memcpy(o.data(), p, o.size());
  return MacAddress(o);
}
Ipv6Address load_ipv6(const std::uint8_t* p) {
  std::array<std::uint8_t, 16> b;
  std::memcpy(b.data(), p, b.size());
  return Ipv6Address(b);
}
void store_mac(std::uint8_t* p, const MacAddress& m) {
  std::memcpy(p, m.octets().data(), m.octets().size());
}
void store_ipv6(std::uint8_t* p, const Ipv6Address& a) {
  std::memcpy(p, a.bytes().data(), a.bytes().size());
}
/// The bytes written since offset `at`.
BytesView written_since(const ByteWriter& w, std::size_t at) {
  return BytesView(w.data()).subspan(at);
}
/// Throws unless `n` fits the 16-bit length field of `layer`.
void check_length(std::size_t n, std::size_t limit, const char* layer) {
  if (n > limit)
    throw std::length_error(std::string(layer) + " length " +
                            std::to_string(n) + " exceeds its 16-bit field");
}

// Each parser checks the header length once, then loads the fields. On
// failure it returns false and `out` is discarded by the caller.

bool parse_ethernet(BytesView raw, EthernetFrame& out) {
  if (raw.size() < 14) return false;
  const std::uint8_t* p = raw.data();
  out.dst = load_mac(p);
  out.src = load_mac(p + 6);
  out.ethertype = load_be16(p + 12);
  out.payload = raw.subspan(14);
  return true;
}

bool parse_arp(BytesView raw, ArpPacket& out) {
  if (raw.size() < 28) return false;
  const std::uint8_t* p = raw.data();
  // Ethernet (1) / IPv4 (0x0800) with 6- and 4-byte addresses.
  if (load_be32(p) != 0x00010800 || load_be16(p + 4) != 0x0604) return false;
  const std::uint16_t op = load_be16(p + 6);
  if (op != 1 && op != 2) return false;
  out.op = static_cast<ArpOp>(op);
  out.sender_mac = load_mac(p + 8);
  out.sender_ip = Ipv4Address(load_be32(p + 14));
  out.target_mac = load_mac(p + 18);
  out.target_ip = Ipv4Address(load_be32(p + 24));
  return true;
}

bool parse_llc(BytesView raw, LlcXidFrame& out) {
  if (raw.size() < 3) return false;
  out.dsap = raw[0];
  out.ssap = raw[1];
  out.is_xid = (raw[2] & 0xef) == 0xaf;
  out.info = raw.subspan(3);
  return true;
}

bool parse_eapol(BytesView raw, EapolFrame& out) {
  if (raw.size() < 4 || raw[1] > 3) return false;
  const std::size_t len = load_be16(raw.data() + 2);
  if (raw.size() - 4 < len) return false;
  out.version = raw[0];
  out.type = static_cast<EapolType>(raw[1]);
  out.body = raw.subspan(4, len);
  return true;
}

bool parse_ipv4(BytesView raw, Ipv4Packet& out) {
  if (raw.size() < 20 || (raw[0] >> 4) != 4) return false;
  const std::uint8_t* p = raw.data();
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
  const std::size_t total_len = load_be16(p + 2);
  if (ihl < 20 || total_len < ihl || raw.size() < total_len) return false;
  out.identification = load_be16(p + 4);
  out.fragment_offset = load_be16(p + 6) & 0x1fff;  // drop the 3 flag bits
  out.ttl = p[8];
  out.protocol = p[9];
  // p[10..11]: checksum (trusted; the simulator always writes valid ones)
  out.src = Ipv4Address(load_be32(p + 12));
  out.dst = Ipv4Address(load_be32(p + 16));
  out.payload = raw.subspan(ihl, total_len - ihl);
  return true;
}

bool parse_ipv6(BytesView raw, Ipv6Packet& out) {
  if (raw.size() < 40 || (raw[0] >> 4) != 6) return false;
  const std::uint8_t* p = raw.data();
  const std::size_t payload_len = load_be16(p + 4);
  if (raw.size() - 40 < payload_len) return false;
  out.next_header = p[6];
  out.hop_limit = p[7];
  out.src = load_ipv6(p + 8);
  out.dst = load_ipv6(p + 24);
  out.payload = raw.subspan(40, payload_len);
  return true;
}

bool parse_udp(BytesView raw, UdpDatagram& out) {
  if (raw.size() < 8) return false;
  const std::uint8_t* p = raw.data();
  const std::size_t len = load_be16(p + 4);
  if (len < 8 || raw.size() < len) return false;
  out.src_port = port(load_be16(p));
  out.dst_port = port(load_be16(p + 2));
  out.payload = raw.subspan(8, len - 8);
  return true;
}

bool parse_tcp(BytesView raw, TcpSegment& out) {
  if (raw.size() < 20) return false;
  const std::uint8_t* p = raw.data();
  const std::size_t header_len = static_cast<std::size_t>(p[12] >> 4) * 4;
  if (header_len < 20 || raw.size() < header_len) return false;
  out.src_port = port(load_be16(p));
  out.dst_port = port(load_be16(p + 2));
  out.seq = load_be32(p + 4);
  out.ack = load_be32(p + 8);
  out.flags = TcpFlags::from_byte(p[13]);
  out.window = load_be16(p + 14);
  out.payload = raw.subspan(header_len);
  return true;
}

bool parse_icmp(BytesView raw, IcmpMessage& out) {
  if (raw.size() < 4) return false;
  out.type = raw[0];
  out.code = raw[1];
  out.body = raw.subspan(4);
  return true;
}

bool is_ndp(Icmpv6Type type) {
  return type == Icmpv6Type::kNeighborSolicitation ||
         type == Icmpv6Type::kNeighborAdvertisement;
}

bool parse_icmpv6(BytesView raw, Icmpv6Message& out) {
  if (raw.size() < 4) return false;
  out.type = static_cast<Icmpv6Type>(raw[0]);
  out.code = raw[1];
  if (!is_ndp(out.type)) {
    out.extra = raw.subspan(4);
    return true;
  }
  // Reserved/flags, then the target address.
  if (raw.size() < 24) return false;
  out.target = load_ipv6(raw.data() + 8);
  // Options: the last source/target link-layer address option wins; an
  // option running past the end rejects the message.
  std::size_t at = 24;
  while (raw.size() - at >= 8) {
    const std::uint8_t type = raw[at];
    const std::size_t len = static_cast<std::size_t>(raw[at + 1]) * 8;
    if (len == 0) break;
    if (raw.size() - at < len) return false;
    if (type == 1 || type == 2) out.link_layer_option = load_mac(raw.data() + at + 2);
    at += len;
  }
  return true;
}

bool parse_igmp(BytesView raw, IgmpMessage& out) {
  if (raw.size() < 8) return false;
  out.type = raw[0];
  out.group = Ipv4Address(load_be32(raw.data() + 4));
  return true;
}

/// Decodes `raw` into `slot` in place; leaves it empty if `parse` rejects.
template <typename Layer>
void decode_into(std::optional<Layer>& slot, BytesView raw,
                 bool (*parse)(BytesView, Layer&)) {
  if (!parse(raw, slot.emplace())) slot.reset();
}

template <typename Layer>
std::optional<Layer> decode_alone(BytesView raw,
                                  bool (*parse)(BytesView, Layer&)) {
  std::optional<Layer> out;
  decode_into(out, raw, parse);
  return out;
}
}  // namespace

// ----------------------------------------------------------------- Ethernet

void append_ethernet_header(ByteWriter& w, const EthernetFrame& frame) {
  std::uint8_t* p = w.grow(14);
  store_mac(p, frame.dst);
  store_mac(p + 6, frame.src);
  store_be16(p + 12, frame.ethertype);
}

Bytes encode_ethernet(const EthernetFrame& frame) {
  ByteWriter w;
  append_ethernet_header(w.reserve(14 + frame.payload.size()), frame);
  return w.raw(frame.payload).take();
}

std::optional<EthernetFrame> decode_ethernet(BytesView raw) {
  return decode_alone(raw, parse_ethernet);
}

// ---------------------------------------------------------------------- ARP

void append_arp(ByteWriter& w, const ArpPacket& arp) {
  std::uint8_t* p = w.grow(28);
  store_be32(p, 0x00010800);  // hardware Ethernet, protocol IPv4
  store_be16(p + 4, 0x0604);  // address lengths
  store_be16(p + 6, static_cast<std::uint16_t>(arp.op));
  store_mac(p + 8, arp.sender_mac);
  store_be32(p + 14, arp.sender_ip.value());
  store_mac(p + 18, arp.target_mac);
  store_be32(p + 24, arp.target_ip.value());
}

Bytes encode_arp(const ArpPacket& arp) {
  ByteWriter w;
  append_arp(w.reserve(28), arp);
  return w.take();
}

std::optional<ArpPacket> decode_arp(BytesView raw) {
  return decode_alone(raw, parse_arp);
}

// ------------------------------------------------------------------ LLC/XID

void append_llc_xid(ByteWriter& w, const LlcXidFrame& frame) {
  std::uint8_t* p = w.grow(3);
  p[0] = frame.dsap;
  p[1] = frame.ssap;
  p[2] = frame.is_xid ? 0xaf : 0x03;  // XID command vs UI
  w.raw(frame.info);
}

Bytes encode_llc_xid(const LlcXidFrame& frame) {
  ByteWriter w;
  append_llc_xid(w.reserve(3 + frame.info.size()), frame);
  return w.take();
}

std::optional<LlcXidFrame> decode_llc(BytesView raw) {
  return decode_alone(raw, parse_llc);
}

// -------------------------------------------------------------------- EAPOL

void append_eapol(ByteWriter& w, const EapolFrame& frame) {
  check_length(frame.body.size(), 0xffff, "EAPOL body");
  std::uint8_t* p = w.grow(4);
  p[0] = frame.version;
  p[1] = static_cast<std::uint8_t>(frame.type);
  store_be16(p + 2, static_cast<std::uint16_t>(frame.body.size()));
  w.raw(frame.body);
}

Bytes encode_eapol(const EapolFrame& frame) {
  ByteWriter w;
  append_eapol(w.reserve(4 + frame.body.size()), frame);
  return w.take();
}

std::optional<EapolFrame> decode_eapol(BytesView raw) {
  return decode_alone(raw, parse_eapol);
}

// --------------------------------------------------------------------- IPv4

void append_ipv4_header(ByteWriter& w, const Ipv4Packet& packet,
                        std::size_t payload_len) {
  check_length(payload_len, 0xffff - 20, "IPv4 payload");
  std::uint8_t* p = w.grow(20);
  p[0] = 0x45;  // version 4, IHL 5; p[1] DSCP/ECN 0
  store_be16(p + 2, static_cast<std::uint16_t>(20 + payload_len));
  store_be16(p + 4, packet.identification);
  store_be16(p + 6, 0x4000);  // flags: DF
  p[8] = packet.ttl;
  p[9] = packet.protocol;
  store_be32(p + 12, packet.src.value());
  store_be32(p + 16, packet.dst.value());
  store_be16(p + 10, internet_checksum(BytesView(p, 20)));
}

Bytes encode_ipv4(const Ipv4Packet& packet) {
  ByteWriter w;
  append_ipv4_header(w.reserve(20 + packet.payload.size()), packet,
                     packet.payload.size());
  return w.raw(packet.payload).take();
}

std::optional<Ipv4Packet> decode_ipv4(BytesView raw) {
  return decode_alone(raw, parse_ipv4);
}

// --------------------------------------------------------------------- IPv6

void append_ipv6_header(ByteWriter& w, const Ipv6Packet& packet,
                        std::size_t payload_len) {
  check_length(payload_len, 0xffff, "IPv6 payload");
  std::uint8_t* p = w.grow(40);
  store_be32(p, 0x60000000);  // version 6, no traffic class/flow label
  store_be16(p + 4, static_cast<std::uint16_t>(payload_len));
  p[6] = packet.next_header;
  p[7] = packet.hop_limit;
  store_ipv6(p + 8, packet.src);
  store_ipv6(p + 24, packet.dst);
}

Bytes encode_ipv6(const Ipv6Packet& packet) {
  ByteWriter w;
  append_ipv6_header(w.reserve(40 + packet.payload.size()), packet,
                     packet.payload.size());
  return w.raw(packet.payload).take();
}

std::optional<Ipv6Packet> decode_ipv6(BytesView raw) {
  return decode_alone(raw, parse_ipv6);
}

// ---------------------------------------------------------------------- UDP

namespace {
/// Appends the datagram with a zero checksum; returns where it starts.
std::size_t append_udp_unsummed(ByteWriter& w, const UdpDatagram& udp) {
  check_length(udp.payload.size(), 0xffff - 8, "UDP payload");
  const std::size_t at = w.size();
  std::uint8_t* p = w.grow(8);
  store_be16(p, value(udp.src_port));
  store_be16(p + 2, value(udp.dst_port));
  store_be16(p + 4, static_cast<std::uint16_t>(8 + udp.payload.size()));
  w.raw(udp.payload);  // p[6..7]: checksum, patched by the caller
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
  return decode_alone(raw, parse_udp);
}

// ---------------------------------------------------------------------- TCP

void append_tcp_v4(ByteWriter& w, const TcpSegment& tcp, Ipv4Address src,
                   Ipv4Address dst) {
  const std::size_t at = w.size();
  std::uint8_t* p = w.grow(20);
  store_be16(p, value(tcp.src_port));
  store_be16(p + 2, value(tcp.dst_port));
  store_be32(p + 4, tcp.seq);
  store_be32(p + 8, tcp.ack);
  p[12] = 0x50;  // data offset 5 words
  p[13] = tcp.flags.to_byte();
  store_be16(p + 14, tcp.window);
  // p[16..17] checksum, patched below; p[18..19] urgent pointer 0
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
  return decode_alone(raw, parse_tcp);
}

// --------------------------------------------------------------------- ICMP

void append_icmp(ByteWriter& w, const IcmpMessage& icmp) {
  const std::size_t at = w.size();
  std::uint8_t* p = w.grow(4);
  p[0] = icmp.type;
  p[1] = icmp.code;
  w.raw(icmp.body);
  w.patch_u16(at + 2, internet_checksum(written_since(w, at)));
}

Bytes encode_icmp(const IcmpMessage& icmp) {
  ByteWriter w;
  append_icmp(w.reserve(4 + icmp.body.size()), icmp);
  return w.take();
}

std::optional<IcmpMessage> decode_icmp(BytesView raw) {
  return decode_alone(raw, parse_icmp);
}

// ------------------------------------------------------------------- ICMPv6

void append_icmpv6(ByteWriter& w, const Icmpv6Message& msg,
                   const Ipv6Address& src, const Ipv6Address& dst) {
  const std::size_t at = w.size();
  const bool ndp = is_ndp(msg.type);
  const bool lladdr = msg.link_layer_option.has_value();
  std::uint8_t* p = w.grow(4 + (ndp ? 20 : 0) + (lladdr ? 8 : 0));
  p[0] = static_cast<std::uint8_t>(msg.type);
  p[1] = msg.code;
  p += 4;  // past the checksum, patched below
  if (ndp) {
    // Reserved/flags 0, then the target.
    store_ipv6(p + 4, msg.target.value_or(Ipv6Address{}));
    p += 20;
  }
  if (lladdr) {
    // Option type 1 (source lladdr) for solicitations, 2 (target) for ads,
    // length 1 (in units of 8 bytes).
    p[0] = msg.type == Icmpv6Type::kNeighborAdvertisement ? 2 : 1;
    p[1] = 1;
    store_mac(p + 2, *msg.link_layer_option);
  }
  w.raw(msg.extra);
  const std::uint16_t csum = transport_checksum_v6(
      src, dst, static_cast<std::uint8_t>(IpProto::kIcmpv6), written_since(w, at));
  w.patch_u16(at + 2, csum);
}

Bytes encode_icmpv6(const Icmpv6Message& msg, const Ipv6Address& src,
                    const Ipv6Address& dst) {
  ByteWriter w;
  append_icmpv6(w.reserve(32 + msg.extra.size()), msg, src, dst);
  return w.take();
}

std::optional<Icmpv6Message> decode_icmpv6(BytesView raw) {
  return decode_alone(raw, parse_icmpv6);
}

// --------------------------------------------------------------------- IGMP

void append_igmp(ByteWriter& w, const IgmpMessage& msg) {
  std::uint8_t* p = w.grow(8);
  p[0] = msg.type;
  store_be32(p + 4, msg.group.value());
  store_be16(p + 2, internet_checksum(BytesView(p, 8)));
}

Bytes encode_igmp(const IgmpMessage& msg) {
  ByteWriter w;
  append_igmp(w.reserve(8), msg);
  return w.take();
}

std::optional<IgmpMessage> decode_igmp(BytesView raw) {
  return decode_alone(raw, parse_igmp);
}

// -------------------------------------------------------------- whole frame

std::optional<PacketView> decode_frame_view(BytesView raw) {
  std::optional<PacketView> out;
  PacketView& p = out.emplace();
  if (!parse_ethernet(raw, p.eth)) {
    out.reset();
    return out;
  }
  const BytesView body = p.eth.payload;

  if (p.eth.is_llc()) {
    decode_into(p.llc, body, parse_llc);
    return out;
  }
  switch (static_cast<EtherType>(p.eth.ethertype)) {
    case EtherType::kArp:
      decode_into(p.arp, body, parse_arp);
      break;
    case EtherType::kEapol:
      decode_into(p.eapol, body, parse_eapol);
      break;
    case EtherType::kIpv4: {
      decode_into(p.ipv4, body, parse_ipv4);
      // A non-first fragment carries the middle of a datagram: reading it
      // as a transport header would invent ports.
      if (!p.ipv4 || p.ipv4->fragment_offset != 0) break;
      const BytesView segment = p.ipv4->payload;
      switch (static_cast<IpProto>(p.ipv4->protocol)) {
        case IpProto::kUdp:
          decode_into(p.udp, segment, parse_udp);
          break;
        case IpProto::kTcp:
          decode_into(p.tcp, segment, parse_tcp);
          break;
        case IpProto::kIcmp:
          decode_into(p.icmp, segment, parse_icmp);
          break;
        case IpProto::kIgmp:
          decode_into(p.igmp, segment, parse_igmp);
          break;
        default:
          break;
      }
      break;
    }
    case EtherType::kIpv6: {
      decode_into(p.ipv6, body, parse_ipv6);
      if (!p.ipv6) break;
      const BytesView segment = p.ipv6->payload;
      switch (static_cast<IpProto>(p.ipv6->next_header)) {
        case IpProto::kUdp:
          decode_into(p.udp, segment, parse_udp);
          break;
        case IpProto::kTcp:
          decode_into(p.tcp, segment, parse_tcp);
          break;
        case IpProto::kIcmpv6:
          decode_into(p.icmpv6, segment, parse_icmpv6);
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return out;
}

}  // namespace roomnet
