// Wire-format codecs for the link/network/transport layers: one struct, one
// encoder and one decoder per layer. netcore/packet_view.hpp stacks the
// decoders into decode_frame_view().
//
// Every encoder produces genuine wire bytes (correct framing and checksums);
// every decoder is safe on arbitrary untrusted input and returns nullopt on
// malformed data. A fixed header is written through one reservation
// (ByteWriter::grow) and read after one length check, each field stored or
// loaded directly. An encoder throws std::length_error rather than wrap a
// 16-bit length field its payload does not fit (IPv4, IPv6, UDP, EAPOL).
//
// Each encoder has two forms. `append_*` writes the layer at the end of a
// ByteWriter and patches its checksum in place, so a sender can build a
// whole frame in one buffer: the header of an enclosing layer (Ethernet,
// IPv4, IPv6) is written first for a payload length the caller then fills
// (`append_*_header`), and an inner layer appends its header and payload.
// `encode_*` returns one layer as its own Bytes; each is a thin wrapper over
// the append form, for tests, fuzzers and callers not building a frame.
//
// Lifetime rule: a layer struct owns no bytes. Its variable-length field
// (`payload`, `info`, `body`, `extra`) is a BytesView, so
//   * a decoded struct borrows from the buffer it was decoded from and must
//     not outlive it;
//   * an encoder's input bytes must outlive the encode_* call. Bind each
//     inner encoding to a named local before the outer struct points at it:
//       const Bytes segment = encode_udp_v4(udp, src, dst);
//       ip.payload = segment;  // not `ip.payload = encode_udp_v4(...)`
#pragma once

#include <cstdint>
#include <optional>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"

namespace roomnet {

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kIpv6 = 0x86dd,
  kEapol = 0x888e,
};

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;  // or length if < 1536 (LLC framing)
  BytesView payload;

  [[nodiscard]] bool is_llc() const { return ethertype < 1536; }
};

/// Appends the 14-byte header; `frame.payload` is not read.
void append_ethernet_header(ByteWriter& w, const EthernetFrame& frame);
Bytes encode_ethernet(const EthernetFrame& frame);
std::optional<EthernetFrame> decode_ethernet(BytesView raw);

// ---------------------------------------------------------------------------
// ARP (RFC 826) — Ethernet/IPv4 only, which is all the paper's LANs use.
// ---------------------------------------------------------------------------

enum class ArpOp : std::uint16_t { kRequest = 1, kReply = 2 };

struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;  // zero in requests
  Ipv4Address target_ip;
};

void append_arp(ByteWriter& w, const ArpPacket& arp);
Bytes encode_arp(const ArpPacket& arp);
std::optional<ArpPacket> decode_arp(BytesView raw);

// ---------------------------------------------------------------------------
// LLC / XID — the paper observes XID/LLC broadcast discovery frames.
// ---------------------------------------------------------------------------

struct LlcXidFrame {
  std::uint8_t dsap = 0;
  std::uint8_t ssap = 0;
  bool is_xid = false;  // control byte 0xAF/0xBF
  BytesView info;
};

/// Encodes the LLC payload (placed in an Ethernet frame with length field).
void append_llc_xid(ByteWriter& w, const LlcXidFrame& frame);
Bytes encode_llc_xid(const LlcXidFrame& frame);
std::optional<LlcXidFrame> decode_llc(BytesView raw);

// ---------------------------------------------------------------------------
// EAPOL (IEEE 802.1X) — observed on 84% of devices (Wi-Fi key exchanges).
// ---------------------------------------------------------------------------

enum class EapolType : std::uint8_t { kEapPacket = 0, kStart = 1, kLogoff = 2, kKey = 3 };

struct EapolFrame {
  std::uint8_t version = 2;
  EapolType type = EapolType::kKey;
  BytesView body;
};

void append_eapol(ByteWriter& w, const EapolFrame& frame);
Bytes encode_eapol(const EapolFrame& frame);
std::optional<EapolFrame> decode_eapol(BytesView raw);

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kIgmp = 2,
  kTcp = 6,
  kUdp = 17,
  kIcmpv6 = 58,
};

struct Ipv4Packet {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t identification = 0;
  /// Fragment offset in 8-byte units. Non-zero means the payload is the
  /// middle of a datagram, so decode_frame_view() stops at this layer. Read
  /// by the decoder only: the encoder always writes DF with offset 0.
  std::uint16_t fragment_offset = 0;
  BytesView payload;
};

/// Appends the 20-byte header, checksum final, for a `payload_len`-byte
/// payload the caller appends next; `packet.payload` is not read.
void append_ipv4_header(ByteWriter& w, const Ipv4Packet& packet,
                        std::size_t payload_len);
Bytes encode_ipv4(const Ipv4Packet& packet);
std::optional<Ipv4Packet> decode_ipv4(BytesView raw);

// ---------------------------------------------------------------------------
// IPv6 (no extension headers; next-header is the transport protocol)
// ---------------------------------------------------------------------------

struct Ipv6Packet {
  Ipv6Address src;
  Ipv6Address dst;
  std::uint8_t next_header = 0;
  std::uint8_t hop_limit = 255;
  BytesView payload;
};

/// Appends the 40-byte header for a `payload_len`-byte payload the caller
/// appends next; `packet.payload` is not read.
void append_ipv6_header(ByteWriter& w, const Ipv6Packet& packet,
                        std::size_t payload_len);
Bytes encode_ipv6(const Ipv6Packet& packet);
std::optional<Ipv6Packet> decode_ipv6(BytesView raw);

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

struct UdpDatagram {
  Port src_port{};
  Port dst_port{};
  BytesView payload;
};

/// Checksum requires the enclosing IP addresses.
void append_udp_v4(ByteWriter& w, const UdpDatagram& udp, Ipv4Address src,
                   Ipv4Address dst);
void append_udp_v6(ByteWriter& w, const UdpDatagram& udp,
                   const Ipv6Address& src, const Ipv6Address& dst);
Bytes encode_udp_v4(const UdpDatagram& udp, Ipv4Address src, Ipv4Address dst);
Bytes encode_udp_v6(const UdpDatagram& udp, const Ipv6Address& src,
                    const Ipv6Address& dst);
std::optional<UdpDatagram> decode_udp(BytesView raw);

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

struct TcpFlags {
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack = false;

  [[nodiscard]] std::uint8_t to_byte() const {
    return static_cast<std::uint8_t>((fin ? 0x01 : 0) | (syn ? 0x02 : 0) |
                                     (rst ? 0x04 : 0) | (psh ? 0x08 : 0) |
                                     (ack ? 0x10 : 0));
  }
  static TcpFlags from_byte(std::uint8_t b) {
    return {.fin = (b & 0x01) != 0,
            .syn = (b & 0x02) != 0,
            .rst = (b & 0x04) != 0,
            .psh = (b & 0x08) != 0,
            .ack = (b & 0x10) != 0};
  }
};

struct TcpSegment {
  Port src_port{};
  Port dst_port{};
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
  BytesView payload;
};

void append_tcp_v4(ByteWriter& w, const TcpSegment& tcp, Ipv4Address src,
                   Ipv4Address dst);
Bytes encode_tcp_v4(const TcpSegment& tcp, Ipv4Address src, Ipv4Address dst);
std::optional<TcpSegment> decode_tcp(BytesView raw);

// ---------------------------------------------------------------------------
// ICMP / ICMPv6 / IGMP — enough structure for discovery & scan analysis.
// ---------------------------------------------------------------------------

struct IcmpMessage {
  std::uint8_t type = 8;  // 8 echo request, 0 echo reply, 3 unreachable
  std::uint8_t code = 0;
  BytesView body;
};

void append_icmp(ByteWriter& w, const IcmpMessage& icmp);
Bytes encode_icmp(const IcmpMessage& icmp);
std::optional<IcmpMessage> decode_icmp(BytesView raw);

/// ICMPv6 types used by the simulator (NDP per RFC 4861, as §5.1 discusses).
enum class Icmpv6Type : std::uint8_t {
  kEchoRequest = 128,
  kEchoReply = 129,
  kRouterSolicitation = 133,
  kRouterAdvertisement = 134,
  kNeighborSolicitation = 135,
  kNeighborAdvertisement = 136,
};

struct Icmpv6Message {
  Icmpv6Type type = Icmpv6Type::kNeighborSolicitation;
  std::uint8_t code = 0;
  /// For NS/NA: the target address; carried in the body.
  std::optional<Ipv6Address> target;
  /// Source/target link-layer address option — this is the MAC exposure the
  /// paper flags (§5.1 "ICMPv6 queries can include the MAC addresses").
  std::optional<MacAddress> link_layer_option;
  BytesView extra;
};

void append_icmpv6(ByteWriter& w, const Icmpv6Message& msg,
                   const Ipv6Address& src, const Ipv6Address& dst);
Bytes encode_icmpv6(const Icmpv6Message& msg, const Ipv6Address& src,
                    const Ipv6Address& dst);
std::optional<Icmpv6Message> decode_icmpv6(BytesView raw);

struct IgmpMessage {
  std::uint8_t type = 0x16;  // 0x16 v2 report, 0x22 v3 report, 0x17 leave
  Ipv4Address group;
};

void append_igmp(ByteWriter& w, const IgmpMessage& msg);
Bytes encode_igmp(const IgmpMessage& msg);
std::optional<IgmpMessage> decode_igmp(BytesView raw);

}  // namespace roomnet
