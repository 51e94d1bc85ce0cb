// View-based decode of Ethernet frames: the layer structs here mirror the
// owning structs in netcore/packet.hpp member-for-member, but hold BytesView
// slices into the frame buffer instead of owning copies. Decoding a frame
// allocates nothing; the caller owns the frame bytes and must keep them
// alive for as long as the PacketView (or anything derived from it) is used.
// See DESIGN.md §10 "Packet memory model & hot path" for the ownership
// rules.
//
// The owning decode (decode_frame) is implemented on top of this one via
// materialize(), so the two agree field-for-field by construction — a
// property the packet_view tests still verify against fuzzed input.
#pragma once

#include <optional>

#include "netcore/packet.hpp"

namespace roomnet {

struct EthernetFrameView {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;  // or length if < 1536 (LLC framing)
  BytesView payload;

  [[nodiscard]] bool is_llc() const { return ethertype < 1536; }
};

struct LlcXidFrameView {
  std::uint8_t dsap = 0;
  std::uint8_t ssap = 0;
  bool is_xid = false;
  BytesView info;
};

struct EapolFrameView {
  std::uint8_t version = 2;
  EapolType type = EapolType::kKey;
  BytesView body;
};

struct Ipv4PacketView {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t identification = 0;
  BytesView payload;
};

struct Ipv6PacketView {
  Ipv6Address src;
  Ipv6Address dst;
  std::uint8_t next_header = 0;
  std::uint8_t hop_limit = 255;
  BytesView payload;
};

struct UdpDatagramView {
  Port src_port{};
  Port dst_port{};
  BytesView payload;
};

struct TcpSegmentView {
  Port src_port{};
  Port dst_port{};
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 65535;
  BytesView payload;
};

struct IcmpMessageView {
  std::uint8_t type = 8;
  std::uint8_t code = 0;
  BytesView body;
};

struct Icmpv6MessageView {
  Icmpv6Type type = Icmpv6Type::kNeighborSolicitation;
  std::uint8_t code = 0;
  std::optional<Ipv6Address> target;
  std::optional<MacAddress> link_layer_option;
  BytesView extra;
};

// ArpPacket and IgmpMessage own no byte buffers, so the view-based packet
// reuses them directly.

/// Non-owning equivalent of Packet: every layer's variable-length fields are
/// slices of the frame buffer handed to decode_frame_view(). Copying a
/// PacketView is cheap (a few hundred bytes of POD, zero allocations).
struct PacketView {
  EthernetFrameView eth;
  std::optional<ArpPacket> arp;
  std::optional<LlcXidFrameView> llc;
  std::optional<EapolFrameView> eapol;
  std::optional<Ipv4PacketView> ipv4;
  std::optional<Ipv6PacketView> ipv6;
  std::optional<UdpDatagramView> udp;
  std::optional<TcpSegmentView> tcp;
  std::optional<IcmpMessageView> icmp;
  std::optional<Icmpv6MessageView> icmpv6;
  std::optional<IgmpMessage> igmp;

  [[nodiscard]] bool has_ip() const { return ipv4.has_value() || ipv6.has_value(); }
  [[nodiscard]] bool has_transport() const { return udp.has_value() || tcp.has_value(); }
  [[nodiscard]] BytesView app_payload() const {
    if (udp) return udp->payload;
    if (tcp) return tcp->payload;
    return {};
  }
  [[nodiscard]] std::optional<Port> src_port() const {
    if (udp) return udp->src_port;
    if (tcp) return tcp->src_port;
    return std::nullopt;
  }
  [[nodiscard]] std::optional<Port> dst_port() const {
    if (udp) return udp->dst_port;
    if (tcp) return tcp->dst_port;
    return std::nullopt;
  }
};

/// Per-layer view decoders (allocation-free counterparts of the owning
/// decoders in packet.hpp; identical accept/reject behavior).
std::optional<EthernetFrameView> decode_ethernet_view(BytesView raw);
std::optional<LlcXidFrameView> decode_llc_view(BytesView raw);
std::optional<EapolFrameView> decode_eapol_view(BytesView raw);
std::optional<Ipv4PacketView> decode_ipv4_view(BytesView raw);
std::optional<Ipv6PacketView> decode_ipv6_view(BytesView raw);
std::optional<UdpDatagramView> decode_udp_view(BytesView raw);
std::optional<TcpSegmentView> decode_tcp_view(BytesView raw);
std::optional<IcmpMessageView> decode_icmp_view(BytesView raw);
std::optional<Icmpv6MessageView> decode_icmpv6_view(BytesView raw);

/// Parses a full Ethernet frame down to the transport layer without copying
/// a single payload byte. Same layering rules as decode_frame(): a failed
/// sub-layer stops the descent, a failed Ethernet layer fails the decode.
std::optional<PacketView> decode_frame_view(BytesView raw);

/// A PacketView aliasing the owned buffers of `packet`. Valid only while
/// `packet` is alive and its payload vectors are not reallocated.
PacketView as_view(const Packet& packet);

/// Deep-copies a PacketView into an owning Packet.
Packet materialize(const PacketView& view);

// ---------------------------------------------------------------------------
// Coarse wire-level protocol bucket: the key of the switch's per-protocol
// frame counters.
// ---------------------------------------------------------------------------

enum class WireProto : std::uint8_t {
  kArp, kEapol, kLlc, kIcmp, kIcmpv6, kIgmp, kUdp, kTcp, kIpOther, kOther,
  kCount,
};

inline constexpr const char*
    kWireProtoNames[static_cast<std::size_t>(WireProto::kCount)] = {
        "arp", "eapol", "llc", "icmp", "icmpv6", "igmp",
        "udp", "tcp",   "ip-other", "other",
};

/// Works over both Packet and PacketView (identical member names).
template <typename PacketLike>
[[nodiscard]] WireProto wire_proto(const PacketLike& packet) {
  if (packet.arp) return WireProto::kArp;
  if (packet.eapol) return WireProto::kEapol;
  if (packet.llc) return WireProto::kLlc;
  if (packet.icmp) return WireProto::kIcmp;
  if (packet.icmpv6) return WireProto::kIcmpv6;
  if (packet.igmp) return WireProto::kIgmp;
  if (packet.udp) return WireProto::kUdp;
  if (packet.tcp) return WireProto::kTcp;
  if (packet.has_ip()) return WireProto::kIpOther;
  return WireProto::kOther;
}

}  // namespace roomnet
