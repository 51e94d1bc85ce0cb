// Whole-frame decode: decode_frame_view() stacks the per-layer decoders of
// netcore/packet.hpp into a PacketView, the one decoded form every capture
// consumer reads. Decoding a frame allocates nothing: each layer's
// variable-length field is a slice of the frame buffer, so the caller owns
// the frame bytes and must keep them alive for as long as the PacketView
// (or anything derived from it) is used. See DESIGN.md §10 "Packet memory
// model & hot path" for the ownership rules.
#pragma once

#include <optional>

#include "netcore/packet.hpp"

namespace roomnet {

/// The memo of a frame's app-layer decodes. Defined by proto/app.hpp, which
/// also owns its lifetime (AppScope) and reads it (dns_of, ssdp_of, dhcp_of).
struct AppLayers;

/// One Ethernet frame decoded down to the transport layer. At most one of
/// arp/llc/eapol/ipv4/ipv6 and at most one of udp/tcp/icmp/icmpv6/igmp is
/// present. Copying a PacketView is cheap (a few hundred bytes of POD, zero
/// allocations).
struct PacketView {
  EthernetFrame eth;
  std::optional<ArpPacket> arp;
  std::optional<LlcXidFrame> llc;
  std::optional<EapolFrame> eapol;
  std::optional<Ipv4Packet> ipv4;
  std::optional<Ipv6Packet> ipv6;
  std::optional<UdpDatagram> udp;
  std::optional<TcpSegment> tcp;
  std::optional<IcmpMessage> icmp;
  std::optional<Icmpv6Message> icmpv6;
  std::optional<IgmpMessage> igmp;
  /// App-layer memo shared by every consumer of this frame, or nullptr.
  /// Attached and detached by proto's AppScope; a copy shares it, so it
  /// dies with the delivery like the slices do (see proto/app.hpp).
  mutable AppLayers* app = nullptr;

  [[nodiscard]] bool has_ip() const { return ipv4.has_value() || ipv6.has_value(); }
  [[nodiscard]] bool has_transport() const { return udp.has_value() || tcp.has_value(); }
  /// Application payload if a transport layer is present.
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

/// Parses a full Ethernet frame down to the transport layer without copying
/// a single payload byte, filling the PacketView in place. Defined in
/// packet.cpp, next to the layer parsers it inlines. A sub-layer that fails to parse stops the descent,
/// as does a non-first IPv4 fragment (its payload starts mid-datagram); the
/// Ethernet layer itself must be valid or the whole decode fails.
std::optional<PacketView> decode_frame_view(BytesView raw);

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

[[nodiscard]] inline WireProto wire_proto(const PacketView& packet) {
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
