// Test fixtures made of real wire bytes. Each builder encodes a frame with
// the production encoders and keeps the bytes next to the PacketView that
// decode_frame_view() reads from them, so a fixture takes the same encode
// and decode path as a captured frame.
#pragma once

#include <stdexcept>
#include <utility>

#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet {

/// An encoded frame and its decode. `view` borrows `bytes`: a copy decodes
/// its own bytes again, and a move keeps the buffer, so the view stays valid.
struct WireFrame {
  Bytes bytes;
  PacketView view;

  explicit WireFrame(Bytes raw) : bytes(std::move(raw)), view(decode(bytes)) {}
  WireFrame(const WireFrame& other) : WireFrame(other.bytes) {}
  WireFrame(WireFrame&&) noexcept = default;
  WireFrame& operator=(const WireFrame&) = delete;
  WireFrame& operator=(WireFrame&&) = delete;

 private:
  static PacketView decode(const Bytes& raw) {
    auto view = decode_frame_view(raw);
    if (!view) throw std::invalid_argument("fixture frame does not decode");
    return *view;
  }
};

inline WireFrame ethernet_frame(MacAddress src_mac, MacAddress dst_mac,
                                EtherType type, BytesView payload) {
  EthernetFrame eth;
  eth.src = src_mac;
  eth.dst = dst_mac;
  eth.ethertype = static_cast<std::uint16_t>(type);
  eth.payload = payload;
  return WireFrame(encode_ethernet(eth));
}

inline WireFrame ipv4_frame(MacAddress src_mac, MacAddress dst_mac,
                            Ipv4Address src, Ipv4Address dst, IpProto protocol,
                            BytesView payload) {
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(protocol);
  ip.payload = payload;
  const Bytes datagram = encode_ipv4(ip);
  return ethernet_frame(src_mac, dst_mac, EtherType::kIpv4, datagram);
}

inline WireFrame udp_frame(MacAddress src_mac, MacAddress dst_mac,
                           Ipv4Address src, std::uint16_t sport,
                           Ipv4Address dst, std::uint16_t dport,
                           BytesView payload) {
  UdpDatagram udp;
  udp.src_port = port(sport);
  udp.dst_port = port(dport);
  udp.payload = payload;
  const Bytes segment = encode_udp_v4(udp, src, dst);
  return ipv4_frame(src_mac, dst_mac, src, dst, IpProto::kUdp, segment);
}

inline WireFrame tcp_frame(MacAddress src_mac, MacAddress dst_mac,
                           Ipv4Address src, std::uint16_t sport,
                           Ipv4Address dst, std::uint16_t dport,
                           TcpFlags flags, BytesView payload) {
  TcpSegment tcp;
  tcp.src_port = port(sport);
  tcp.dst_port = port(dport);
  tcp.flags = flags;
  tcp.payload = payload;
  const Bytes segment = encode_tcp_v4(tcp, src, dst);
  return ipv4_frame(src_mac, dst_mac, src, dst, IpProto::kTcp, segment);
}

inline WireFrame arp_frame(MacAddress src_mac, MacAddress dst_mac,
                           const ArpPacket& arp) {
  const Bytes body = encode_arp(arp);
  return ethernet_frame(src_mac, dst_mac, EtherType::kArp, body);
}

inline WireFrame eapol_frame(MacAddress src_mac, MacAddress dst_mac,
                             const EapolFrame& eapol) {
  const Bytes body = encode_eapol(eapol);
  return ethernet_frame(src_mac, dst_mac, EtherType::kEapol, body);
}

}  // namespace roomnet
