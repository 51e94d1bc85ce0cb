// Tests for the zero-copy packet hot path: view-based frame decode
// (decode_frame_view ≡ decode_frame on valid AND malformed input) and the
// as_view/materialize bridges. See DESIGN.md §10 for the memory model under
// test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/rng.hpp"

namespace roomnet {
namespace {

// ----------------------------------------------- frame builders for decode

Bytes udp4_frame(std::uint16_t sport, std::uint16_t dport,
                 const std::string& payload) {
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(dport);
  u.payload = bytes_of(payload);
  const Ipv4Address src(192, 168, 1, 7), dst(192, 168, 1, 20);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  ip.payload = encode_udp_v4(u, src, dst);
  EthernetFrame eth;
  eth.dst = MacAddress::from_u64(0x0a0b0c0d0e0full);
  eth.src = MacAddress::from_u64(0x0102030405ull);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.payload = encode_ipv4(ip);
  return encode_ethernet(eth);
}

Bytes tcp4_frame(const std::string& payload) {
  TcpSegment t;
  t.src_port = port(40001);
  t.dst_port = port(80);
  t.seq = 1000;
  t.ack = 2000;
  t.flags.psh = true;
  t.flags.ack = true;
  t.payload = bytes_of(payload);
  const Ipv4Address src(192, 168, 1, 8), dst(192, 168, 1, 9);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kTcp);
  ip.payload = encode_tcp_v4(t, src, dst);
  EthernetFrame eth;
  eth.dst = MacAddress::from_u64(6);
  eth.src = MacAddress::from_u64(5);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.payload = encode_ipv4(ip);
  return encode_ethernet(eth);
}

Bytes arp_frame() {
  ArpPacket a;
  a.op = ArpOp::kRequest;
  a.sender_mac = MacAddress::from_u64(11);
  a.sender_ip = Ipv4Address(192, 168, 1, 1);
  a.target_ip = Ipv4Address(192, 168, 1, 2);
  EthernetFrame eth;
  eth.dst = MacAddress::kBroadcast;
  eth.src = a.sender_mac;
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kArp);
  eth.payload = encode_arp(a);
  return encode_ethernet(eth);
}

Bytes llc_frame() {
  LlcXidFrame f;
  f.is_xid = true;
  f.info = bytes_of("x");
  EthernetFrame eth;
  eth.dst = MacAddress::kBroadcast;
  eth.src = MacAddress::from_u64(2);
  eth.payload = encode_llc_xid(f);
  eth.ethertype = static_cast<std::uint16_t>(eth.payload.size());  // length
  return encode_ethernet(eth);
}

Bytes eapol_frame() {
  EapolFrame f;
  f.type = EapolType::kKey;
  f.body = bytes_of("key-material");
  EthernetFrame eth;
  eth.dst = MacAddress::from_u64(1);
  eth.src = MacAddress::from_u64(2);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kEapol);
  eth.payload = encode_eapol(f);
  return encode_ethernet(eth);
}

Bytes icmp_frame() {
  IcmpMessage m;
  m.type = 3;
  m.code = 3;
  m.body = bytes_of("embedded");
  Ipv4Packet ip;
  ip.src = Ipv4Address(192, 168, 1, 3);
  ip.dst = Ipv4Address(192, 168, 1, 4);
  ip.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  ip.payload = encode_icmp(m);
  EthernetFrame eth;
  eth.dst = MacAddress::from_u64(3);
  eth.src = MacAddress::from_u64(4);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.payload = encode_ipv4(ip);
  return encode_ethernet(eth);
}

Bytes udp6_frame(const std::string& payload) {
  UdpDatagram u;
  u.src_port = port(5353);
  u.dst_port = port(5353);
  u.payload = bytes_of(payload);
  const Ipv6Address src = Ipv6Address::link_local_from_mac(MacAddress::from_u64(9));
  const Ipv6Address dst = Ipv6Address::mdns_group();
  Ipv6Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.next_header = static_cast<std::uint8_t>(IpProto::kUdp);
  ip.payload = encode_udp_v6(u, src, dst);
  EthernetFrame eth;
  eth.dst = MacAddress::from_u64(0x333300fb);
  eth.src = MacAddress::from_u64(9);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv6);
  eth.payload = encode_ipv6(ip);
  return encode_ethernet(eth);
}

std::vector<Bytes> sample_frames() {
  return {udp4_frame(5353, 5353, "mdns-ish payload"),
          udp4_frame(49152, 6667, ""),
          tcp4_frame("GET /description.xml HTTP/1.1\r\n\r\n"),
          tcp4_frame(""),
          arp_frame(),
          llc_frame(),
          eapol_frame(),
          icmp_frame(),
          udp6_frame("v6 traffic")};
}

// ------------------------------------- Packet ≡ PacketView field equality

void expect_same_bytes(const Bytes& owned, BytesView view,
                       const std::string& what) {
  EXPECT_EQ(to_hex(BytesView(owned)), to_hex(view)) << what;
}

/// Asserts that an owning decode and a view decode agree member-for-member.
void expect_equivalent(const Packet& p, const PacketView& v) {
  EXPECT_EQ(p.eth.dst, v.eth.dst);
  EXPECT_EQ(p.eth.src, v.eth.src);
  EXPECT_EQ(p.eth.ethertype, v.eth.ethertype);
  expect_same_bytes(p.eth.payload, v.eth.payload, "eth.payload");

  ASSERT_EQ(p.arp.has_value(), v.arp.has_value());
  if (p.arp) {
    EXPECT_EQ(p.arp->op, v.arp->op);
    EXPECT_EQ(p.arp->sender_mac, v.arp->sender_mac);
    EXPECT_EQ(p.arp->sender_ip, v.arp->sender_ip);
    EXPECT_EQ(p.arp->target_mac, v.arp->target_mac);
    EXPECT_EQ(p.arp->target_ip, v.arp->target_ip);
  }
  ASSERT_EQ(p.llc.has_value(), v.llc.has_value());
  if (p.llc) {
    EXPECT_EQ(p.llc->dsap, v.llc->dsap);
    EXPECT_EQ(p.llc->ssap, v.llc->ssap);
    EXPECT_EQ(p.llc->is_xid, v.llc->is_xid);
    expect_same_bytes(p.llc->info, v.llc->info, "llc.info");
  }
  ASSERT_EQ(p.eapol.has_value(), v.eapol.has_value());
  if (p.eapol) {
    EXPECT_EQ(p.eapol->version, v.eapol->version);
    EXPECT_EQ(p.eapol->type, v.eapol->type);
    expect_same_bytes(p.eapol->body, v.eapol->body, "eapol.body");
  }
  ASSERT_EQ(p.ipv4.has_value(), v.ipv4.has_value());
  if (p.ipv4) {
    EXPECT_EQ(p.ipv4->src, v.ipv4->src);
    EXPECT_EQ(p.ipv4->dst, v.ipv4->dst);
    EXPECT_EQ(p.ipv4->protocol, v.ipv4->protocol);
    EXPECT_EQ(p.ipv4->ttl, v.ipv4->ttl);
    EXPECT_EQ(p.ipv4->identification, v.ipv4->identification);
    expect_same_bytes(p.ipv4->payload, v.ipv4->payload, "ipv4.payload");
  }
  ASSERT_EQ(p.ipv6.has_value(), v.ipv6.has_value());
  if (p.ipv6) {
    EXPECT_EQ(p.ipv6->src, v.ipv6->src);
    EXPECT_EQ(p.ipv6->dst, v.ipv6->dst);
    EXPECT_EQ(p.ipv6->next_header, v.ipv6->next_header);
    EXPECT_EQ(p.ipv6->hop_limit, v.ipv6->hop_limit);
    expect_same_bytes(p.ipv6->payload, v.ipv6->payload, "ipv6.payload");
  }
  ASSERT_EQ(p.udp.has_value(), v.udp.has_value());
  if (p.udp) {
    EXPECT_EQ(p.udp->src_port, v.udp->src_port);
    EXPECT_EQ(p.udp->dst_port, v.udp->dst_port);
    expect_same_bytes(p.udp->payload, v.udp->payload, "udp.payload");
  }
  ASSERT_EQ(p.tcp.has_value(), v.tcp.has_value());
  if (p.tcp) {
    EXPECT_EQ(p.tcp->src_port, v.tcp->src_port);
    EXPECT_EQ(p.tcp->dst_port, v.tcp->dst_port);
    EXPECT_EQ(p.tcp->seq, v.tcp->seq);
    EXPECT_EQ(p.tcp->ack, v.tcp->ack);
    EXPECT_EQ(p.tcp->flags.to_byte(), v.tcp->flags.to_byte());
    EXPECT_EQ(p.tcp->window, v.tcp->window);
    expect_same_bytes(p.tcp->payload, v.tcp->payload, "tcp.payload");
  }
  ASSERT_EQ(p.icmp.has_value(), v.icmp.has_value());
  if (p.icmp) {
    EXPECT_EQ(p.icmp->type, v.icmp->type);
    EXPECT_EQ(p.icmp->code, v.icmp->code);
    expect_same_bytes(p.icmp->body, v.icmp->body, "icmp.body");
  }
  ASSERT_EQ(p.icmpv6.has_value(), v.icmpv6.has_value());
  if (p.icmpv6) {
    EXPECT_EQ(p.icmpv6->type, v.icmpv6->type);
    EXPECT_EQ(p.icmpv6->code, v.icmpv6->code);
    EXPECT_EQ(p.icmpv6->target, v.icmpv6->target);
    EXPECT_EQ(p.icmpv6->link_layer_option, v.icmpv6->link_layer_option);
    expect_same_bytes(p.icmpv6->extra, v.icmpv6->extra, "icmpv6.extra");
  }
  ASSERT_EQ(p.igmp.has_value(), v.igmp.has_value());
  if (p.igmp) {
    EXPECT_EQ(p.igmp->type, v.igmp->type);
    EXPECT_EQ(p.igmp->group, v.igmp->group);
  }
}

/// Both decoders must agree on accept/reject, and on every field on accept.
void expect_decoders_agree(BytesView raw) {
  const auto owned = decode_frame(raw);
  const auto view = decode_frame_view(raw);
  ASSERT_EQ(owned.has_value(), view.has_value())
      << "decoders disagree on acceptance of " << to_hex(raw);
  if (owned) expect_equivalent(*owned, *view);
}

TEST(DecodeFrameView, AgreesWithOwningDecodeOnValidFrames) {
  for (const Bytes& frame : sample_frames()) {
    SCOPED_TRACE(to_hex(BytesView(frame)));
    expect_decoders_agree(BytesView(frame));
  }
}

TEST(DecodeFrameView, AgreesOnEveryTruncationOfValidFrames) {
  // Truncation sweeps the accept/reject boundary of every layer decoder:
  // both paths must fail (or degrade to a shallower parse) identically.
  for (const Bytes& frame : sample_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      SCOPED_TRACE("len=" + std::to_string(len));
      expect_decoders_agree(BytesView(frame.data(), len));
    }
  }
}

TEST(DecodeFrameView, AgreesOnMutatedFrames) {
  Rng rng(2026);
  const auto frames = sample_frames();
  for (int round = 0; round < 2000; ++round) {
    Bytes frame = frames[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(frames.size()) - 1))];
    const int flips = static_cast<int>(rng.range(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(rng.next_u64() | 1);
    }
    expect_decoders_agree(BytesView(frame));
  }
}

TEST(DecodeFrameView, AgreesOnRandomGarbage) {
  Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    const Bytes noise = rng.bytes(static_cast<std::size_t>(rng.range(0, 120)));
    expect_decoders_agree(BytesView(noise));
  }
}

// ---------------------------------------------------- as_view / materialize

TEST(PacketViewBridges, AsViewAliasesAndMaterializeCopies) {
  const Bytes raw = udp4_frame(5000, 80, "hello");
  const auto packet = decode_frame(BytesView(raw));
  ASSERT_TRUE(packet.has_value());

  const PacketView alias = as_view(*packet);
  expect_equivalent(*packet, alias);
  // as_view aliases the packet's own buffers, not the wire bytes.
  ASSERT_TRUE(alias.udp.has_value());
  EXPECT_EQ(alias.udp->payload.data(), packet->udp->payload.data());

  const Packet copy = materialize(alias);
  expect_equivalent(copy, alias);
  EXPECT_NE(copy.udp->payload.data(), packet->udp->payload.data());
}

}  // namespace
}  // namespace roomnet
