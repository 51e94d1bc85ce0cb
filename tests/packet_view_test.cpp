// Tests for the zero-copy frame decode: decode_frame_view keeps the frame
// decode contract (harness.hpp, frame_contract_violation) on valid,
// truncated, mutated and random frames — the same contract the `frame` fuzz
// harness enforces. See DESIGN.md §10 for the memory model under test.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/rng.hpp"
#include "wire_frame.hpp"

namespace roomnet {
namespace {

// ----------------------------------------------- frame builders for decode

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(n); }

WireFrame llc_frame() {
  const Bytes info = bytes_of("x");
  LlcXidFrame f;
  f.is_xid = true;
  f.info = info;
  const Bytes llc = encode_llc_xid(f);
  // LLC framing: the ethertype field carries the payload length.
  return ethernet_frame(mac_n(2), MacAddress::kBroadcast,
                        static_cast<EtherType>(llc.size()), llc);
}

WireFrame icmp_frame() {
  const Bytes body = bytes_of("embedded");
  IcmpMessage m;
  m.type = 3;
  m.code = 3;
  m.body = body;
  const Bytes message = encode_icmp(m);
  return ipv4_frame(mac_n(4), mac_n(3), Ipv4Address(192, 168, 1, 3),
                    Ipv4Address(192, 168, 1, 4), IpProto::kIcmp, message);
}

WireFrame udp6_frame(const std::string& payload) {
  const Bytes data = bytes_of(payload);
  UdpDatagram u;
  u.src_port = port(5353);
  u.dst_port = port(5353);
  u.payload = data;
  const Ipv6Address src = Ipv6Address::link_local_from_mac(mac_n(9));
  const Ipv6Address dst = Ipv6Address::mdns_group();
  const Bytes segment = encode_udp_v6(u, src, dst);
  Ipv6Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.next_header = static_cast<std::uint8_t>(IpProto::kUdp);
  ip.payload = segment;
  const Bytes datagram = encode_ipv6(ip);
  return ethernet_frame(mac_n(9), mac_n(0x333300fb), EtherType::kIpv6,
                        datagram);
}

/// Valid frames of every layer stack, each with the bucket it must land in.
std::vector<std::pair<WireFrame, WireProto>> sample_frames() {
  const Ipv4Address a(192, 168, 1, 7), b(192, 168, 1, 20);
  std::vector<std::pair<WireFrame, WireProto>> out;
  out.emplace_back(udp_frame(mac_n(5), mac_n(6), a, 5353, b, 5353,
                             bytes_of("mdns-ish payload")),
                   WireProto::kUdp);
  out.emplace_back(udp_frame(mac_n(5), mac_n(6), a, 49152, b, 6667, {}),
                   WireProto::kUdp);
  out.emplace_back(
      tcp_frame(mac_n(5), mac_n(6), a, 40001, b, 80, {.psh = true, .ack = true},
                bytes_of("GET /description.xml HTTP/1.1\r\n\r\n")),
      WireProto::kTcp);
  out.emplace_back(tcp_frame(mac_n(5), mac_n(6), a, 40001, b, 80, {}, {}),
                   WireProto::kTcp);
  ArpPacket arp;
  arp.sender_mac = mac_n(11);
  arp.sender_ip = Ipv4Address(192, 168, 1, 1);
  arp.target_ip = Ipv4Address(192, 168, 1, 2);
  out.emplace_back(arp_frame(mac_n(11), MacAddress::kBroadcast, arp),
                   WireProto::kArp);
  out.emplace_back(llc_frame(), WireProto::kLlc);
  const Bytes key = bytes_of("key-material");
  EapolFrame eapol;
  eapol.body = key;
  out.emplace_back(eapol_frame(mac_n(2), mac_n(1), eapol), WireProto::kEapol);
  out.emplace_back(icmp_frame(), WireProto::kIcmp);
  out.emplace_back(udp6_frame("v6 traffic"), WireProto::kUdp);
  return out;
}

void expect_contract(BytesView raw) {
  const char* violation = fuzz::frame_contract_violation(raw);
  EXPECT_TRUE(violation == nullptr) << violation << " on " << to_hex(raw);
}

TEST(DecodeFrameView, HoldsContractOnValidFrames) {
  for (const auto& [frame, proto] : sample_frames()) {
    SCOPED_TRACE(to_hex(BytesView(frame.bytes)));
    expect_contract(BytesView(frame.bytes));
    EXPECT_EQ(wire_proto(frame.view), proto);
  }
}

TEST(DecodeFrameView, HoldsContractOnEveryTruncationOfValidFrames) {
  // Truncation sweeps the accept/reject boundary of every layer decoder:
  // each prefix must fail or degrade to a shallower parse, never over-read.
  for (const auto& sample : sample_frames()) {
    const Bytes& frame = sample.first.bytes;
    for (std::size_t len = 0; len < frame.size(); ++len) {
      SCOPED_TRACE("len=" + std::to_string(len));
      expect_contract(BytesView(frame.data(), len));
    }
  }
}

TEST(DecodeFrameView, HoldsContractOnMutatedFrames) {
  Rng rng(2026);
  const auto frames = sample_frames();
  for (int round = 0; round < 2000; ++round) {
    const auto pick = static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(frames.size()) - 1));
    Bytes frame = frames[pick].first.bytes;
    const int flips = static_cast<int>(rng.range(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(rng.next_u64() | 1);
    }
    expect_contract(BytesView(frame));
  }
}

TEST(DecodeFrameView, HoldsContractOnRandomGarbage) {
  Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    const Bytes noise = rng.bytes(static_cast<std::size_t>(rng.range(0, 120)));
    expect_contract(BytesView(noise));
  }
}

}  // namespace
}  // namespace roomnet
