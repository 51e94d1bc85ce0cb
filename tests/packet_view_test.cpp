// Tests for the zero-copy frame decode: decode_frame_view keeps the frame
// decode contract (harness.hpp, frame_contract_violation) on valid,
// truncated, mutated and random frames — the same contract the `frame` fuzz
// harness enforces — and the link/network/transport codecs match their
// reference copies (reference_frame_codecs.hpp) on the committed capture,
// its truncations and mutations, and on random layers. See DESIGN.md §10
// for the memory model under test.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "reference_frame_codecs.hpp"
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

// -------------------------------------------- reference codec differential

const std::vector<PcapRecord>& corpus() {
  static const std::vector<PcapRecord> records =
      read_pcap_file(ROOMNET_QUICKSTART_PCAP).value_or(std::vector<PcapRecord>{});
  return records;
}

/// Decodes `raw` with the current and the reference frame decoder; counts a
/// mismatch and reports the first few.
void compare_with_reference(BytesView raw, std::size_t& mismatches) {
  const char* diff = reference::view_differs(
      decode_frame_view(raw), reference::decode_frame_view(raw));
  if (diff == nullptr) return;
  if (++mismatches <= 5) ADD_FAILURE() << diff << " on " << to_hex(raw);
}

TEST(FrameCodecReference, CorpusFramesDecodeAsTheReferenceDoes) {
  ASSERT_EQ(corpus().size(), 37390u);
  std::size_t mismatches = 0;
  for (const PcapRecord& record : corpus())
    compare_with_reference(BytesView(record.frame), mismatches);
  EXPECT_EQ(mismatches, 0u);
}

TEST(FrameCodecReference, EveryTruncationOfEveryCorpusFrameDecodesTheSame) {
  // Each prefix crosses the length checks of every layer the frame holds.
  ASSERT_FALSE(corpus().empty());
  std::size_t mismatches = 0, prefixes = 0;
  for (const PcapRecord& record : corpus()) {
    for (std::size_t len = 0; len < record.frame.size(); ++len, ++prefixes)
      compare_with_reference(BytesView(record.frame.data(), len), mismatches);
  }
  EXPECT_GT(prefixes, 1'000'000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(FrameCodecReference, MutatedCorpusFramesDecodeTheSame) {
  // Flips land mostly in the first 80 bytes, where the L2-L4 headers and
  // their length, version and type fields are.
  ASSERT_FALSE(corpus().empty());
  Rng rng(2029);
  std::size_t mismatches = 0;
  for (int round = 0; round < 100'000; ++round) {
    Bytes frame = corpus()[rng.below(corpus().size())].frame;
    const int flips = static_cast<int>(rng.range(1, 4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t span =
          rng.chance(0.9) ? std::min<std::size_t>(frame.size(), 80) : frame.size();
      frame[rng.below(span)] ^= static_cast<std::uint8_t>(rng.next_u64() | 1);
    }
    if (rng.chance(0.25)) frame.resize(rng.below(frame.size() + 1));
    compare_with_reference(BytesView(frame), mismatches);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FrameCodecReference, LayerDecodersMatchTheReferenceOnRandomBytes) {
  // Short random buffers with a valid version nibble or ARP prefix half the
  // time, so the checks past the first field are reached.
  Rng rng(31337);
  for (int round = 0; round < 20'000; ++round) {
    Bytes raw = rng.bytes(rng.below(72));
    if (!raw.empty() && rng.chance(0.5))
      raw[0] = static_cast<std::uint8_t>(rng.chance(0.5) ? 0x45 : 0x60);
    if (raw.size() >= 8 && rng.chance(0.2)) {
      const std::uint8_t arp[] = {0, 1, 8, 0, 6, 4, 0,
                                  static_cast<std::uint8_t>(rng.range(0, 3))};
      std::copy(std::begin(arp), std::end(arp), raw.begin());
    }
    const BytesView v(raw);
    SCOPED_TRACE(to_hex(v));
    EXPECT_TRUE(reference::same(decode_ethernet(v), reference::decode_ethernet(v)));
    EXPECT_TRUE(reference::same(decode_arp(v), reference::decode_arp(v)));
    EXPECT_TRUE(reference::same(decode_llc(v), reference::decode_llc(v)));
    EXPECT_TRUE(reference::same(decode_eapol(v), reference::decode_eapol(v)));
    EXPECT_TRUE(reference::same(decode_ipv4(v), reference::decode_ipv4(v)));
    EXPECT_TRUE(reference::same(decode_ipv6(v), reference::decode_ipv6(v)));
    EXPECT_TRUE(reference::same(decode_udp(v), reference::decode_udp(v)));
    EXPECT_TRUE(reference::same(decode_tcp(v), reference::decode_tcp(v)));
    EXPECT_TRUE(reference::same(decode_icmp(v), reference::decode_icmp(v)));
    EXPECT_TRUE(reference::same(decode_icmpv6(v), reference::decode_icmpv6(v)));
    EXPECT_TRUE(reference::same(decode_igmp(v), reference::decode_igmp(v)));
  }
}

MacAddress random_mac(Rng& rng) { return MacAddress::from_u64(rng.next_u64()); }
Ipv4Address random_ipv4(Rng& rng) { return Ipv4Address(rng.next_u32()); }
Ipv6Address random_ipv6(Rng& rng) {
  std::array<std::uint8_t, 16> b{};
  const Bytes raw = rng.bytes(b.size());
  std::copy(raw.begin(), raw.end(), b.begin());
  return Ipv6Address(b);
}
std::uint8_t random_u8(Rng& rng) { return static_cast<std::uint8_t>(rng.next_u64()); }
std::uint16_t random_u16(Rng& rng) { return static_cast<std::uint16_t>(rng.next_u64()); }

TEST(FrameCodecReference, RandomLayersEncodeByteIdentically) {
  Rng rng(77);
  for (int round = 0; round < 2'000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Bytes payload = rng.bytes(rng.below(96));
    const Ipv4Address src4 = random_ipv4(rng), dst4 = random_ipv4(rng);
    const Ipv6Address src6 = random_ipv6(rng), dst6 = random_ipv6(rng);

    const EthernetFrame eth{.dst = random_mac(rng),
                            .src = random_mac(rng),
                            .ethertype = random_u16(rng),
                            .payload = payload};
    EXPECT_EQ(encode_ethernet(eth), reference::encode_ethernet(eth));
    const ArpPacket arp{.op = rng.chance(0.5) ? ArpOp::kRequest : ArpOp::kReply,
                        .sender_mac = random_mac(rng),
                        .sender_ip = random_ipv4(rng),
                        .target_mac = random_mac(rng),
                        .target_ip = random_ipv4(rng)};
    EXPECT_EQ(encode_arp(arp), reference::encode_arp(arp));
    const LlcXidFrame llc{.dsap = random_u8(rng),
                          .ssap = random_u8(rng),
                          .is_xid = rng.chance(0.5),
                          .info = payload};
    EXPECT_EQ(encode_llc_xid(llc), reference::encode_llc_xid(llc));
    const EapolFrame eapol{.version = random_u8(rng),
                           .type = static_cast<EapolType>(rng.below(4)),
                           .body = payload};
    EXPECT_EQ(encode_eapol(eapol), reference::encode_eapol(eapol));
    const Ipv4Packet ip4{.src = src4,
                         .dst = dst4,
                         .protocol = random_u8(rng),
                         .ttl = random_u8(rng),
                         .identification = random_u16(rng),
                         .payload = payload};
    EXPECT_EQ(encode_ipv4(ip4), reference::encode_ipv4(ip4));
    const Ipv6Packet ip6{.src = src6,
                         .dst = dst6,
                         .next_header = random_u8(rng),
                         .hop_limit = random_u8(rng),
                         .payload = payload};
    EXPECT_EQ(encode_ipv6(ip6), reference::encode_ipv6(ip6));
    const UdpDatagram udp{.src_port = port(random_u16(rng)),
                          .dst_port = port(random_u16(rng)),
                          .payload = payload};
    EXPECT_EQ(encode_udp_v4(udp, src4, dst4),
              reference::encode_udp_v4(udp, src4, dst4));
    EXPECT_EQ(encode_udp_v6(udp, src6, dst6),
              reference::encode_udp_v6(udp, src6, dst6));
    const TcpSegment tcp{.src_port = port(random_u16(rng)),
                         .dst_port = port(random_u16(rng)),
                         .seq = rng.next_u32(),
                         .ack = rng.next_u32(),
                         .flags = TcpFlags::from_byte(random_u8(rng)),
                         .window = random_u16(rng),
                         .payload = payload};
    EXPECT_EQ(encode_tcp_v4(tcp, src4, dst4),
              reference::encode_tcp_v4(tcp, src4, dst4));
    const IcmpMessage icmp{.type = random_u8(rng), .code = random_u8(rng),
                           .body = payload};
    EXPECT_EQ(encode_icmp(icmp), reference::encode_icmp(icmp));
    static constexpr Icmpv6Type kTypes[] = {
        Icmpv6Type::kEchoRequest,          Icmpv6Type::kEchoReply,
        Icmpv6Type::kRouterSolicitation,   Icmpv6Type::kRouterAdvertisement,
        Icmpv6Type::kNeighborSolicitation, Icmpv6Type::kNeighborAdvertisement,
    };
    Icmpv6Message icmpv6;
    icmpv6.type = kTypes[rng.below(6)];
    icmpv6.code = random_u8(rng);
    if (rng.chance(0.5)) icmpv6.target = random_ipv6(rng);
    if (rng.chance(0.5)) icmpv6.link_layer_option = random_mac(rng);
    if (rng.chance(0.5)) icmpv6.extra = payload;
    EXPECT_EQ(encode_icmpv6(icmpv6, src6, dst6),
              reference::encode_icmpv6(icmpv6, src6, dst6));
    const IgmpMessage igmp{.type = random_u8(rng), .group = random_ipv4(rng)};
    EXPECT_EQ(encode_igmp(igmp), reference::encode_igmp(igmp));
  }
}

TEST(FrameCodecReference, FrameAppendedIntoARecycledBufferIsByteIdentical) {
  // The simulator's send path: Ethernet, IPv4 and TCP appended into one
  // buffer that still holds the previous frame's capacity.
  Rng rng(5);
  Bytes recycled;
  for (int round = 0; round < 500; ++round) {
    const Bytes payload = rng.bytes(rng.below(64));
    const EthernetFrame eth{.dst = random_mac(rng),
                            .src = random_mac(rng),
                            .ethertype = 0x0800};
    const Ipv4Packet ip{.src = random_ipv4(rng),
                        .dst = random_ipv4(rng),
                        .protocol = 6,
                        .ttl = random_u8(rng),
                        .identification = random_u16(rng)};
    const TcpSegment tcp{.src_port = port(random_u16(rng)),
                         .dst_port = port(random_u16(rng)),
                         .seq = rng.next_u32(),
                         .ack = rng.next_u32(),
                         .flags = TcpFlags::from_byte(random_u8(rng)),
                         .window = random_u16(rng),
                         .payload = payload};
    ByteWriter w(std::move(recycled));
    append_ethernet_header(w, eth);
    append_ipv4_header(w, ip, 20 + payload.size());
    append_tcp_v4(w, tcp, ip.src, ip.dst);
    reference::BytewiseWriter ref;
    reference::append_ethernet_header(ref, eth);
    reference::append_ipv4_header(ref, ip, 20 + payload.size());
    reference::append_tcp_v4(ref, tcp, ip.src, ip.dst);
    recycled = w.take();
    ASSERT_EQ(recycled, ref.take()) << "round " << round;
  }
}

}  // namespace
}  // namespace roomnet
