// Unit tests for the netcore substrate: byte I/O, addresses, checksums,
// packet codecs, pcap, UUIDs, RNG determinism.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"
#include "netcore/checksum.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "netcore/text_file.hpp"
#include "netcore/uuid.hpp"
#include "wire_frame.hpp"

namespace roomnet {
namespace {

// ------------------------------------------------------------------- bytes

TEST(ByteReader, ReadsBigEndianIntegers) {
  const Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  ByteReader r{BytesView(data)};
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_EQ(r.u32(), 0x04050607u);
  EXPECT_EQ(r.u8(), 0x08);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(r.ok());
}

TEST(ByteReader, FailsOnOverrun) {
  const Bytes data = {0x01};
  ByteReader r{BytesView(data)};
  EXPECT_EQ(r.u16(), std::nullopt);
  EXPECT_FALSE(r.ok());
  // Once failed, everything fails.
  EXPECT_EQ(r.u8(), std::nullopt);
}

TEST(ByteReader, LittleEndianVariants) {
  const Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  ByteReader r{BytesView(data)};
  EXPECT_EQ(r.u16_le(), 0x0201);
  EXPECT_EQ(r.u32_le(), 0x06050403u);
}

TEST(ByteWriter, RoundTripsThroughReader) {
  ByteWriter w;
  w.u8(0xab).u16(0x1234).u32(0xdeadbeef).u64(0x0102030405060708ull);
  w.str("hey");
  ByteReader r{BytesView(w.data())};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.str(3), "hey");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriter, PatchRewritesLengthField) {
  ByteWriter w;
  w.u16(0);
  w.str("abcdef");
  w.patch_u16(0, static_cast<std::uint16_t>(w.size() - 2));
  ByteReader r{BytesView(w.data())};
  EXPECT_EQ(r.u16(), 6);
}

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(to_hex(BytesView(data)), "00ff10ab");
  EXPECT_EQ(from_hex("00ff10ab"), data);
  EXPECT_EQ(from_hex("00 ff 10 ab"), data);
  EXPECT_EQ(from_hex("0g"), std::nullopt);
  EXPECT_EQ(from_hex("abc"), std::nullopt);
}

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64_encode(BytesView(bytes_of(""))), "");
  EXPECT_EQ(base64_encode(BytesView(bytes_of("f"))), "Zg==");
  EXPECT_EQ(base64_encode(BytesView(bytes_of("fo"))), "Zm8=");
  EXPECT_EQ(base64_encode(BytesView(bytes_of("foo"))), "Zm9v");
  EXPECT_EQ(base64_encode(BytesView(bytes_of("foobar"))), "Zm9vYmFy");
}

TEST(Base64, DecodeInvertsEncode) {
  Rng rng(7);
  for (std::size_t n = 0; n < 40; ++n) {
    const Bytes data = rng.bytes(n);
    const auto back = base64_decode(base64_encode(BytesView(data)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
}

TEST(Base64, RejectsGarbage) {
  EXPECT_EQ(base64_decode("Zm9v!"), std::nullopt);
  EXPECT_EQ(base64_decode("Zg==Zg"), std::nullopt);
}

// --------------------------------------------------------------- addresses

TEST(EscapeJson, ShortEscapesThenUnicodeForOtherControls) {
  EXPECT_EQ(escape_json("plain Jane's Room"), "plain Jane's Room");
  EXPECT_EQ(escape_json("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape_json("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(escape_json(std::string_view("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  // Bytes from 0x20 up, UTF-8 included, pass through.
  EXPECT_EQ(escape_json("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(MacAddress, ParseAndFormat) {
  const auto mac = MacAddress::parse("aa:bb:cc:dd:ee:ff");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "aa:bb:cc:dd:ee:ff");
  EXPECT_EQ(mac->to_string_plain(), "AABBCCDDEEFF");
  EXPECT_EQ(mac->oui(), 0xaabbccu);
  EXPECT_EQ(MacAddress::parse("AA-BB-CC-DD-EE-FF"), *mac);
  EXPECT_EQ(MacAddress::parse("aabbccddeeff"), *mac);
  EXPECT_EQ(MacAddress::parse("aa:bb:cc"), std::nullopt);
  EXPECT_EQ(MacAddress::parse("zz:bb:cc:dd:ee:ff"), std::nullopt);
}

TEST(MacAddress, MulticastAndBroadcastBits) {
  EXPECT_TRUE(MacAddress::kBroadcast.is_broadcast());
  EXPECT_TRUE(MacAddress::kBroadcast.is_multicast());
  const auto mdns = MacAddress::parse("01:00:5e:00:00:fb").value();
  EXPECT_TRUE(mdns.is_multicast());
  EXPECT_FALSE(mdns.is_broadcast());
  const auto unicast = MacAddress::from_u64(0x02a0000012ull);
  EXPECT_FALSE(unicast.is_multicast());
}

TEST(MacAddress, U64RoundTrip) {
  const auto mac = MacAddress::from_u64(0x0123456789abull);
  EXPECT_EQ(mac.to_u64(), 0x0123456789abull);
  EXPECT_EQ(mac.to_string(), "01:23:45:67:89:ab");
}

TEST(Ipv4Address, ParseAndFormat) {
  const auto ip = Ipv4Address::parse("192.168.10.42");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "192.168.10.42");
  EXPECT_EQ(Ipv4Address::parse("192.168.10"), std::nullopt);
  EXPECT_EQ(Ipv4Address::parse("192.168.10.256"), std::nullopt);
  EXPECT_EQ(Ipv4Address::parse("192.168.10.42.1"), std::nullopt);
}

TEST(Ipv4Address, PrivateRanges) {
  EXPECT_TRUE(Ipv4Address(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(172, 31, 255, 1).is_private());
  EXPECT_FALSE(Ipv4Address(172, 32, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 1).is_private());
  EXPECT_FALSE(Ipv4Address(8, 8, 8, 8).is_private());
  EXPECT_TRUE(Ipv4Address(169, 254, 0, 5).is_private());
}

TEST(Ipv4Address, MulticastAndSubnets) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 251).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 250).is_multicast());
  EXPECT_FALSE(Ipv4Address(192, 168, 1, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(255, 255, 255, 255).is_broadcast());
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 77)
                  .in_subnet(Ipv4Address(192, 168, 1, 0), 24));
  EXPECT_FALSE(Ipv4Address(192, 168, 2, 77)
                   .in_subnet(Ipv4Address(192, 168, 1, 0), 24));
}

TEST(Ipv6Address, ParseAndCanonicalFormat) {
  const auto a = Ipv6Address::parse("fe80::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "fe80::1");
  EXPECT_TRUE(a->is_link_local());

  const auto full = Ipv6Address::parse("2001:0db8:0000:0000:0000:ff00:0042:8329");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->to_string(), "2001:db8::ff00:42:8329");

  EXPECT_EQ(Ipv6Address::parse("::").value().to_string(), "::");
  EXPECT_EQ(Ipv6Address::parse("not-an-ip"), std::nullopt);
  EXPECT_EQ(Ipv6Address::parse("1:2:3"), std::nullopt);
  EXPECT_EQ(Ipv6Address::parse("1::2::3"), std::nullopt);
}

TEST(Ipv6Address, LinkLocalFromMacUsesEui64) {
  const auto mac = MacAddress::parse("02:a0:00:12:34:56").value();
  const auto ll = Ipv6Address::link_local_from_mac(mac);
  EXPECT_TRUE(ll.is_link_local());
  // U/L bit flipped: 02 -> 00.
  EXPECT_EQ(ll.to_string(), "fe80::a0:ff:fe12:3456");
}

TEST(Ipv6Address, WellKnownGroups) {
  EXPECT_EQ(Ipv6Address::all_nodes().to_string(), "ff02::1");
  EXPECT_EQ(Ipv6Address::mdns_group().to_string(), "ff02::fb");
  const auto target = Ipv6Address::parse("fe80::1:2:3:4").value();
  const auto sn = Ipv6Address::solicited_node(target);
  EXPECT_TRUE(sn.is_multicast());
  EXPECT_EQ(sn.bytes()[13], target.bytes()[13]);
}

TEST(OuiRegistry, BuiltinVendors) {
  const auto& reg = OuiRegistry::builtin();
  const auto amazon_oui = reg.oui_of("Amazon");
  ASSERT_TRUE(amazon_oui.has_value());
  const auto mac = MacAddress::from_u64(
      (static_cast<std::uint64_t>(*amazon_oui) << 24) | 0x123456);
  EXPECT_EQ(reg.vendor_of(mac), "Amazon");
  EXPECT_EQ(reg.vendor_of(MacAddress::from_u64(0xffffff000000ull)), std::nullopt);
}

// ---------------------------------------------------------------- checksum

TEST(Checksum, Rfc1071Example) {
  // RFC 1071's canonical example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
  // checksum (one's complement) 0x220d.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(BytesView(data)), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const Bytes even = {0x12, 0x34, 0x56, 0x00};
  const Bytes odd = {0x12, 0x34, 0x56};
  EXPECT_EQ(internet_checksum(BytesView(even)), internet_checksum(BytesView(odd)));
}

/// The word-by-word sum the 8-byte kernel must reproduce: big-endian byte
/// pairs onto a 32-bit accumulator, odd tail padded, folded and inverted.
std::uint16_t reference_fold(std::uint32_t acc, BytesView data) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    acc += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i]) << 8;
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

TEST(Checksum, WideSumMatchesBytePairReferenceAtEveryLength) {
  Rng rng(1071);
  const Bytes data = rng.bytes(1600);
  const Bytes zeros(1600, 0);
  const Bytes ones(1600, 0xff);
  const Ipv4Address src(192, 168, 10, 2), dst(239, 255, 255, 250);
  const Ipv6Address src6 = Ipv6Address::link_local_from_mac(
      MacAddress::from_u64(0x02a000aabbccull));
  const Ipv6Address dst6 = Ipv6Address::mdns_group();
  std::uint32_t pseudo6 = 0;
  for (const auto* addr : {&src6.bytes(), &dst6.bytes()})
    for (std::size_t i = 0; i < 16; i += 2)
      pseudo6 += (static_cast<std::uint32_t>((*addr)[i]) << 8) | (*addr)[i + 1];
  for (std::size_t n = 0; n <= data.size(); ++n) {
    // Every start offset mod 8 over the random bytes, plus the all-zero
    // and all-ones edge cases of one's-complement folding.
    const BytesView view = BytesView(data).subspan(n % 8, n - n % 8);
    for (const BytesView v : {BytesView(data).first(n), view,
                              BytesView(zeros).first(n),
                              BytesView(ones).first(n)}) {
      ASSERT_EQ(internet_checksum(v), reference_fold(0, v)) << "n=" << n;
      const std::uint32_t pseudo4 = (src.value() >> 16) + (src.value() & 0xffff) +
                                    (dst.value() >> 16) + (dst.value() & 0xffff) +
                                    17 + static_cast<std::uint32_t>(v.size());
      ASSERT_EQ(transport_checksum_v4(src, dst, 17, v), reference_fold(pseudo4, v))
          << "n=" << n;
      ASSERT_EQ(transport_checksum_v6(src6, dst6, 58, v),
                reference_fold(pseudo6 + 58 + static_cast<std::uint32_t>(v.size()), v))
          << "n=" << n;
    }
  }
}

// ------------------------------------------------------- byte fast paths
//
// The layer decoders load each field after one length check. Per-byte
// ByteReader decoders are kept here: every decode must agree with them at
// every truncation length of a valid frame. packet_view_test holds the
// full differential against reference_frame_codecs.hpp.

namespace per_byte {
MacAddress read_mac(ByteReader& r) {
  std::array<std::uint8_t, 6> o{};
  for (auto& b : o) b = r.u8().value_or(0);
  return MacAddress(o);
}
Ipv6Address read_ipv6(ByteReader& r) {
  std::array<std::uint8_t, 16> b{};
  for (auto& x : b) x = r.u8().value_or(0);
  return Ipv6Address(b);
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
  a.sender_ip = Ipv4Address(r.u32().value_or(0));
  a.target_mac = read_mac(r);
  a.target_ip = Ipv4Address(r.u32().value_or(0));
  if (!r.ok()) return std::nullopt;
  return a;
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
}  // namespace per_byte

TEST(ByteFastPath, EthernetDecodeMatchesPerByteReaderAtEveryTruncation) {
  const Bytes payload = bytes_of("frame payload");
  const Bytes raw = encode_ethernet(EthernetFrame{
      .dst = MacAddress::from_u64(0x3333000000fbull),
      .src = MacAddress::from_u64(0x02a000aabbccull),
      .ethertype = static_cast<std::uint16_t>(EtherType::kIpv6),
      .payload = payload});
  for (std::size_t n = 0; n <= raw.size(); ++n) {
    const BytesView cut = BytesView(raw).first(n);
    const auto fast = decode_ethernet(cut);
    const auto slow = per_byte::decode_ethernet(cut);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "n=" << n;
    if (!fast) continue;
    EXPECT_EQ(fast->dst, slow->dst);
    EXPECT_EQ(fast->src, slow->src);
    EXPECT_EQ(fast->ethertype, slow->ethertype);
    EXPECT_EQ(fast->payload.data(), slow->payload.data());
    EXPECT_EQ(fast->payload.size(), slow->payload.size());
  }
}

TEST(ByteFastPath, ArpDecodeMatchesPerByteReaderAtEveryTruncation) {
  const Bytes raw = encode_arp(ArpPacket{
      .op = ArpOp::kReply,
      .sender_mac = MacAddress::from_u64(0x02a000000001ull),
      .sender_ip = Ipv4Address(192, 168, 1, 10),
      .target_mac = MacAddress::from_u64(0x02a000000002ull),
      .target_ip = Ipv4Address(192, 168, 1, 20)});
  for (std::size_t n = 0; n <= raw.size(); ++n) {
    const BytesView cut = BytesView(raw).first(n);
    const auto fast = decode_arp(cut);
    const auto slow = per_byte::decode_arp(cut);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "n=" << n;
    if (!fast) continue;
    EXPECT_EQ(fast->op, slow->op);
    EXPECT_EQ(fast->sender_mac, slow->sender_mac);
    EXPECT_EQ(fast->sender_ip, slow->sender_ip);
    EXPECT_EQ(fast->target_mac, slow->target_mac);
    EXPECT_EQ(fast->target_ip, slow->target_ip);
  }
}

TEST(ByteFastPath, Icmpv6DecodeMatchesPerByteReaderAtEveryTruncation) {
  const auto mac = MacAddress::from_u64(0x02a000aabbccull);
  const auto target = Ipv6Address::parse("fe80::42").value();
  Icmpv6Message m;
  m.type = Icmpv6Type::kNeighborAdvertisement;
  m.target = target;
  m.link_layer_option = mac;
  const Bytes raw = encode_icmpv6(m, Ipv6Address::link_local_from_mac(mac),
                                  Ipv6Address::solicited_node(target));
  for (std::size_t n = 0; n <= raw.size(); ++n) {
    const BytesView cut = BytesView(raw).first(n);
    const auto fast = decode_icmpv6(cut);
    const auto slow = per_byte::decode_icmpv6(cut);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "n=" << n;
    if (!fast) continue;
    EXPECT_EQ(fast->type, slow->type);
    EXPECT_EQ(fast->code, slow->code);
    EXPECT_EQ(fast->target, slow->target);
    EXPECT_EQ(fast->link_layer_option, slow->link_layer_option);
    EXPECT_EQ(fast->extra.size(), slow->extra.size());
  }
}

// ------------------------------------------------------------------ codecs

// Each encoder with a 16-bit length field encodes the largest payload the
// field can carry, which decodes back whole, and throws std::length_error
// one byte past it without writing anything.

TEST(EncoderLengthLimit, Ipv4TotalLengthCarriesAtMost65515PayloadBytes) {
  const Bytes largest(65515, 0xab), over(65516, 0xab);
  Ipv4Packet ip{.src = Ipv4Address(10, 0, 0, 1), .dst = Ipv4Address(10, 0, 0, 2),
                .protocol = 17};
  ip.payload = largest;
  const Bytes wire = encode_ipv4(ip);
  const auto back = decode_ipv4(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), largest.size());
  ip.payload = over;
  EXPECT_THROW(encode_ipv4(ip), std::length_error);
  ByteWriter w;
  EXPECT_THROW(append_ipv4_header(w, ip, over.size()), std::length_error);
  EXPECT_EQ(w.size(), 0u);
}

TEST(EncoderLengthLimit, Ipv6PayloadLengthCarriesAtMost65535Bytes) {
  const Bytes largest(65535, 0xab), over(65536, 0xab);
  Ipv6Packet ip{.src = Ipv6Address::parse("fe80::1").value(),
                .dst = Ipv6Address::parse("fe80::2").value(),
                .next_header = 17};
  ip.payload = largest;
  const Bytes wire = encode_ipv6(ip);
  const auto back = decode_ipv6(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), largest.size());
  ip.payload = over;
  EXPECT_THROW(encode_ipv6(ip), std::length_error);
  ByteWriter w;
  EXPECT_THROW(append_ipv6_header(w, ip, over.size()), std::length_error);
  EXPECT_EQ(w.size(), 0u);
}

TEST(EncoderLengthLimit, UdpLengthCarriesAtMost65527PayloadBytes) {
  const Bytes largest(65527, 0xab), over(65528, 0xab);
  const Ipv4Address src4(10, 0, 0, 1), dst4(10, 0, 0, 2);
  const auto src6 = Ipv6Address::parse("fe80::1").value();
  const auto dst6 = Ipv6Address::parse("fe80::2").value();
  UdpDatagram udp{.src_port = port(5353), .dst_port = port(5353)};
  udp.payload = largest;
  for (const Bytes& wire :
       {encode_udp_v4(udp, src4, dst4), encode_udp_v6(udp, src6, dst6)}) {
    const auto back = decode_udp(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->payload.size(), largest.size());
  }
  udp.payload = over;
  EXPECT_THROW(encode_udp_v4(udp, src4, dst4), std::length_error);
  EXPECT_THROW(encode_udp_v6(udp, src6, dst6), std::length_error);
  ByteWriter w;
  EXPECT_THROW(append_udp_v4(w, udp, src4, dst4), std::length_error);
  EXPECT_EQ(w.size(), 0u);
}

TEST(EncoderLengthLimit, EapolBodyLengthCarriesAtMost65535Bytes) {
  const Bytes largest(65535, 0xab), over(65536, 0xab);
  EapolFrame eapol;
  eapol.body = largest;
  const Bytes wire = encode_eapol(eapol);
  const auto back = decode_eapol(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->body.size(), largest.size());
  eapol.body = over;
  EXPECT_THROW(encode_eapol(eapol), std::length_error);
  ByteWriter w;
  EXPECT_THROW(append_eapol(w, eapol), std::length_error);
  EXPECT_EQ(w.size(), 0u);
}

TEST(Ethernet, RoundTrip) {
  const Bytes payload = bytes_of("payload");
  EthernetFrame f;
  f.dst = MacAddress::kBroadcast;
  f.src = MacAddress::from_u64(0x02a000000001ull);
  f.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  f.payload = payload;
  const Bytes raw = encode_ethernet(f);
  ASSERT_EQ(raw.size(), 14 + 7u);
  const auto back = decode_ethernet(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dst, f.dst);
  EXPECT_EQ(back->src, f.src);
  EXPECT_EQ(back->ethertype, f.ethertype);
  EXPECT_EQ(to_hex(back->payload), to_hex(payload));
  // The decoded payload borrows the frame buffer.
  EXPECT_EQ(back->payload.data(), raw.data() + 14);
}

TEST(Ethernet, RejectsTruncated) {
  const Bytes tiny = {0x01, 0x02, 0x03};
  EXPECT_EQ(decode_ethernet(BytesView(tiny)), std::nullopt);
}

TEST(Arp, RoundTrip) {
  ArpPacket a;
  a.op = ArpOp::kRequest;
  a.sender_mac = MacAddress::from_u64(0x02a000000001ull);
  a.sender_ip = Ipv4Address(192, 168, 1, 10);
  a.target_mac = MacAddress{};
  a.target_ip = Ipv4Address(192, 168, 1, 20);
  const auto back = decode_arp(BytesView(encode_arp(a)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, ArpOp::kRequest);
  EXPECT_EQ(back->sender_ip, a.sender_ip);
  EXPECT_EQ(back->target_ip, a.target_ip);
  EXPECT_EQ(back->sender_mac, a.sender_mac);
}

TEST(Arp, RejectsNonEthernetHardware) {
  Bytes raw = encode_arp(ArpPacket{});
  raw[1] = 6;  // hardware type != 1
  EXPECT_EQ(decode_arp(BytesView(raw)), std::nullopt);
}

TEST(Ipv4, RoundTripWithChecksum) {
  const Bytes payload = bytes_of("hello ip");
  Ipv4Packet p;
  p.src = Ipv4Address(192, 168, 1, 10);
  p.dst = Ipv4Address(192, 168, 1, 255);
  p.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  p.ttl = 64;
  p.identification = 0x1234;
  p.payload = payload;
  const Bytes raw = encode_ipv4(p);
  // Header checksum must validate (sum over header == 0 when folded).
  EXPECT_EQ(internet_checksum(BytesView(raw).first(20)), 0);
  const auto back = decode_ipv4(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, p.src);
  EXPECT_EQ(back->dst, p.dst);
  EXPECT_EQ(back->protocol, p.protocol);
  EXPECT_EQ(back->identification, p.identification);
  EXPECT_EQ(back->fragment_offset, 0);
  EXPECT_EQ(to_hex(back->payload), to_hex(payload));
}

TEST(Ipv4, RejectsTruncatedTotalLength) {
  const Bytes payload = bytes_of("0123456789");
  Ipv4Packet p;
  p.payload = payload;
  Bytes raw = encode_ipv4(p);
  raw.resize(raw.size() - 4);  // truncate below total_length
  EXPECT_EQ(decode_ipv4(BytesView(raw)), std::nullopt);
}

TEST(Ipv6, RoundTrip) {
  const Bytes payload = bytes_of("v6 payload");
  Ipv6Packet p;
  p.src = Ipv6Address::parse("fe80::1").value();
  p.dst = Ipv6Address::mdns_group();
  p.next_header = static_cast<std::uint8_t>(IpProto::kUdp);
  p.payload = payload;
  const Bytes raw = encode_ipv6(p);
  const auto back = decode_ipv6(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, p.src);
  EXPECT_EQ(back->dst, p.dst);
  EXPECT_EQ(to_hex(back->payload), to_hex(payload));
}

TEST(Udp, RoundTripAndChecksum) {
  const Bytes payload = bytes_of("mdns-ish");
  UdpDatagram u;
  u.src_port = port(5353);
  u.dst_port = port(5353);
  u.payload = payload;
  const Ipv4Address src(192, 168, 1, 10), dst(224, 0, 0, 251);
  const Bytes raw = encode_udp_v4(u, src, dst);
  // Verifying: checksum over segment with pseudo-header must fold to zero.
  EXPECT_EQ(transport_checksum_v4(src, dst, 17, BytesView(raw)), 0);
  const auto back = decode_udp(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_port, u.src_port);
  EXPECT_EQ(back->dst_port, u.dst_port);
  EXPECT_EQ(to_hex(back->payload), to_hex(payload));
}

TEST(Tcp, RoundTripFlagsAndSeq) {
  const Bytes payload = bytes_of("tls?");
  TcpSegment t;
  t.src_port = port(51000);
  t.dst_port = port(8009);
  t.seq = 1000;
  t.ack = 2000;
  t.flags = {.syn = true, .ack = true};
  t.payload = payload;
  const Ipv4Address src(192, 168, 1, 10), dst(192, 168, 1, 20);
  const Bytes raw = encode_tcp_v4(t, src, dst);
  EXPECT_EQ(transport_checksum_v4(src, dst, 6, BytesView(raw)), 0);
  const auto back = decode_tcp(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->flags.syn);
  EXPECT_TRUE(back->flags.ack);
  EXPECT_FALSE(back->flags.fin);
  EXPECT_EQ(back->seq, 1000u);
  EXPECT_EQ(back->ack, 2000u);
  EXPECT_EQ(to_hex(back->payload), to_hex(payload));
}

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 32; ++b) {
    const auto f = TcpFlags::from_byte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
}

TEST(Icmp, RoundTrip) {
  const Bytes body = bytes_of("ping");
  IcmpMessage m;
  m.type = 8;
  m.code = 0;
  m.body = body;
  const Bytes raw = encode_icmp(m);
  const auto back = decode_icmp(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, 8);
  EXPECT_EQ(to_hex(back->body), to_hex(body));
}

TEST(Icmpv6, NeighborSolicitationCarriesMacOption) {
  const auto mac = MacAddress::from_u64(0x02a000aabbccull);
  const auto src = Ipv6Address::link_local_from_mac(mac);
  const auto target = Ipv6Address::parse("fe80::42").value();
  Icmpv6Message m;
  m.type = Icmpv6Type::kNeighborSolicitation;
  m.target = target;
  m.link_layer_option = mac;
  const Bytes raw = encode_icmpv6(m, src, Ipv6Address::solicited_node(target));
  const auto back = decode_icmpv6(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, Icmpv6Type::kNeighborSolicitation);
  ASSERT_TRUE(back->target.has_value());
  EXPECT_EQ(*back->target, target);
  ASSERT_TRUE(back->link_layer_option.has_value());
  EXPECT_EQ(*back->link_layer_option, mac);
}

TEST(Igmp, RoundTrip) {
  IgmpMessage m;
  m.type = 0x16;
  m.group = Ipv4Address(239, 255, 255, 250);
  const auto back = decode_igmp(BytesView(encode_igmp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->group, m.group);
}

TEST(Eapol, RoundTrip) {
  const Bytes body = bytes_of("key-data");
  EapolFrame f;
  f.type = EapolType::kKey;
  f.body = body;
  const Bytes raw = encode_eapol(f);
  const auto back = decode_eapol(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, EapolType::kKey);
  EXPECT_EQ(to_hex(back->body), to_hex(body));
}

TEST(LlcXid, RoundTrip) {
  const Bytes info = {0x81, 0x01, 0x00};
  LlcXidFrame f;
  f.dsap = 0x00;
  f.ssap = 0x01;
  f.is_xid = true;
  f.info = info;
  const Bytes raw = encode_llc_xid(f);
  const auto back = decode_llc(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_xid);
  EXPECT_EQ(to_hex(back->info), to_hex(info));
}

// ------------------------------------------------------- decode_frame_view

TEST(DecodeFrame, FullUdpStack) {
  const WireFrame frame = udp_frame(
      MacAddress::from_u64(0x02a000000007ull),
      MacAddress::parse("01:00:5e:7f:ff:fa").value(), Ipv4Address(192, 168, 1, 7),
      1900, Ipv4Address(239, 255, 255, 250), 1900,
      bytes_of("M-SEARCH * HTTP/1.1\r\n\r\n"));
  const auto p = decode_frame_view(BytesView(frame.bytes));
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->ipv4.has_value());
  ASSERT_TRUE(p->udp.has_value());
  EXPECT_EQ(p->udp->dst_port, port(1900));
  EXPECT_EQ(string_of(p->app_payload()), "M-SEARCH * HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(p->has_ip());
  EXPECT_TRUE(p->has_transport());
}

TEST(DecodeFrame, ArpFrame) {
  ArpPacket a;
  a.op = ArpOp::kRequest;
  a.sender_ip = Ipv4Address(192, 168, 1, 1);
  a.target_ip = Ipv4Address(192, 168, 1, 2);
  const WireFrame frame =
      arp_frame(MacAddress::from_u64(1), MacAddress::kBroadcast, a);
  const auto p = decode_frame_view(BytesView(frame.bytes));
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->arp.has_value());
  EXPECT_FALSE(p->has_ip());
  EXPECT_EQ(p->arp->target_ip, a.target_ip);
}

TEST(DecodeFrame, LlcFrameViaLengthField) {
  LlcXidFrame f;
  f.is_xid = true;
  const Bytes llc = encode_llc_xid(f);
  // LLC framing: the ethertype field carries the payload length.
  const WireFrame frame =
      ethernet_frame(MacAddress::from_u64(2), MacAddress::kBroadcast,
                     static_cast<EtherType>(llc.size()), llc);
  const auto p = decode_frame_view(BytesView(frame.bytes));
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->llc.has_value());
  EXPECT_TRUE(p->llc->is_xid);
}

TEST(DecodeFrame, GarbageTransportDoesNotKillDecode) {
  const Bytes too_short = bytes_of("xx");  // far too short for a TCP header
  const WireFrame frame =
      ipv4_frame(MacAddress::from_u64(4), MacAddress::from_u64(3),
                 Ipv4Address(192, 168, 1, 7), Ipv4Address(192, 168, 1, 8),
                 IpProto::kTcp, too_short);
  const auto p = decode_frame_view(BytesView(frame.bytes));
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->ipv4.has_value());
  EXPECT_FALSE(p->tcp.has_value());
}

TEST(DecodeFrame, NonFirstIpv4FragmentStopsAtIpLayer) {
  // The middle of a datagram is not a transport header: an mDNS-looking
  // fragment must not be read as UDP to port 5353.
  const WireFrame mdns =
      udp_frame(MacAddress::from_u64(7), MacAddress::from_u64(8),
                Ipv4Address(192, 168, 1, 7), 5353, Ipv4Address(224, 0, 0, 251),
                5353, bytes_of("not a header"));
  Bytes raw = mdns.bytes;
  ASSERT_TRUE(decode_frame_view(BytesView(raw))->udp.has_value());
  constexpr std::size_t kFlagsOffset = 14 + 6;  // Ethernet + IPv4 bytes 0-5
  raw[kFlagsOffset] = 0;                         // clear DF, offset high bits
  raw[kFlagsOffset + 1] = 185;                   // offset 185 * 8 bytes
  const auto p = decode_frame_view(BytesView(raw));
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(p->ipv4.has_value());
  EXPECT_EQ(p->ipv4->fragment_offset, 185);
  EXPECT_FALSE(p->udp.has_value());
  EXPECT_EQ(wire_proto(*p), WireProto::kIpOther);

  // A first fragment (MF set, offset 0) still carries the transport header.
  raw[kFlagsOffset] = 0x20;  // MF
  raw[kFlagsOffset + 1] = 0;
  ASSERT_TRUE(decode_frame_view(BytesView(raw))->udp.has_value());
}

// -------------------------------------------------------------------- pcap

TEST(Pcap, RoundTripsRecords) {
  std::vector<PcapRecord> records;
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    PcapRecord rec;
    rec.timestamp = SimTime::from_ms(i * 125);
    rec.frame = rng.bytes(static_cast<std::size_t>(20 + i * 7));
    records.push_back(std::move(rec));
  }
  const Bytes file = encode_pcap(records);
  const auto back = decode_pcap(BytesView(file));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].timestamp, records[i].timestamp);
    EXPECT_EQ((*back)[i].frame, records[i].frame);
  }
}

TEST(Pcap, GlobalHeaderFields) {
  const Bytes file = encode_pcap({});
  ASSERT_GE(file.size(), 24u);
  // Magic 0xa1b2c3d4 little-endian on disk.
  EXPECT_EQ(file[0], 0xd4);
  EXPECT_EQ(file[1], 0xc3);
  EXPECT_EQ(file[2], 0xb2);
  EXPECT_EQ(file[3], 0xa1);
  // Linktype Ethernet (1).
  EXPECT_EQ(file[20], 1);
}

TEST(Pcap, RejectsBadMagic) {
  Bytes file = encode_pcap({});
  file[0] = 0x00;
  EXPECT_EQ(decode_pcap(BytesView(file)), std::nullopt);
}

TEST(Pcap, RejectsTruncatedRecord) {
  PcapRecord rec;
  rec.frame = Bytes(64, 0xaa);
  Bytes file = encode_pcap({rec});
  file.resize(file.size() - 10);
  EXPECT_EQ(decode_pcap(BytesView(file)), std::nullopt);
}

TEST(Pcap, FileIo) {
  const std::string path = testing::TempDir() + "/roomnet_pcap_test.pcap";
  PcapRecord rec;
  rec.timestamp = SimTime::from_seconds(1.5);
  rec.frame = bytes_of("0123456789abcdef");
  ASSERT_TRUE(write_pcap_file(path, {rec}));
  const auto back = read_pcap_file(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].frame, rec.frame);
  EXPECT_EQ((*back)[0].timestamp.us(), 1500000);

  // A file of a few MB comes back record for record.
  Rng rng(7);
  std::vector<PcapRecord> records;
  for (int i = 0; i < 3000; ++i) {
    PcapRecord r;
    r.timestamp = SimTime::from_us(1000 * i + static_cast<int>(rng.below(999)));
    r.frame = rng.bytes(14 + rng.below(1500));
    records.push_back(std::move(r));
  }
  ASSERT_TRUE(write_pcap_file(path, records));
  const auto many = read_pcap_file(path);
  ASSERT_TRUE(many.has_value());
  ASSERT_EQ(many->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*many)[i].timestamp, records[i].timestamp);
    EXPECT_EQ((*many)[i].frame, records[i].frame);
  }
}

TEST(Pcap, ReadFileIsNulloptUnlessWholeAndWellFormed) {
  const std::string dir = testing::TempDir();
  EXPECT_EQ(read_pcap_file(dir + "/roomnet_no_such.pcap"), std::nullopt);
  EXPECT_EQ(read_pcap_file(dir), std::nullopt);  // a directory

  const auto write = [](const std::string& path, const Bytes& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  };
  const std::string empty = dir + "/roomnet_empty.pcap";
  write(empty, {});
  EXPECT_EQ(read_pcap_file(empty), std::nullopt);

  // A truncated last record fails the whole read: no partial record list.
  PcapRecord rec;
  rec.frame = Bytes(64, 0xaa);
  Bytes file = encode_pcap({rec, rec});
  file.resize(file.size() - 10);
  const std::string truncated = dir + "/roomnet_truncated.pcap";
  write(truncated, file);
  EXPECT_EQ(read_pcap_file(truncated), std::nullopt);
}

// -------------------------------------------------------------------- uuid

TEST(Uuid, FormatAndParse) {
  Rng rng(1);
  const Uuid u = Uuid::random(rng);
  const std::string s = u.to_string();
  EXPECT_EQ(s.size(), 36u);
  EXPECT_EQ(s[8], '-');
  EXPECT_EQ(s[13], '-');
  const auto back = Uuid::parse(s);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, u);
  EXPECT_EQ(Uuid::parse("not-a-uuid"), std::nullopt);
  EXPECT_EQ(Uuid::parse(s.substr(1)), std::nullopt);
}

TEST(Uuid, Version4Bits) {
  Rng rng(2);
  const Uuid u = Uuid::random(rng);
  EXPECT_EQ(u.bytes()[6] >> 4, 4);
  EXPECT_EQ(u.bytes()[8] >> 6, 2);
}

TEST(Uuid, FromMacEmbedsNode) {
  Rng rng(3);
  const auto mac = MacAddress::parse("02:a0:07:12:34:56").value();
  const Uuid u = Uuid::from_mac(rng, mac);
  EXPECT_EQ(u.node_mac(), mac);
  // MAC hex appears at the tail of the string form.
  EXPECT_NE(u.to_string().find("02a007123456"), std::string::npos);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIsStableAndIndependent) {
  Rng a(42), b(42);
  Rng fa = a.fork("devices");
  Rng fb = b.fork("devices");
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
  Rng other = Rng(42).fork("apps");
  EXPECT_NE(fa.next_u64(), other.next_u64());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace roomnet
