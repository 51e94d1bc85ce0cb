// Property-based and parameterized tests: invariants that must hold for
// every seed, size, or parameter value — codec round-trips, decoder safety
// on arbitrary bytes, checksum self-verification, classifier totality,
// periodicity detection sweeps, and dataset-generator invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "classify/periodicity.hpp"
#include "crowd/entropy.hpp"
#include "crowd/inspector.hpp"
#include "netcore/sha256.hpp"
#include "netcore/checksum.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "proto/coap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/json.hpp"
#include "proto/media.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "wire_frame.hpp"

namespace roomnet {
namespace {

// ---------------------------------------------------------------------------
// Decoder safety: every parser must return cleanly on arbitrary bytes.
// ---------------------------------------------------------------------------

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, NoDecoderCrashesOnRandomBytes) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes blob = rng.bytes(rng.below(200));
    const BytesView view(blob);
    // Each call must return nullopt or a valid object — never crash/UB.
    decode_frame_view(view);
    decode_ethernet(view);
    decode_arp(view);
    decode_ipv4(view);
    decode_ipv6(view);
    decode_udp(view);
    decode_tcp(view);
    decode_icmp(view);
    decode_icmpv6(view);
    decode_igmp(view);
    decode_eapol(view);
    decode_llc(view);
    decode_dhcp(view);
    decode_dns(view);
    decode_ssdp(view);
    decode_http_request(view);
    decode_http_response(view);
    decode_tplink_udp(view);
    decode_tplink_tcp(view);
    decode_tuya_frame(view);
    decode_coap(view);
    decode_netbios(view);
    decode_tls_record(view);
    decode_tls_records(view);
    decode_rtp(view);
    decode_stun(view);
    decode_pcap(view);
    json::parse(string_of(view));
  }
}

TEST_P(DecoderFuzz, TruncationsOfValidMessagesAreSafe) {
  Rng rng(GetParam());
  // Build one valid frame, then decode every prefix of it.
  DnsMessage msg;
  msg.is_response = true;
  msg.answers.push_back(DnsRecord::make_ptr(
      DnsName::from_string("_hue._tcp.local"),
      DnsName::from_string("X._hue._tcp.local")));
  const Bytes dns = encode_dns(msg);
  const WireFrame valid =
      udp_frame(MacAddress::from_u64(GetParam()), MacAddress::kBroadcast,
                Ipv4Address(192, 168, 10, 2), 5353, kMdnsGroupV4, 5353, dns);
  const Bytes& frame = valid.bytes;
  const PacketView& layers = valid.view;
  ASSERT_TRUE(layers.udp.has_value());
  // Every layer decoder on every prefix of its own layer, and the whole
  // frame on every prefix of the frame.
  for (std::size_t n = 0; n <= frame.size(); ++n) {
    decode_frame_view(BytesView(frame).first(n));
    decode_ethernet(BytesView(frame).first(n));
  }
  for (std::size_t n = 0; n <= layers.eth.payload.size(); ++n)
    decode_ipv4(layers.eth.payload.first(n));
  for (std::size_t n = 0; n <= layers.ipv4->payload.size(); ++n)
    decode_udp(layers.ipv4->payload.first(n));
  // And random single-byte corruptions.
  for (int round = 0; round < 100; ++round) {
    Bytes corrupted = frame;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    decode_frame_view(BytesView(corrupted));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Round-trip properties over random inputs.
// ---------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};
  std::string random_label() {
    static const char* kWords[] = {"hub", "cam", "tv", "plug", "echo", "nest"};
    return std::string(kWords[rng_.below(6)]) + std::to_string(rng_.below(1000));
  }
};

TEST_P(RoundTrip, DnsMessages) {
  for (int round = 0; round < 30; ++round) {
    DnsMessage msg;
    msg.is_response = rng_.chance(0.5);
    const int questions = static_cast<int>(rng_.below(4));
    for (int q = 0; q < questions; ++q) {
      msg.questions.push_back({DnsName::from_string("_" + random_label() +
                                                    "._tcp.local"),
                               DnsType::kPtr, rng_.chance(0.3)});
    }
    const int answers = static_cast<int>(rng_.below(5));
    for (int a = 0; a < answers; ++a) {
      const DnsName name = DnsName::from_string(random_label() + ".local");
      switch (rng_.below(4)) {
        case 0:
          msg.answers.push_back(DnsRecord::make_a(
              name, Ipv4Address(static_cast<std::uint32_t>(rng_.next_u32()))));
          break;
        case 1:
          msg.answers.push_back(DnsRecord::make_ptr(
              name, DnsName::from_string(random_label() + ".local")));
          break;
        case 2: {
          SrvData srv;
          srv.port = static_cast<std::uint16_t>(rng_.below(65536));
          srv.target = DnsName::from_string(random_label() + ".local");
          msg.answers.push_back(DnsRecord::make_srv(name, srv));
          break;
        }
        default:
          msg.answers.push_back(DnsRecord::make_txt(
              name, {"k=" + random_label(), "id=" + random_label()}));
      }
    }
    const auto back = decode_dns(BytesView(encode_dns(msg)));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->questions.size(), msg.questions.size());
    ASSERT_EQ(back->answers.size(), msg.answers.size());
    for (std::size_t i = 0; i < msg.questions.size(); ++i)
      EXPECT_EQ(back->questions[i].name, msg.questions[i].name);
    for (std::size_t i = 0; i < msg.answers.size(); ++i) {
      EXPECT_EQ(back->answers[i].name, msg.answers[i].name);
      EXPECT_EQ(back->answers[i].type, msg.answers[i].type);
      EXPECT_EQ(back->answers[i].rdata, msg.answers[i].rdata);
    }
  }
}

TEST_P(RoundTrip, DhcpMessages) {
  for (int round = 0; round < 50; ++round) {
    DhcpMessage msg;
    msg.is_request = rng_.chance(0.5);
    msg.xid = rng_.next_u32();
    msg.client_mac = MacAddress::from_u64(rng_.next_u64() & 0xffffffffffffull);
    msg.yiaddr = Ipv4Address(rng_.next_u32());
    msg.set_message_type(static_cast<DhcpMessageType>(1 + rng_.below(8)));
    if (rng_.chance(0.7)) msg.set_hostname(random_label());
    if (rng_.chance(0.5)) msg.set_vendor_class("client-" + random_label());
    const auto back = decode_dhcp(BytesView(encode_dhcp(msg)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->xid, msg.xid);
    EXPECT_EQ(back->client_mac, msg.client_mac);
    EXPECT_EQ(back->yiaddr, msg.yiaddr);
    EXPECT_EQ(back->message_type(), msg.message_type());
    EXPECT_EQ(back->hostname(), msg.hostname());
  }
}

TEST_P(RoundTrip, TplinkCipherIsBijective) {
  for (int round = 0; round < 50; ++round) {
    const Bytes plain = rng_.bytes(rng_.below(300));
    EXPECT_EQ(tplink_decrypt(BytesView(tplink_encrypt(BytesView(plain)))),
              plain);
  }
}

TEST_P(RoundTrip, TuyaFrames) {
  for (int round = 0; round < 50; ++round) {
    TuyaFrame frame;
    frame.seq = rng_.next_u32();
    frame.command = static_cast<std::uint32_t>(rng_.below(0x20));
    frame.payload = rng_.bytes(rng_.below(128));
    const auto back = decode_tuya_frame(BytesView(encode_tuya_frame(frame)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seq, frame.seq);
    EXPECT_EQ(back->command, frame.command);
    EXPECT_EQ(back->payload, frame.payload);
  }
}

TEST_P(RoundTrip, CoapMessages) {
  for (int round = 0; round < 50; ++round) {
    CoapMessage msg;
    msg.type = static_cast<CoapType>(rng_.below(4));
    msg.code = static_cast<std::uint8_t>(rng_.below(0x60));
    msg.message_id = static_cast<std::uint16_t>(rng_.below(65536));
    msg.token = rng_.bytes(rng_.below(9));
    msg.set_uri_path(random_label() + "/" + random_label());
    if (rng_.chance(0.5)) msg.payload = rng_.bytes(1 + rng_.below(64));
    const auto back = decode_coap(BytesView(encode_coap(msg)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->message_id, msg.message_id);
    EXPECT_EQ(back->token, msg.token);
    EXPECT_EQ(back->uri_path(), msg.uri_path());
    EXPECT_EQ(back->payload, msg.payload);
  }
}

TEST_P(RoundTrip, PcapFiles) {
  std::vector<PcapRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back({SimTime::from_us(static_cast<std::int64_t>(rng_.below(1u << 30))),
                       rng_.bytes(14 + rng_.below(200))});
  }
  const auto back = decode_pcap(BytesView(encode_pcap(records)));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].frame, records[i].frame);
    EXPECT_EQ((*back)[i].timestamp, records[i].timestamp);
  }
}

TEST_P(RoundTrip, JsonValues) {
  // Random nested JSON survives dump->parse.
  std::function<json::Value(int)> make = [&](int depth) -> json::Value {
    if (depth <= 0 || rng_.chance(0.4)) {
      switch (rng_.below(4)) {
        case 0: return json::Value(nullptr);
        case 1: return json::Value(rng_.chance(0.5));
        case 2: return json::Value(static_cast<double>(rng_.range(-5000, 5000)));
        default: return json::Value("s" + random_label());
      }
    }
    if (rng_.chance(0.5)) {
      json::Array arr;
      const auto n = rng_.below(4);
      for (std::uint64_t i = 0; i < n; ++i) arr.push_back(make(depth - 1));
      return json::Value(std::move(arr));
    }
    json::Object obj;
    const auto n = rng_.below(4);
    for (std::uint64_t i = 0; i < n; ++i)
      obj.emplace("k" + std::to_string(i), make(depth - 1));
    return json::Value(std::move(obj));
  };
  for (int round = 0; round < 30; ++round) {
    const json::Value value = make(4);
    const auto back = json::parse(value.dump());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, value);
  }
}

TEST_P(RoundTrip, ChecksumsSelfVerify) {
  for (int round = 0; round < 50; ++round) {
    // Any IPv4/UDP/TCP packet we emit must verify to zero.
    const Ipv4Address src(rng_.next_u32() | 0x0a000000),
        dst(rng_.next_u32() | 0x0a000000);
    UdpDatagram udp;
    udp.src_port = port(static_cast<std::uint16_t>(1 + rng_.below(65535)));
    udp.dst_port = port(static_cast<std::uint16_t>(1 + rng_.below(65535)));
    const Bytes udp_payload = rng_.bytes(rng_.below(256));
    udp.payload = udp_payload;
    EXPECT_EQ(transport_checksum_v4(src, dst, 17,
                                    BytesView(encode_udp_v4(udp, src, dst))),
              0);
    TcpSegment tcp;
    tcp.seq = rng_.next_u32();
    const Bytes tcp_payload = rng_.bytes(rng_.below(256));
    tcp.payload = tcp_payload;
    EXPECT_EQ(transport_checksum_v4(src, dst, 6,
                                    BytesView(encode_tcp_v4(tcp, src, dst))),
              0);
    Ipv4Packet ip;
    ip.src = src;
    ip.dst = dst;
    const Bytes ip_payload = rng_.bytes(rng_.below(64));
    ip.payload = ip_payload;
    EXPECT_EQ(internet_checksum(BytesView(encode_ipv4(ip)).first(20)), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Classifier totality & hybrid sanity over arbitrary traffic.
// ---------------------------------------------------------------------------

class ClassifierProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierProperty, HybridNeverEmitsKnownWrongLabels) {
  Rng rng(GetParam());
  HybridClassifier hybrid;
  SpecClassifier spec;
  DeepClassifier deep;
  for (int round = 0; round < 300; ++round) {
    const MacAddress src_mac =
        MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
    const MacAddress dst_mac =
        MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
    const Ipv4Address src(rng.next_u32());
    const Ipv4Address dst(rng.next_u32());
    const bool udp = rng.chance(0.5);
    const auto sport = static_cast<std::uint16_t>(1 + rng.below(65535));
    const auto dport = static_cast<std::uint16_t>(1 + rng.below(65535));
    const Bytes payload = rng.bytes(rng.below(120));
    const WireFrame frame =
        udp ? udp_frame(src_mac, dst_mac, src, sport, dst, dport, payload)
            : tcp_frame(src_mac, dst_mac, src, sport, dst, dport, {}, payload);
    const PacketView& p = frame.view;
    // All three produce SOME label without crashing; the hybrid's manual
    // rules guarantee the known-wrong labels never escape it.
    (void)spec.classify_packet(p);
    (void)deep.classify_packet(p);
    const ProtocolLabel label = hybrid.classify_packet(p);
    EXPECT_NE(label, ProtocolLabel::kCiscoVpn);
    EXPECT_NE(label, ProtocolLabel::kAmazonAws);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierProperty,
                         ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------------
// Periodicity detection sweep across cadences.
// ---------------------------------------------------------------------------

class PeriodSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodSweep, DetectsPeriodWithinTolerance) {
  const double period = GetParam();
  const double window = std::max(3600.0, period * 24);
  std::vector<SimTime> events;
  for (double t = 0.3 * period; t < window; t += period)
    events.push_back(SimTime::from_seconds(t));
  PeriodicityParams params;
  params.bin_seconds = std::max(1.0, period / 16);
  const auto result =
      detect_periodicity(events, SimTime::from_seconds(window), params);
  ASSERT_TRUE(result.periodic) << "period " << period;
  // Detected period within 20% or one bin of truth (or a subharmonic of it).
  const double bin = window / 65536 > params.bin_seconds
                         ? window / 65536
                         : params.bin_seconds;
  const double tolerance = std::max(0.2 * period, 2 * bin);
  const double ratio = result.period_seconds / period;
  const double nearest_multiple = std::round(ratio);
  EXPECT_TRUE(std::abs(result.period_seconds - period) < tolerance ||
              (nearest_multiple >= 1 &&
               std::abs(ratio - nearest_multiple) < 0.2))
      << "true " << period << " detected " << result.period_seconds;
}

INSTANTIATE_TEST_SUITE_P(Cadences, PeriodSweep,
                         ::testing::Values(10.0, 20.0, 60.0, 100.0, 300.0,
                                           900.0, 3600.0, 7200.0));

// ---------------------------------------------------------------------------
// Flow assembly invariants (the non-evicting FlowCache).
// ---------------------------------------------------------------------------

class FlowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowProperty, EveryTransportPacketLandsInExactlyOneFlow) {
  Rng rng(GetParam());
  std::vector<FlowRecord> records;
  FlowCache cache({}, [&records](const FlowRecord& record, PruneReason) {
    records.push_back(record);
  });
  std::size_t transport_packets = 0;
  for (int round = 0; round < 500; ++round) {
    const MacAddress src_mac = MacAddress::from_u64(1 + rng.below(6));
    const MacAddress dst_mac = MacAddress::from_u64(1 + rng.below(6));
    const Ipv4Address src(192, 168, 10, static_cast<std::uint8_t>(2 + rng.below(5)));
    const Ipv4Address dst(192, 168, 10, static_cast<std::uint8_t>(2 + rng.below(5)));
    const auto sport = static_cast<std::uint16_t>(1000 + rng.below(4));
    const auto dport = static_cast<std::uint16_t>(1000 + rng.below(4));
    const Bytes payload = rng.bytes(rng.below(32));
    cache.add(SimTime::from_ms(round),
              udp_frame(src_mac, dst_mac, src, sport, dst, dport, payload).view);
    ++transport_packets;
  }
  cache.flush();
  std::size_t in_flows = 0;
  std::set<FlowKey> keys;
  for (const FlowRecord& record : records) {
    in_flows += record.packets;
    // Each direction's count adds up, and the flow's times are monotone.
    EXPECT_EQ(record.client_packets + record.server_packets, record.packets);
    EXPECT_LE(record.first_seen, record.last_seen);
    // No 5-tuple (in either direction) is split across two records.
    FlowKey reverse = record.key;
    std::swap(reverse.client_ip, reverse.server_ip);
    std::swap(reverse.client_port, reverse.server_port);
    EXPECT_TRUE(keys.insert(record.key).second);
    if (reverse != record.key) {
      EXPECT_EQ(keys.count(reverse), 0u);
    }
  }
  EXPECT_EQ(in_flows, transport_packets);
  EXPECT_EQ(cache.stats().packets, transport_packets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowProperty, ::testing::Values(3, 13, 23));

// ---------------------------------------------------------------------------
// Crowd generator invariants over seeds.
// ---------------------------------------------------------------------------

class CrowdProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrowdProperty, GeneratorInvariants) {
  Rng rng(GetParam());
  InspectorConfig config;
  config.households = 400;
  config.devices = 1310;
  const InspectorDataset dataset = generate_inspector_dataset(rng, config);

  // Exact device count, every device within a valid household & product.
  EXPECT_EQ(dataset.devices.size(), config.devices);
  for (const auto& device : dataset.devices) {
    EXPECT_LT(device.household, config.households);
    EXPECT_LT(device.product_index, dataset.products.size());
    EXPECT_EQ(device.device_id.size(), 16u);
  }
  // Row devices partition the population.
  const FingerprintAnalysis analysis = fingerprint_households(dataset);
  std::size_t devices_in_rows = 0;
  for (const auto& row : analysis.rows) devices_in_rows += row.devices;
  EXPECT_EQ(devices_in_rows, dataset.devices.size());
  // Uniquely-identified never exceeds households; entropy bounded.
  for (const auto& row : analysis.rows) {
    EXPECT_LE(row.uniquely_identified, row.households);
    if (row.households > 0) {
      EXPECT_LE(row.entropy_bits,
                std::log2(static_cast<double>(row.households)) + 1e-9);
    }
  }
}

TEST_P(CrowdProperty, HmacIdsAreSaltDependent) {
  // Same MAC across households must yield different pseudonyms (per-user
  // salts — the privacy property IoT Inspector relies on).
  const Bytes salt1 = Rng(GetParam()).bytes(16);
  const Bytes salt2 = Rng(GetParam() + 1).bytes(16);
  const Bytes mac = bytes_of("02:a0:00:aa:bb:cc");
  EXPECT_NE(hmac_sha256_hex(BytesView(salt1), BytesView(mac)),
            hmac_sha256_hex(BytesView(salt2), BytesView(mac)));
  EXPECT_EQ(hmac_sha256_hex(BytesView(salt1), BytesView(mac)),
            hmac_sha256_hex(BytesView(salt1), BytesView(mac)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrowdProperty, ::testing::Values(100, 200, 300));

// ---------------------------------------------------------------------------
// SHA-256 length sweep (padding boundaries).
// ---------------------------------------------------------------------------

class ShaLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShaLengths, MatchesIncrementalDefinitionAcrossBoundaries) {
  // Property: digests at adjacent lengths differ, are deterministic, and the
  // one-block/two-block padding split is handled (lengths straddle 55/56
  // and 119/120 boundaries).
  const std::size_t n = GetParam();
  const Bytes a(n, 0x61);
  const Sha256Digest d1 = sha256(BytesView(a));
  const Sha256Digest d2 = sha256(BytesView(a));
  EXPECT_EQ(d1, d2);
  Bytes b = a;
  b.push_back(0x61);
  EXPECT_NE(sha256(BytesView(b)), d1);
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, ShaLengths,
                         ::testing::Values(0, 1, 54, 55, 56, 63, 64, 65, 118,
                                           119, 120, 127, 128, 1000));

}  // namespace
}  // namespace roomnet
