// google-benchmark microbenchmarks: codec encode/decode throughput, the
// classifiers, identifier extraction, SHA-256/HMAC, FFT, pcap I/O, and the
// zero-copy hot-path primitives (view decode, flow-cache lookup, encoder
// reserve). Packet fixtures are real encoded frames (tests/wire_frame.hpp).
#include <benchmark/benchmark.h>

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "classify/periodicity.hpp"
#include "netcore/sha256.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "wire_frame.hpp"

namespace roomnet {
namespace {

WireFrame sample_frame() {
  DnsMessage msg;
  msg.is_response = true;
  const auto instance =
      DnsName::from_string("Philips Hue - 685F61._hue._tcp.local");
  msg.answers.push_back(
      DnsRecord::make_ptr(DnsName::from_string("_hue._tcp.local"), instance));
  SrvData srv;
  srv.port = 443;
  srv.target = DnsName::from_string("Philips-hue.local");
  msg.answers.push_back(DnsRecord::make_srv(instance, srv));
  msg.answers.push_back(
      DnsRecord::make_txt(instance, {"bridgeid=001788fffe685f61"}));

  return udp_frame(MacAddress::from_u64(0x02a005000001ull),
                   MacAddress::parse("01:00:5e:00:00:fb").value(),
                   Ipv4Address(192, 168, 10, 12), 5353, kMdnsGroupV4, 5353,
                   encode_dns(msg));
}

void BM_DecodeFrameView(benchmark::State& state) {
  // The allocation-free decode every capture consumer reads (UDP/mDNS).
  const Bytes frame = sample_frame().bytes;
  for (auto _ : state) {
    auto packet = decode_frame_view(BytesView(frame));
    benchmark::DoNotOptimize(packet);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeFrameView);

// Hot-cache decode of the header-only frames the scan and discovery paths
// carry, one case per layer stack.
void decode_frame_case(benchmark::State& state, const Bytes& frame) {
  for (auto _ : state) {
    auto packet = decode_frame_view(BytesView(frame));
    benchmark::DoNotOptimize(packet);
  }
}

void BM_DecodeFrameViewTcpSyn(benchmark::State& state) {
  decode_frame_case(state,
                    tcp_frame(MacAddress::from_u64(0x02a005000001ull),
                              MacAddress::from_u64(0x02a005000002ull),
                              Ipv4Address(192, 168, 10, 2), 40001,
                              Ipv4Address(192, 168, 10, 3), 80, {.syn = true}, {})
                        .bytes);
}
BENCHMARK(BM_DecodeFrameViewTcpSyn);

void BM_DecodeFrameViewArp(benchmark::State& state) {
  const ArpPacket arp{.op = ArpOp::kRequest,
                      .sender_mac = MacAddress::from_u64(0x02a005000001ull),
                      .sender_ip = Ipv4Address(192, 168, 10, 2),
                      .target_ip = Ipv4Address(192, 168, 10, 3)};
  decode_frame_case(
      state, arp_frame(arp.sender_mac, MacAddress::kBroadcast, arp).bytes);
}
BENCHMARK(BM_DecodeFrameViewArp);

void BM_DecodeFrameViewIcmpv6Ns(benchmark::State& state) {
  const MacAddress mac = MacAddress::from_u64(0x02a005000001ull);
  const Ipv6Address src = Ipv6Address::link_local_from_mac(mac);
  const Ipv6Address target = Ipv6Address::parse("fe80::42").value();
  const Ipv6Address dst = Ipv6Address::solicited_node(target);
  Icmpv6Message ns;
  ns.target = target;
  ns.link_layer_option = mac;
  const Bytes message = encode_icmpv6(ns, src, dst);
  const Ipv6Packet ip{.src = src,
                      .dst = dst,
                      .next_header = static_cast<std::uint8_t>(IpProto::kIcmpv6),
                      .payload = message};
  const Bytes datagram = encode_ipv6(ip);
  decode_frame_case(state, ethernet_frame(mac, MacAddress::from_u64(0x3333ff000042ull),
                                          EtherType::kIpv6, datagram)
                               .bytes);
}
BENCHMARK(BM_DecodeFrameViewIcmpv6Ns);

// The probe path's frame build: Ethernet, IPv4 and TCP appended into a
// recycled buffer, as Host::send_raw_tcp does.
void BM_BuildTcpSynFrame(benchmark::State& state) {
  const EthernetFrame eth{.dst = MacAddress::from_u64(0x02a005000002ull),
                          .src = MacAddress::from_u64(0x02a005000001ull),
                          .ethertype = static_cast<std::uint16_t>(EtherType::kIpv4)};
  const Ipv4Packet ip{.src = Ipv4Address(192, 168, 10, 2),
                      .dst = Ipv4Address(192, 168, 10, 3),
                      .protocol = static_cast<std::uint8_t>(IpProto::kTcp)};
  const TcpSegment syn{.src_port = port(40001), .dst_port = port(80),
                       .seq = 12345, .flags = {.syn = true}};
  Bytes recycled;
  for (auto _ : state) {
    ByteWriter w(std::move(recycled));
    w.reserve(54);
    append_ethernet_header(w, eth);
    append_ipv4_header(w, ip, 20);
    append_tcp_v4(w, syn, ip.src, ip.dst);
    recycled = w.take();
    benchmark::DoNotOptimize(recycled.data());
  }
}
BENCHMARK(BM_BuildTcpSynFrame);

void BM_BuildArpFrame(benchmark::State& state) {
  const EthernetFrame eth{.dst = MacAddress::kBroadcast,
                          .src = MacAddress::from_u64(0x02a005000001ull),
                          .ethertype = static_cast<std::uint16_t>(EtherType::kArp)};
  const ArpPacket arp{.op = ArpOp::kRequest,
                      .sender_mac = eth.src,
                      .sender_ip = Ipv4Address(192, 168, 10, 2),
                      .target_ip = Ipv4Address(192, 168, 10, 3)};
  Bytes recycled;
  for (auto _ : state) {
    ByteWriter w(std::move(recycled));
    w.reserve(42);
    append_ethernet_header(w, eth);
    append_arp(w, arp);
    recycled = w.take();
    benchmark::DoNotOptimize(recycled.data());
  }
}
BENCHMARK(BM_BuildArpFrame);

void BM_FlowCacheLookup(benchmark::State& state) {
  // 64 distinct 5-tuples cycled over 1024 adds: past the first cycle every
  // add is a hit on an existing flow, i.e. pure bucket lookup plus the LRU
  // touch. The flush at the end emits the 64 records (no sink installed).
  constexpr int kTuples = 64;
  const Bytes payload = bytes_of("payload");
  std::vector<WireFrame> frames;
  frames.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i)
    frames.push_back(udp_frame(MacAddress::from_u64(0x02a005000001ull),
                               MacAddress::from_u64(0x02a005000002ull),
                               Ipv4Address(192, 168, 10, 2),
                               static_cast<std::uint16_t>(1024 + i),
                               Ipv4Address(192, 168, 10, 3), 80, payload));
  for (auto _ : state) {
    FlowCache cache;
    for (int i = 0; i < 1024; ++i)
      cache.add(SimTime::from_ms(i),
                frames[static_cast<std::size_t>(i % kTuples)].view);
    cache.flush();
    benchmark::DoNotOptimize(cache);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_FlowCacheLookup);

void BM_EncodeFrameStack(benchmark::State& state) {
  // Full eth/ip/udp encode of the mDNS sample frame — the encoders reserve
  // their exact wire length up front, so each layer is a single allocation.
  DnsMessage msg;
  msg.is_response = true;
  msg.answers.push_back(DnsRecord::make_txt(
      DnsName::from_string("bench._tcp.local"), {"id=0123456789abcdef"}));
  const Bytes dns = encode_dns(msg);
  UdpDatagram udp;
  udp.src_port = port(5353);
  udp.dst_port = port(5353);
  udp.payload = dns;
  const Ipv4Address src(192, 168, 10, 12);
  for (auto _ : state) {
    const Bytes segment = encode_udp_v4(udp, src, kMdnsGroupV4);
    Ipv4Packet ip;
    ip.src = src;
    ip.dst = kMdnsGroupV4;
    ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
    ip.payload = segment;
    const Bytes datagram = encode_ipv4(ip);
    EthernetFrame eth;
    eth.src = MacAddress::from_u64(0x02a005000001ull);
    eth.dst = MacAddress::parse("01:00:5e:00:00:fb").value();
    eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
    eth.payload = datagram;
    auto raw = encode_ethernet(eth);
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_EncodeFrameStack);

void BM_ByteWriterWithReserve(benchmark::State& state) {
  // The "after" of the encoder reserve() change, isolated: one up-front
  // allocation per encoded buffer...
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    ByteWriter w;
    w.reserve(14 + payload.size());
    w.u64(0x0102030405060708ull).u32(0x0800dead).u16(0x0800);
    w.raw(BytesView(payload));
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_ByteWriterWithReserve)->Arg(256)->Arg(1460);

void BM_ByteWriterNoReserve(benchmark::State& state) {
  // ...vs the "before": log2(n) grow-and-copy cycles on the same bytes.
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    ByteWriter w;
    w.u64(0x0102030405060708ull).u32(0x0800dead).u16(0x0800);
    w.raw(BytesView(payload));
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_ByteWriterNoReserve)->Arg(256)->Arg(1460);

void BM_DnsEncode(benchmark::State& state) {
  DnsMessage msg;
  msg.is_response = true;
  for (int i = 0; i < 6; ++i)
    msg.answers.push_back(DnsRecord::make_ptr(
        DnsName::from_string("_services._dns-sd._udp.local"),
        DnsName::from_string("inst" + std::to_string(i) + "._tcp.local")));
  for (auto _ : state) {
    auto raw = encode_dns(msg);
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_DnsEncode);

/// A Chromecast-style mDNS answer: PTR + SRV + TXT + A.
DnsMessage chromecast_message() {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const auto service = DnsName::from_string("_googlecast._tcp.local");
  const auto instance = DnsName::from_string(
      "Chromecast-9f3e1c0b8a7d6e5f4c3b2a1908f7e6d5._googlecast._tcp.local");
  const auto host =
      DnsName::from_string("9f3e1c0b-8a7d-6e5f-4c3b-2a1908f7e6d5.local");
  msg.answers.push_back(DnsRecord::make_ptr(service, instance));
  SrvData srv;
  srv.port = 8009;
  srv.target = host;
  msg.additional.push_back(DnsRecord::make_srv(instance, srv));
  msg.additional.push_back(DnsRecord::make_txt(
      instance, {"id=9f3e1c0b8a7d6e5f4c3b2a1908f7e6d5", "md=Chromecast",
                 "fn=Living Room TV", "ve=05", "ca=201221", "st=0"}));
  msg.additional.push_back(
      DnsRecord::make_a(host, Ipv4Address(192, 168, 10, 23)));
  return msg;
}

/// chromecast_message() on the wire, name-compressed.
Bytes chromecast_answer() { return encode_dns(chromecast_message()); }

void BM_DecodeMdnsResponse(benchmark::State& state) {
  const Bytes raw = chromecast_answer();
  for (auto _ : state) {
    auto msg = decode_dns(BytesView(raw));
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_DecodeMdnsResponse);

// The view the app-layer memo holds: the validating walk alone, no copy.
void BM_ViewMdnsResponse(benchmark::State& state) {
  const Bytes raw = chromecast_answer();
  for (auto _ : state) {
    auto msg = view_dns(BytesView(raw));
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_ViewMdnsResponse);

// An mDNS answer encoded whole: what MdnsEndpoint does once per service and
// address state.
void BM_EncodeMdnsAnswer(benchmark::State& state) {
  const DnsMessage msg = chromecast_message();
  for (auto _ : state) {
    auto raw = encode_dns(msg);
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_EncodeMdnsAnswer);

Bytes ssdp_wire(SsdpKind kind) {
  SsdpMessage msg;
  msg.kind = kind;
  msg.search_target = kind == SsdpKind::kMSearch
                          ? "urn:dial-multiscreen-org:service:dial:1"
                          : "urn:schemas-upnp-org:device:MediaRenderer:1";
  msg.usn = "uuid:2fac1234-31f8-11b4-a222-08002b34c003::" + msg.search_target;
  msg.server = "Linux/3.14 UPnP/1.0 Roku/9.4.0";
  msg.location = "http://192.168.10.31:8060/dial/dd.xml";
  msg.mx = 3;
  msg.extra_headers = {{"BOOTID.UPNP.ORG", "1"}, {"CONFIGID.UPNP.ORG", "7"}};
  return encode_ssdp(msg);
}

void decode_ssdp_loop(benchmark::State& state, SsdpKind kind) {
  const Bytes raw = ssdp_wire(kind);
  for (auto _ : state) {
    auto msg = decode_ssdp(BytesView(raw));
    benchmark::DoNotOptimize(msg);
  }
}

void BM_DecodeSsdpResponse(benchmark::State& state) {
  decode_ssdp_loop(state, SsdpKind::kResponse);
}
BENCHMARK(BM_DecodeSsdpResponse);

void BM_DecodeSsdpNotify(benchmark::State& state) {
  decode_ssdp_loop(state, SsdpKind::kNotify);
}
BENCHMARK(BM_DecodeSsdpNotify);

void BM_DecodeSsdpMSearch(benchmark::State& state) {
  decode_ssdp_loop(state, SsdpKind::kMSearch);
}
BENCHMARK(BM_DecodeSsdpMSearch);

void view_ssdp_loop(benchmark::State& state, SsdpKind kind) {
  const Bytes raw = ssdp_wire(kind);
  for (auto _ : state) {
    auto msg = view_ssdp(BytesView(raw));
    benchmark::DoNotOptimize(msg);
  }
}

void BM_ViewSsdpResponse(benchmark::State& state) {
  view_ssdp_loop(state, SsdpKind::kResponse);
}
BENCHMARK(BM_ViewSsdpResponse);

void BM_ViewSsdpNotify(benchmark::State& state) {
  view_ssdp_loop(state, SsdpKind::kNotify);
}
BENCHMARK(BM_ViewSsdpNotify);

// Encoding into a recycled buffer, as SsdpEndpoint sends its NOTIFYs and
// M-SEARCH responses.
void encode_ssdp_loop(benchmark::State& state, SsdpKind kind) {
  const SsdpMessage msg = *decode_ssdp(BytesView(ssdp_wire(kind)));
  Bytes buffer;
  for (auto _ : state) {
    ByteWriter w(std::move(buffer));
    append_ssdp(msg, w);
    buffer = w.take();
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
}

void BM_EncodeSsdpNotify(benchmark::State& state) {
  encode_ssdp_loop(state, SsdpKind::kNotify);
}
BENCHMARK(BM_EncodeSsdpNotify);

void BM_EncodeSsdpResponse(benchmark::State& state) {
  encode_ssdp_loop(state, SsdpKind::kResponse);
}
BENCHMARK(BM_EncodeSsdpResponse);

void BM_TplinkCipher(benchmark::State& state) {
  const Bytes plain =
      bytes_of(std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  for (auto _ : state) {
    auto cipher = tplink_encrypt(BytesView(plain));
    benchmark::DoNotOptimize(cipher);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TplinkCipher)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ClassifyPacketDeep(benchmark::State& state) {
  const WireFrame frame = sample_frame();
  DeepClassifier classifier;
  for (auto _ : state) {
    auto label = classifier.classify_packet(frame.view);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_ClassifyPacketDeep);

void BM_ClassifyPacketSpec(benchmark::State& state) {
  const WireFrame frame = sample_frame();
  SpecClassifier classifier;
  for (auto _ : state) {
    auto label = classifier.classify_packet(frame.view);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_ClassifyPacketSpec);

void BM_IdentifierExtraction(benchmark::State& state) {
  const std::string text =
      "Roku 3 - Jane's Room uuid:296f0ed3-af44-4f44-8a7f-02a000000002 "
      "serial 9c:8e:cd:0a:33:1b model=BSB002 fn=Living bridge "
      "id=001788fffe685f61 and more text to scan through for realism";
  for (auto _ : state) {
    auto ids = extract_identifiers(text);
    benchmark::DoNotOptimize(ids);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IdentifierExtraction);

// The §6.3 harvest the fleet runs per distinct payload, over a Chromecast-
// style mDNS response's text (325 bytes): instance and host names, PTR/SRV
// targets and TXT strings carrying a display name, a UUID and a MAC.
void BM_HarvestIdentifiers(benchmark::State& state) {
  DnsMessage msg;
  msg.is_response = true;
  const auto instance =
      DnsName::from_string("Jane's TV._googlecast._tcp.local");
  const auto host =
      DnsName::from_string("296f0ed3-af44-4f44-8a7f-02a000000002.local");
  msg.answers.push_back(DnsRecord::make_ptr(
      DnsName::from_string("_googlecast._tcp.local"), instance));
  SrvData srv;
  srv.port = 8009;
  srv.target = host;
  msg.answers.push_back(DnsRecord::make_srv(instance, srv));
  msg.answers.push_back(DnsRecord::make_txt(
      instance, {"id=296f0ed3af444f448a7f02a000000002", "cd=5B1C7E6A0F2D",
                 "md=Chromecast", "fn=Jane's TV", "bs=FA8FCA3C8A2B",
                 "mac=9c:8e:cd:0a:33:1b"}));
  msg.additional.push_back(
      DnsRecord::make_a(host, Ipv4Address(192, 168, 10, 12)));
  const Bytes raw = encode_dns(msg);
  const std::string text = response_text(*view_dns(BytesView(raw)));
  for (auto _ : state) {
    std::set<ExtractedIdentifier> ids;
    harvest_identifiers(text, 0x9c8ecd, ids);
    benchmark::DoNotOptimize(ids);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_HarvestIdentifiers);

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    auto digest = sha256(BytesView(data));
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacDeviceId(benchmark::State& state) {
  const Bytes salt(16, 0x5a);
  const Bytes mac = bytes_of("02:a0:00:12:34:56");
  for (auto _ : state) {
    auto digest = hmac_sha256(BytesView(salt), BytesView(mac));
    benchmark::DoNotOptimize(digest);
  }
}
BENCHMARK(BM_HmacDeviceId);

void BM_Fft(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::complex<double>> data(
      static_cast<std::size_t>(state.range(0)));
  for (auto& x : data) x = rng.uniform();
  for (auto _ : state) {
    auto copy = data;
    fft(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_TlsClientHelloRoundTrip(benchmark::State& state) {
  Rng rng(2);
  TlsClientHello hello;
  hello.version = TlsVersion::kTls13;
  hello.random = rng.bytes(32);
  hello.cipher_suites = {0x1301, 0x1302, 0xc02f};
  hello.sni = "device.local";
  for (auto _ : state) {
    const Bytes raw = encode_client_hello(hello);
    auto rec = decode_tls_record(BytesView(raw));
    auto back = decode_client_hello(*rec);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TlsClientHelloRoundTrip);

void BM_PcapEncode(benchmark::State& state) {
  std::vector<PcapRecord> records;
  Rng rng(3);
  const Bytes frame = sample_frame().bytes;
  for (int i = 0; i < 1000; ++i)
    records.push_back({SimTime::from_ms(i), frame});
  for (auto _ : state) {
    auto file = encode_pcap(records);
    benchmark::DoNotOptimize(file);
  }
}
BENCHMARK(BM_PcapEncode);

}  // namespace
}  // namespace roomnet

BENCHMARK_MAIN();
