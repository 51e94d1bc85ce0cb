// google-benchmark microbenchmarks: codec encode/decode throughput, the
// classifiers, identifier extraction, SHA-256/HMAC, FFT, pcap I/O, and the
// zero-copy hot-path primitives (view decode, flow-cache lookup, encoder
// reserve).
#include <benchmark/benchmark.h>

#include "analysis/identifiers.hpp"
#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "classify/periodicity.hpp"
#include "netcore/sha256.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"

namespace roomnet {
namespace {

Bytes sample_frame() {
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

  UdpDatagram udp;
  udp.src_port = port(5353);
  udp.dst_port = port(5353);
  udp.payload = encode_dns(msg);
  const Ipv4Address src(192, 168, 10, 12);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = kMdnsGroupV4;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  ip.payload = encode_udp_v4(udp, src, kMdnsGroupV4);
  EthernetFrame eth;
  eth.dst = MacAddress::parse("01:00:5e:00:00:fb").value();
  eth.src = MacAddress::from_u64(0x02a005000001ull);
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  eth.payload = encode_ipv4(ip);
  return encode_ethernet(eth);
}

void BM_DecodeFrame(benchmark::State& state) {
  const Bytes frame = sample_frame();
  for (auto _ : state) {
    auto packet = decode_frame(BytesView(frame));
    benchmark::DoNotOptimize(packet);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeFrame);

void BM_DecodeFrameView(benchmark::State& state) {
  // Allocation-free counterpart of BM_DecodeFrame on the same wire bytes;
  // the gap between the two is the per-layer payload copies.
  const Bytes frame = sample_frame();
  for (auto _ : state) {
    auto packet = decode_frame_view(BytesView(frame));
    benchmark::DoNotOptimize(packet);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeFrameView);

Packet udp_packet_with_sport(std::uint16_t sport) {
  Packet p;
  p.eth.src = MacAddress::from_u64(0x02a005000001ull);
  p.eth.dst = MacAddress::from_u64(0x02a005000002ull);
  p.eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
  Ipv4Packet ip;
  ip.src = Ipv4Address(192, 168, 10, 2);
  ip.dst = Ipv4Address(192, 168, 10, 3);
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  p.ipv4 = ip;
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(80);
  u.payload = bytes_of("payload");
  p.udp = u;
  return p;
}

void BM_FlowCacheLookup(benchmark::State& state) {
  // 64 distinct 5-tuples cycled over 1024 adds: past the first cycle every
  // add is a hit on an existing flow, i.e. pure bucket lookup plus the LRU
  // touch. The flush at the end emits the 64 records (no sink installed).
  constexpr int kTuples = 64;
  std::vector<Packet> packets;
  packets.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i)
    packets.push_back(udp_packet_with_sport(static_cast<std::uint16_t>(1024 + i)));
  std::vector<PacketView> views;
  views.reserve(packets.size());
  for (const auto& p : packets) views.push_back(as_view(p));
  for (auto _ : state) {
    FlowCache cache;
    for (int i = 0; i < 1024; ++i)
      cache.add(SimTime::from_ms(i), views[static_cast<std::size_t>(i % kTuples)]);
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
  UdpDatagram udp;
  udp.src_port = port(5353);
  udp.dst_port = port(5353);
  udp.payload = encode_dns(msg);
  const Ipv4Address src(192, 168, 10, 12);
  for (auto _ : state) {
    Ipv4Packet ip;
    ip.src = src;
    ip.dst = kMdnsGroupV4;
    ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
    ip.payload = encode_udp_v4(udp, src, kMdnsGroupV4);
    EthernetFrame eth;
    eth.src = MacAddress::from_u64(0x02a005000001ull);
    eth.dst = MacAddress::parse("01:00:5e:00:00:fb").value();
    eth.ethertype = static_cast<std::uint16_t>(EtherType::kIpv4);
    eth.payload = encode_ipv4(ip);
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
  const Bytes frame = sample_frame();
  const auto packet = decode_frame(BytesView(frame));
  DeepClassifier classifier;
  for (auto _ : state) {
    auto label = classifier.classify_packet(*packet);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_ClassifyPacketDeep);

void BM_ClassifyPacketSpec(benchmark::State& state) {
  const Bytes frame = sample_frame();
  const auto packet = decode_frame(BytesView(frame));
  SpecClassifier classifier;
  for (auto _ : state) {
    auto label = classifier.classify_packet(*packet);
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
  const Bytes frame = sample_frame();
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
