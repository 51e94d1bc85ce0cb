// Tests for the capture substrate: sink, per-MAC splitting, local filter,
// flow assembly (the FlowCache's records).
#include <gtest/gtest.h>

#include "capture/arpspoof.hpp"
#include "capture/capture.hpp"
#include "capture/filter.hpp"
#include "capture/flow_cache.hpp"
#include "sim/host.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(0x02a000000000ull | n); }

struct Lan {
  EventLoop loop;
  Switch net{loop};
  CaptureSink capture;
  Lan() { capture.attach(net); }
  void settle(double s = 5.0) { loop.run_until(loop.now() + SimTime::from_seconds(s)); }
};

TEST(CaptureSink, RecordsAllFramesWithTimestamps) {
  Lan lan;
  Host a(lan.net, mac_n(1), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  lan.loop.run_until(SimTime::from_seconds(1));
  a.arp_request(Ipv4Address(192, 168, 10, 9));
  lan.settle();
  ASSERT_EQ(lan.capture.size(), 1u);
  EXPECT_EQ(lan.capture.records()[0].timestamp, SimTime::from_seconds(1));
}

TEST(CaptureSink, SplitsBySourceMac) {
  Lan lan;
  Host a(lan.net, mac_n(1), "a");
  Host b(lan.net, mac_n(2), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  a.arp_request(Ipv4Address(192, 168, 10, 7));
  a.arp_request(Ipv4Address(192, 168, 10, 8));
  b.arp_request(Ipv4Address(192, 168, 10, 9));
  lan.settle();
  const auto split = lan.capture.split_by_source();
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split.at(a.mac()).size(), 2u);
  EXPECT_EQ(split.at(b.mac()).size(), 1u);
}

TEST(CaptureSink, WritesPcapDirectory) {
  Lan lan;
  Host a(lan.net, mac_n(1), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  a.arp_request(Ipv4Address(192, 168, 10, 7));
  lan.settle();
  const std::string dir = testing::TempDir() + "/roomnet_capture_test";
  EXPECT_EQ(lan.capture.write_pcap_dir(dir), 2u);  // all.pcap + one device
  const auto all = read_pcap_file(dir + "/all.pcap");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), 1u);
}

TEST(LocalFilter, MatchesPaperRules) {
  LocalFilter filter;  // 192.168.10.0/24

  const auto make_ipv4 = [](Ipv4Address src, Ipv4Address dst, bool bcast_mac) {
    Packet p;
    p.eth.src = mac_n(1);
    p.eth.dst = bcast_mac ? MacAddress::kBroadcast : mac_n(2);
    Ipv4Packet ip;
    ip.src = src;
    ip.dst = dst;
    p.ipv4 = ip;
    return p;
  };

  // Local unicast: both in subnet.
  EXPECT_TRUE(filter.matches(make_ipv4(Ipv4Address(192, 168, 10, 5),
                                       Ipv4Address(192, 168, 10, 6), false)));
  // Cloud-bound unicast: excluded.
  EXPECT_FALSE(filter.matches(make_ipv4(Ipv4Address(192, 168, 10, 5),
                                        Ipv4Address(52, 1, 2, 3), false)));
  // Broadcast MAC: always local, even with an off-subnet IP.
  EXPECT_TRUE(filter.matches(make_ipv4(Ipv4Address(192, 168, 10, 5),
                                       Ipv4Address(8, 8, 8, 8), true)));
  // Non-IP unicast (ARP): local.
  Packet arp;
  arp.eth.src = mac_n(1);
  arp.eth.dst = mac_n(2);
  arp.arp = ArpPacket{};
  EXPECT_TRUE(filter.matches(arp));
}

TEST(LocalFilter, Ipv6LinkLocalOnly) {
  LocalFilter filter;
  Packet p;
  p.eth.src = mac_n(1);
  p.eth.dst = mac_n(2);
  Ipv6Packet ip;
  ip.src = Ipv6Address::parse("fe80::1").value();
  ip.dst = Ipv6Address::parse("fe80::2").value();
  p.ipv6 = ip;
  EXPECT_TRUE(filter.matches(p));
  ip.dst = Ipv6Address::parse("2001:db8::1").value();
  p.ipv6 = ip;
  EXPECT_FALSE(filter.matches(p));
}

TEST(PrivateToPrivate, CrowdsourcedMembership) {
  Packet p;
  Ipv4Packet ip;
  ip.src = Ipv4Address(10, 0, 0, 5);
  ip.dst = Ipv4Address(192, 168, 1, 5);
  p.ipv4 = ip;
  EXPECT_TRUE(is_private_to_private(p));
  ip.dst = Ipv4Address(1, 1, 1, 1);
  p.ipv4 = ip;
  EXPECT_FALSE(is_private_to_private(p));
}

// -------------------------------------------------------------------- Flow

Packet udp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, std::string_view payload,
                  MacAddress src_mac = mac_n(1), MacAddress dst_mac = mac_n(2)) {
  Packet p;
  p.eth.src = src_mac;
  p.eth.dst = dst_mac;
  p.eth.payload = Bytes(64);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  p.ipv4 = ip;
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(dport);
  u.payload = bytes_of(payload);
  p.udp = u;
  return p;
}

/// Every record a non-evicting FlowCache emits for `packets` (added 1 ms
/// apart unless `at` says otherwise), in flow-creation order.
std::vector<FlowRecord> flow_records(const std::vector<Packet>& packets,
                                     const std::vector<SimTime>& at = {}) {
  std::vector<FlowRecord> records;
  FlowCache cache({}, [&records](const FlowRecord& record, PruneReason) {
    records.push_back(record);
  });
  for (std::size_t i = 0; i < packets.size(); ++i)
    cache.add(at.empty() ? SimTime::from_ms(static_cast<std::int64_t>(i)) : at[i],
              as_view(packets[i]));
  cache.flush();
  return records;
}

TEST(FlowRecords, GroupsBidirectionalTraffic) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const auto records = flow_records({udp_packet(a, 5000, b, 80, "req"),
                                     udp_packet(b, 80, a, 5000, "res"),
                                     udp_packet(a, 5000, b, 80, "req2")});
  ASSERT_EQ(records.size(), 1u);
  const FlowRecord& flow = records[0];
  EXPECT_EQ(flow.key.client_ip, a);
  EXPECT_EQ(flow.key.server_port, port(80));
  EXPECT_EQ(flow.packets, 3u);
  EXPECT_EQ(flow.client_packets, 2u);
  EXPECT_EQ(flow.server_packets, 1u);
  EXPECT_EQ(string_of(BytesView(flow.client_payload)), "req");
  EXPECT_EQ(string_of(BytesView(flow.server_payload)), "res");
}

TEST(FlowRecords, DistinctTuplesAreDistinctFlows) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  EXPECT_EQ(flow_records({udp_packet(a, 5000, b, 80, "x"),
                          udp_packet(a, 5001, b, 80, "y"),
                          udp_packet(a, 5000, b, 81, "z")})
                .size(),
            3u);
}

TEST(FlowRecords, IgnoresNonTransport) {
  Packet arp;
  arp.arp = ArpPacket{};
  FlowCache cache;
  cache.add(SimTime{}, as_view(arp));
  EXPECT_EQ(cache.stats().flows_created, 0u);
  EXPECT_EQ(cache.stats().packets, 0u);
}

TEST(FlowRecords, TimesAndBytes) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const auto records = flow_records(
      {udp_packet(a, 1, b, 2, "abc"), udp_packet(a, 1, b, 2, "defg")},
      {SimTime::from_seconds(1), SimTime::from_seconds(9)});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first_seen, SimTime::from_seconds(1));
  EXPECT_EQ(records[0].last_seen, SimTime::from_seconds(9));
  EXPECT_EQ(records[0].bytes, 2 * (64u + 14u));
}

// --------------------------------------------------------------- arpspoof

TEST(ArpSpoof, InterceptsAndForwardsVictimTraffic) {
  // IoT Inspector's §3.3 vantage: a plain LAN host observing unicast
  // device-to-device traffic via ARP cache poisoning, without breaking it.
  Lan lan;
  Host a(lan.net, mac_n(10), "victim-a");
  Host b(lan.net, mac_n(11), "victim-b");
  Host inspector(lan.net, mac_n(12), "inspector");
  a.set_static_ip(Ipv4Address(192, 168, 10, 21));
  b.set_static_ip(Ipv4Address(192, 168, 10, 22));
  inspector.set_static_ip(Ipv4Address(192, 168, 10, 23));

  ArpSpoofer spoofer(inspector);
  spoofer.add_victim({a.ip(), a.mac()});
  spoofer.add_victim({b.ip(), b.mac()});
  spoofer.start();
  lan.settle(2);

  // The victims' caches are poisoned: each maps the peer to the inspector.
  EXPECT_EQ(a.arp_lookup(b.ip()), inspector.mac());
  EXPECT_EQ(b.arp_lookup(a.ip()), inspector.mac());

  // a -> b traffic still arrives (transparent forwarding)...
  std::string received;
  b.open_udp(7000, [&](Host&, const PacketView&, const UdpDatagramView& udp) {
    received = string_of(udp.payload);
  });
  a.send_udp(b.ip(), 6000, 7000, bytes_of("secret-reading"));
  lan.settle(2);
  EXPECT_EQ(received, "secret-reading");

  // ...and the inspector recorded it.
  ASSERT_FALSE(spoofer.intercepts().empty());
  const auto& intercept = spoofer.intercepts().front();
  EXPECT_EQ(intercept.original_src, a.mac());
  EXPECT_EQ(intercept.src_ip, a.ip());
  EXPECT_EQ(intercept.dst_ip, b.ip());
  EXPECT_TRUE(intercept.forwarded);
  EXPECT_GT(spoofer.poison_rounds(), 0u);
}

TEST(ArpSpoof, RepoisoningWinsBackTheCache) {
  Lan lan;
  Host a(lan.net, mac_n(10), "a");
  Host b(lan.net, mac_n(11), "b");
  Host inspector(lan.net, mac_n(12), "inspector");
  a.set_static_ip(Ipv4Address(192, 168, 10, 21));
  b.set_static_ip(Ipv4Address(192, 168, 10, 22));
  inspector.set_static_ip(Ipv4Address(192, 168, 10, 23));

  ArpSpoofer spoofer(inspector);
  spoofer.add_victim({a.ip(), a.mac()});
  spoofer.add_victim({b.ip(), b.mac()});
  spoofer.start(SimTime::from_seconds(5));
  lan.settle(1);
  EXPECT_EQ(a.arp_lookup(b.ip()), inspector.mac());

  // b broadcasts a genuine ARP request; a momentarily re-learns the truth.
  b.arp_request(Ipv4Address(192, 168, 10, 99));
  lan.settle(1);
  EXPECT_EQ(a.arp_lookup(b.ip()), b.mac());

  // The next poison round reasserts the lie.
  lan.settle(6);
  EXPECT_EQ(a.arp_lookup(b.ip()), inspector.mac());
}

TEST(ArpSpoof, StopEndsPoisoning) {
  Lan lan;
  Host a(lan.net, mac_n(10), "a");
  Host inspector(lan.net, mac_n(12), "inspector");
  a.set_static_ip(Ipv4Address(192, 168, 10, 21));
  inspector.set_static_ip(Ipv4Address(192, 168, 10, 23));
  ArpSpoofer spoofer(inspector);
  spoofer.add_victim({a.ip(), a.mac()});
  spoofer.add_victim({Ipv4Address(192, 168, 10, 22), mac_n(11)});
  spoofer.start(SimTime::from_seconds(2));
  lan.settle(5);
  const std::size_t rounds = spoofer.poison_rounds();
  spoofer.stop();
  lan.settle(10);
  EXPECT_EQ(spoofer.poison_rounds(), rounds);
}

}  // namespace
}  // namespace roomnet
