// Tests for the simulation substrate: event loop, switch, host stacks
// (ARP, DHCP, UDP, TCP), mDNS and SSDP endpoints.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "proto/app.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/mdns.hpp"
#include "sim/network.hpp"
#include "sim/ssdp.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(0x02a000000000ull | n); }

struct Lan {
  EventLoop loop;
  Switch net{loop};
  Router router{net, mac_n(1), Ipv4Address(192, 168, 10, 1)};

  void settle(double seconds = 5.0) {
    loop.run_until(loop.now() + SimTime::from_seconds(seconds));
  }
};

// --------------------------------------------------------------- EventLoop

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::from_ms(30), [&] { order.push_back(3); });
  loop.schedule_at(SimTime::from_ms(10), [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ms(20), [&] { order.push_back(2); });
  loop.run_until(SimTime::from_ms(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime::from_ms(100));
}

TEST(EventLoop, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    loop.schedule_at(SimTime::from_ms(10), [&order, i] { order.push_back(i); });
  loop.run_until(SimTime::from_ms(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(SimTime::from_ms(50), [&] { ++fired; });
  loop.schedule_at(SimTime::from_ms(51), [&] { ++fired; });
  loop.run_until(SimTime::from_ms(50));
  EXPECT_EQ(fired, 1);  // inclusive of the boundary, exclusive beyond
  loop.run_until(SimTime::from_ms(60));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PeriodicFiresRepeatedlyUntilCancelled) {
  EventLoop loop;
  int count = 0;
  const auto handle = loop.schedule_periodic(
      SimTime::from_seconds(1), SimTime::from_seconds(2), [&] { ++count; });
  loop.run_until(SimTime::from_seconds(10));  // fires at 1,3,5,7,9
  EXPECT_EQ(count, 5);
  loop.cancel_periodic(handle);
  loop.run_until(SimTime::from_seconds(20));
  EXPECT_EQ(count, 5);
}

TEST(EventLoop, CancelledPeriodicBookkeepingIsCompacted) {
  // Regression: cancel_periodic used to accumulate cancelled handles forever;
  // the set must shrink back to empty once the dropped events are reached.
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    const auto handle = loop.schedule_periodic(
        SimTime::from_ms(1), SimTime::from_ms(5), [&] { ++fired; });
    loop.run_until(loop.now() + SimTime::from_ms(2));  // fires exactly once
    loop.cancel_periodic(handle);
  }
  EXPECT_EQ(fired, 100);
  // Steady state: entries are erased as the loop passes their drop points, so
  // only the last few cancellations are still tracked — not all 100.
  EXPECT_LE(loop.cancelled_pending(), 4u);
  loop.run_until(loop.now() + SimTime::from_seconds(1));
  EXPECT_EQ(fired, 100);                    // none fire after cancellation
  EXPECT_EQ(loop.cancelled_pending(), 0u);  // bookkeeping fully compacted
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, EventsScheduledDuringRunAreExecuted) {
  EventLoop loop;
  bool inner = false;
  loop.schedule_at(SimTime::from_ms(1), [&] {
    loop.schedule_in(SimTime::from_ms(1), [&] { inner = true; });
  });
  loop.run_until(SimTime::from_ms(10));
  EXPECT_TRUE(inner);
}

TEST(EventLoop, StaleCancelIsNoOp) {
  // A handle names a slot plus its generation: once the cancelled timer has
  // been reaped, cancelling the same handle again must neither leak
  // bookkeeping nor touch whichever timer reuses the slot.
  EventLoop loop;
  int stale_fired = 0;
  const auto stale = loop.schedule_periodic(
      SimTime::from_ms(1), SimTime::from_ms(5), [&] { ++stale_fired; });
  loop.cancel_periodic(stale);
  loop.run_until(SimTime::from_ms(10));  // past the drop point
  EXPECT_EQ(stale_fired, 0);
  EXPECT_EQ(loop.cancelled_pending(), 0u);
  loop.cancel_periodic(stale);
  EXPECT_EQ(loop.cancelled_pending(), 0u);

  int fresh_fired = 0;
  const auto fresh = loop.schedule_periodic(
      SimTime::from_ms(1), SimTime::from_ms(5), [&] { ++fresh_fired; });
  EXPECT_NE(fresh, stale);
  loop.cancel_periodic(stale);
  EXPECT_EQ(loop.cancelled_pending(), 0u);
  loop.run_until(SimTime::from_ms(30));  // fires at 11, 16, 21, 26
  EXPECT_EQ(fresh_fired, 4);
  loop.cancel_periodic(0);  // 0 means "no timer"
  EXPECT_EQ(loop.cancelled_pending(), 0u);
}

TEST(EventLoop, RejectsNonPositivePeriod) {
  // A zero period would re-arm at the same instant forever and livelock
  // run_until.
  EventLoop loop;
  EXPECT_THROW(loop.schedule_periodic(SimTime{}, SimTime{}, [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      loop.schedule_periodic(SimTime{}, SimTime::from_us(-1), [] {}),
      std::invalid_argument);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, ReservedSeqKeepsFifoOrder) {
  // An event scheduled later under a reserved, smaller seq fires first
  // among the events at its instant: where it would have, had it been
  // scheduled when the seq was reserved.
  EventLoop loop;
  std::vector<int> order;
  const std::uint64_t reserved = loop.reserve_seqs(1);
  loop.schedule_at(SimTime::from_ms(10), [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ms(10), [&] { order.push_back(2); });
  loop.schedule_at(SimTime::from_ms(10), reserved,
                   [&] { order.push_back(0); });
  loop.run_until(SimTime::from_ms(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------------------------ Switch

TEST(Switch, UnicastDeliversOnlyToTarget) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  Host c(lan.net, mac_n(4), "c");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  c.set_static_ip(Ipv4Address(192, 168, 10, 4));

  int b_count = 0, c_count = 0;
  b.packet_monitor = [&](Host&, const PacketView&) { ++b_count; };
  c.packet_monitor = [&](Host&, const PacketView&) { ++c_count; };

  // Prime ARP caches via a broadcast request/reply, then send unicast UDP.
  a.arp_request(b.ip());
  lan.settle(1);
  const int c_after_arp = c_count;  // c saw the broadcast request
  a.send_udp(b.ip(), 1234, 5678, bytes_of("hello"));
  lan.settle(1);
  EXPECT_GT(b_count, 0);
  EXPECT_EQ(c_count, c_after_arp);  // no unicast leakage to c
}

TEST(Switch, BroadcastFloodsToAll) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  Host c(lan.net, mac_n(4), "c");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  int b_arp = 0, c_arp = 0;
  b.packet_monitor = [&](Host&, const PacketView& p) { b_arp += p.arp.has_value(); };
  c.packet_monitor = [&](Host&, const PacketView& p) { c_arp += p.arp.has_value(); };
  a.arp_request(Ipv4Address(192, 168, 10, 99));
  lan.settle(1);
  EXPECT_EQ(b_arp, 1);
  EXPECT_EQ(c_arp, 1);
}

TEST(Switch, TapSeesEverything) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  int tapped = 0;
  lan.net.add_tap([&](SimTime, BytesView) { ++tapped; });
  a.arp_request(Ipv4Address(192, 168, 10, 50));
  a.send_udp(Ipv4Address(255, 255, 255, 255), 1, 2, bytes_of("x"));
  lan.settle(1);
  EXPECT_EQ(tapped, 2);
}

// --------------------------------------------------------------------- ARP

TEST(Arp, TargetedRequestAlwaysAnswered) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  b.responds_to_broadcast_arp = false;

  // Broadcast sweep: b stays silent.
  a.arp_request(b.ip());
  lan.settle(1);
  EXPECT_EQ(a.arp_lookup(b.ip()), std::nullopt);

  // Targeted request (sender already knows the MAC): b must answer.
  ArpPacket targeted;
  targeted.op = ArpOp::kRequest;
  targeted.sender_mac = a.mac();
  targeted.sender_ip = a.ip();
  targeted.target_mac = b.mac();
  targeted.target_ip = b.ip();
  const Bytes arp = encode_arp(targeted);
  EthernetFrame eth;
  eth.dst = b.mac();
  eth.src = a.mac();
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kArp);
  eth.payload = arp;
  a.send_frame(encode_ethernet(eth));
  lan.settle(1);
  EXPECT_EQ(a.arp_lookup(b.ip()), b.mac());
}

TEST(Arp, SubnetScanReachesAllHosts) {
  Lan lan;
  Host scanner(lan.net, mac_n(2), "scanner");
  scanner.set_static_ip(Ipv4Address(192, 168, 10, 2));
  Host victim(lan.net, mac_n(3), "victim");
  victim.set_static_ip(Ipv4Address(192, 168, 10, 200));
  scanner.arp_scan_subnet();
  lan.settle(10);
  EXPECT_EQ(scanner.arp_lookup(victim.ip()), victim.mac());
  // And the victim learned the scanner too (gratuitous cache insert).
  EXPECT_EQ(victim.arp_lookup(scanner.ip()), scanner.mac());
}

// -------------------------------------------------------------------- DHCP

TEST(Dhcp, ClientAcquiresLeaseAndExposesHostname) {
  Lan lan;
  Host dev(lan.net, mac_n(5), "ring-chime");
  bool acquired = false;
  dev.on_ip_acquired = [&](Host&) { acquired = true; };

  std::optional<std::string> seen_hostname;
  lan.net.add_tap([&](SimTime, BytesView frame) {
    const auto p = decode_frame_view(frame);
    if (!p || !p->udp || value(p->udp->dst_port) != kDhcpServerPort) return;
    const auto msg = decode_dhcp(BytesView(p->udp->payload));
    if (msg && msg->hostname()) seen_hostname = msg->hostname();
  });

  dev.start_dhcp("Ring-Chime-02a000000005", "udhcp 1.19", {1, 3, 6, 12});
  lan.settle(5);
  EXPECT_TRUE(acquired);
  EXPECT_TRUE(dev.has_ip());
  EXPECT_TRUE(dev.ip().in_subnet(Ipv4Address(192, 168, 10, 0), 24));
  ASSERT_TRUE(seen_hostname.has_value());
  EXPECT_EQ(*seen_hostname, "Ring-Chime-02a000000005");
  // The router recorded the lease.
  EXPECT_EQ(lan.router.leases().at(dev.mac()), dev.ip());
}

TEST(Dhcp, TwoClientsGetDistinctAddresses) {
  Lan lan;
  Host a(lan.net, mac_n(6), "a");
  Host b(lan.net, mac_n(7), "b");
  a.start_dhcp("a", "", {});
  b.start_dhcp("b", "", {});
  lan.settle(5);
  ASSERT_TRUE(a.has_ip());
  ASSERT_TRUE(b.has_ip());
  EXPECT_NE(a.ip(), b.ip());
}

// --------------------------------------------------------------------- UDP

TEST(Udp, HandlerReceivesDatagram) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  std::string got;
  b.open_udp(7777, [&](Host&, const PacketView&, const UdpDatagram& udp) {
    got = string_of(udp.payload);
  });
  a.send_udp(b.ip(), 1111, 7777, bytes_of("ping!"));
  lan.settle(2);
  EXPECT_EQ(got, "ping!");
}

TEST(Udp, MulticastReachesGroupListeners) {
  Lan lan;
  Host sender(lan.net, mac_n(2), "s");
  Host listener(lan.net, mac_n(3), "l");
  sender.set_static_ip(Ipv4Address(192, 168, 10, 2));
  listener.set_static_ip(Ipv4Address(192, 168, 10, 3));
  int got = 0;
  listener.open_udp(kSsdpPort,
                    [&](Host&, const PacketView&, const UdpDatagram&) { ++got; });
  sender.send_udp(kSsdpGroupV4, 5000, kSsdpPort, bytes_of("M-SEARCH..."));
  lan.settle(1);
  EXPECT_EQ(got, 1);
}

TEST(Udp, Ipv6LinkLocalDelivery) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  int got = 0;
  b.open_udp(kMdnsPort, [&](Host&, const PacketView& p, const UdpDatagram&) {
    got += p.ipv6.has_value();
  });
  a.send_udp_v6(Ipv6Address::mdns_group(), kMdnsPort, kMdnsPort, bytes_of("q"));
  lan.settle(1);
  EXPECT_EQ(got, 1);
}

// --------------------------------------------------------------------- TCP

TEST(Tcp, HandshakeDataAndClose) {
  Lan lan;
  Host client(lan.net, mac_n(2), "client");
  Host server(lan.net, mac_n(3), "server");
  client.set_static_ip(Ipv4Address(192, 168, 10, 2));
  server.set_static_ip(Ipv4Address(192, 168, 10, 3));

  std::string server_got, client_got;
  server.listen_tcp(8080, [&](Host&, TcpConnection& conn) {
    conn.on_data = [&](TcpConnection& c, BytesView data) {
      server_got = string_of(data);
      c.send(bytes_of("pong"));
      c.close();
    };
  });

  bool established = false, closed = false;
  auto& conn = client.connect_tcp(server.ip(), 8080);
  conn.on_established = [&](TcpConnection& c) {
    established = true;
    c.send(bytes_of("ping"));
  };
  conn.on_data = [&](TcpConnection&, BytesView data) { client_got = string_of(data); };
  conn.on_close = [&](TcpConnection&) { closed = true; };

  lan.settle(5);
  EXPECT_TRUE(established);
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
  EXPECT_TRUE(closed);
}

TEST(Tcp, ConnectionRefusedOnClosedPort) {
  Lan lan;
  Host client(lan.net, mac_n(2), "client");
  Host server(lan.net, mac_n(3), "server");
  client.set_static_ip(Ipv4Address(192, 168, 10, 2));
  server.set_static_ip(Ipv4Address(192, 168, 10, 3));
  bool refused = false;
  auto& conn = client.connect_tcp(server.ip(), 9999);
  conn.on_refused = [&] { refused = true; };
  lan.settle(2);
  EXPECT_TRUE(refused);
}

TEST(Tcp, SilentDropWhenRstDisabled) {
  Lan lan;
  Host client(lan.net, mac_n(2), "client");
  Host server(lan.net, mac_n(3), "server");
  client.set_static_ip(Ipv4Address(192, 168, 10, 2));
  server.set_static_ip(Ipv4Address(192, 168, 10, 3));
  server.rst_on_closed_tcp = false;
  bool refused = false, established = false;
  auto& conn = client.connect_tcp(server.ip(), 9999);
  conn.on_refused = [&] { refused = true; };
  conn.on_established = [&](TcpConnection&) { established = true; };
  lan.settle(2);
  EXPECT_FALSE(refused);
  EXPECT_FALSE(established);
}

TEST(Tcp, SynScanObservesSynAck) {
  // A raw SYN (no connection state) to an open port must elicit SYN-ACK.
  Lan lan;
  Host scanner(lan.net, mac_n(2), "scanner");
  Host target(lan.net, mac_n(3), "target");
  scanner.set_static_ip(Ipv4Address(192, 168, 10, 2));
  target.set_static_ip(Ipv4Address(192, 168, 10, 3));
  target.listen_tcp(80, [](Host&, TcpConnection&) {});

  bool got_synack = false, got_rst = false;
  scanner.packet_monitor = [&](Host&, const PacketView& p) {
    if (!p.tcp) return;
    if (p.tcp->flags.syn && p.tcp->flags.ack) got_synack = true;
    if (p.tcp->flags.rst) got_rst = true;
  };
  scanner.send_raw_tcp(target.ip(), 40000, 80, TcpFlags{.syn = true}, 1, 0);
  lan.settle(1);
  EXPECT_TRUE(got_synack);
  scanner.send_raw_tcp(target.ip(), 40001, 81, TcpFlags{.syn = true}, 1, 0);
  lan.settle(1);
  EXPECT_TRUE(got_rst);
}

TEST(Tcp, PingAndIpProtocolProbes) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  b.extra_ip_protocols = {47};  // GRE "supported"

  int echo_replies = 0, proto_unreachable = 0, proto_ok = 0;
  a.packet_monitor = [&](Host&, const PacketView& p) {
    if (!p.icmp) return;
    if (p.icmp->type == 0 && p.icmp->code == 0) {
      // Both echo replies and supported-protocol markers are type 0.
      ++echo_replies;
      ++proto_ok;
    }
    if (p.icmp->type == 3 && p.icmp->code == 2) ++proto_unreachable;
  };
  a.send_icmp_echo(b.ip());
  lan.settle(1);
  EXPECT_EQ(echo_replies, 1);

  a.send_raw_ip(b.ip(), 47, bytes_of("gre?"));
  a.send_raw_ip(b.ip(), 132, bytes_of("sctp?"));
  lan.settle(1);
  EXPECT_EQ(proto_unreachable, 1);
  EXPECT_GE(proto_ok, 2);
}

// -------------------------------------------------------------------- mDNS

TEST(Mdns, QueryGetsMulticastAnswerWithServiceRecords) {
  Lan lan;
  Host hue(lan.net, mac_n(2), "philips-hue");
  Host phone(lan.net, mac_n(3), "phone");
  hue.set_static_ip(Ipv4Address(192, 168, 10, 12));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));

  MdnsEndpoint hue_mdns(hue);
  hue_mdns.set_hostname("Philips-hue.local");
  hue_mdns.add_service({.instance = "Philips Hue - 685F61",
                        .service_type = "_hue._tcp.local",
                        .port = 443,
                        .txt = {"bridgeid=001788fffe685f61"}});

  MdnsEndpoint phone_mdns(phone);
  std::optional<DnsMessage> answer;
  phone_mdns.on_message = [&](const PacketView&, const DnsMessage& msg) {
    if (msg.is_response) answer = msg;
  };
  phone_mdns.query("_hue._tcp.local");
  lan.settle(3);
  ASSERT_TRUE(answer.has_value());
  ASSERT_FALSE(answer->answers.empty());
  const auto ptr = answer->answers[0].ptr();
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->labels[0], "Philips Hue - 685F61");
  // SRV target resolves to the A record in additionals.
  ASSERT_FALSE(answer->additional.empty());
  EXPECT_EQ(answer->additional[0].a(), hue.ip());
}

TEST(Mdns, NonMatchingServiceTypeIgnored) {
  Lan lan;
  Host hue(lan.net, mac_n(2), "hue");
  Host phone(lan.net, mac_n(3), "phone");
  hue.set_static_ip(Ipv4Address(192, 168, 10, 12));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  MdnsEndpoint hue_mdns(hue);
  hue_mdns.add_service({.instance = "X", .service_type = "_hue._tcp.local"});
  MdnsEndpoint phone_mdns(phone);
  int responses = 0;
  phone_mdns.on_message = [&](const PacketView&, const DnsMessage& msg) {
    responses += msg.is_response;
  };
  phone_mdns.query("_airplay._tcp.local");
  lan.settle(3);
  EXPECT_EQ(responses, 0);
}

TEST(Mdns, UnicastResponsePolicy) {
  Lan lan;
  Host dev(lan.net, mac_n(2), "dev");
  Host phone(lan.net, mac_n(3), "phone");
  Host bystander(lan.net, mac_n(4), "bystander");
  dev.set_static_ip(Ipv4Address(192, 168, 10, 12));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  bystander.set_static_ip(Ipv4Address(192, 168, 10, 60));

  MdnsEndpoint dev_mdns(dev);
  dev_mdns.answer_multicast = false;
  dev_mdns.answer_unicast = true;
  dev_mdns.add_service({.instance = "Dev", .service_type = "_x._tcp.local"});

  MdnsEndpoint phone_mdns(phone);
  MdnsEndpoint bystander_mdns(bystander);
  int phone_responses = 0, bystander_responses = 0;
  phone_mdns.on_message = [&](const PacketView&, const DnsMessage& m) {
    phone_responses += m.is_response;
  };
  bystander_mdns.on_message = [&](const PacketView&, const DnsMessage& m) {
    bystander_responses += m.is_response;
  };
  phone_mdns.query("_x._tcp.local", /*unicast_response=*/true);
  lan.settle(3);
  EXPECT_EQ(phone_responses, 1);
  EXPECT_EQ(bystander_responses, 0);  // unicast reply bypassed the group
}

// -------------------------------------------------------------------- SSDP

TEST(Ssdp, MSearchAnsweredWhenPolicyAllows) {
  Lan lan;
  Host tv(lan.net, mac_n(2), "roku-tv");
  Host phone(lan.net, mac_n(3), "phone");
  tv.set_static_ip(Ipv4Address(192, 168, 10, 30));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));

  SsdpEndpoint tv_ssdp(tv);
  tv_ssdp.respond_to_msearch = true;
  UpnpDeviceDescription desc;
  desc.friendly_name = "Roku 3 - Jane's Room";
  desc.udn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000002";
  tv_ssdp.set_description(desc);

  SsdpEndpoint phone_ssdp(phone);
  std::optional<SsdpMessage> response;
  phone_ssdp.on_message = [&](const PacketView&, const SsdpMessage& m) {
    if (m.kind == SsdpKind::kResponse) response = m;
  };
  phone_ssdp.msearch("ssdp:all");
  lan.settle(3);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->usn.find("uuid:296f0ed3"), std::string::npos);
  EXPECT_NE(response->location.find("192.168.10.30"), std::string::npos);
}

TEST(Ssdp, SilentWhenPolicyForbids) {
  Lan lan;
  Host dev(lan.net, mac_n(2), "echo");
  Host phone(lan.net, mac_n(3), "phone");
  dev.set_static_ip(Ipv4Address(192, 168, 10, 30));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  SsdpEndpoint dev_ssdp(dev);  // respond_to_msearch defaults to false
  SsdpEndpoint phone_ssdp(phone);
  int responses = 0;
  phone_ssdp.on_message = [&](const PacketView&, const SsdpMessage& m) {
    responses += m.kind == SsdpKind::kResponse;
  };
  phone_ssdp.msearch("ssdp:all");
  lan.settle(3);
  EXPECT_EQ(responses, 0);
}

TEST(Ssdp, DescriptionXmlServedOverHttp) {
  Lan lan;
  Host tv(lan.net, mac_n(2), "tv");
  Host phone(lan.net, mac_n(3), "phone");
  tv.set_static_ip(Ipv4Address(192, 168, 10, 30));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  SsdpEndpoint tv_ssdp(tv);
  UpnpDeviceDescription desc;
  desc.friendly_name = "FireTV-Living";
  desc.serial_number = tv.mac().to_string();
  desc.udn = "uuid:deadbeef-0000-1000-8000-02a000000002";
  tv_ssdp.set_description(desc, 49152);

  std::string fetched;
  auto& conn = phone.connect_tcp(tv.ip(), 49152);
  conn.on_established = [](TcpConnection& c) {
    HttpRequest req;
    req.target = "/description.xml";
    c.send(encode_http_request(req));
  };
  conn.on_data = [&](TcpConnection&, BytesView data) {
    const auto res = decode_http_response(data);
    if (res) fetched = string_of(BytesView(res->body));
  };
  lan.settle(5);
  const auto parsed = UpnpDeviceDescription::from_xml(fetched);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->friendly_name, "FireTV-Living");
  EXPECT_EQ(parsed->serial_number, tv.mac().to_string());
}

TEST(Ssdp, NotifyAliveCarriesUsnAndLocation) {
  Lan lan;
  Host dev(lan.net, mac_n(2), "dev");
  Host listener(lan.net, mac_n(3), "listener");
  dev.set_static_ip(Ipv4Address(192, 168, 10, 30));
  listener.set_static_ip(Ipv4Address(192, 168, 10, 50));
  SsdpEndpoint dev_ssdp(dev);
  UpnpDeviceDescription desc;
  desc.udn = "uuid:11111111-2222-3333-4444-555555555555";
  dev_ssdp.set_description(desc);
  SsdpEndpoint listener_ssdp(listener);
  std::optional<SsdpMessage> seen;
  listener_ssdp.on_message = [&](const PacketView&, const SsdpMessage& m) {
    if (m.kind == SsdpKind::kNotify) seen = m;
  };
  dev_ssdp.notify_alive();
  lan.settle(2);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->nts, "ssdp:alive");
  EXPECT_NE(seen->usn.find(desc.udn), std::string::npos);
}

// ------------------------------------------------------- app-layer memo

/// Process-wide app-layer decode counts: {dns, ssdp, dhcp}.
std::array<std::uint64_t, 3> decode_counts() {
  std::array<std::uint64_t, 3> counts{};
  const char* protos[] = {"dns", "ssdp", "dhcp"};
  auto& registry = telemetry::Registry::global();
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = registry
                    .counter("roomnet_proto_decodes_total",
                             {{"proto", protos[i]}})
                    .value();
  return counts;
}

/// Three hosts on the LAN, each with an mDNS endpoint.
struct MdnsListeners {
  explicit MdnsListeners(Lan& lan) {
    for (std::uint64_t n = 3; n < 6; ++n) {
      hosts.push_back(std::make_unique<Host>(lan.net, mac_n(n), "listener"));
      hosts.back()->set_static_ip(Ipv4Address(192, 168, 10, 50 + n));
      endpoints.push_back(std::make_unique<MdnsEndpoint>(*hosts.back()));
    }
  }
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<MdnsEndpoint>> endpoints;
};

TEST(AppLayerMemo, MulticastAnnounceDecodedOnceForEveryReceiver) {
  Lan lan;
  Host hue(lan.net, mac_n(2), "hue");
  hue.set_static_ip(Ipv4Address(192, 168, 10, 12));
  MdnsEndpoint hue_mdns(hue);
  hue_mdns.add_service({.instance = "Hue", .service_type = "_hue._tcp.local"});
  MdnsListeners listeners(lan);
  std::vector<const DnsMessage*> seen;
  for (auto& endpoint : listeners.endpoints)
    endpoint->on_message = [&](const PacketView&, const DnsMessage& m) {
      seen.push_back(&m);
    };
  const DnsMessage* tapped = nullptr;
  lan.net.add_packet_tap([&](SimTime, const PacketView& packet, BytesView) {
    if (packet.udp && value(packet.udp->dst_port) == kMdnsPort)
      tapped = dns_of(packet);
  });

  const auto before = decode_counts();
  hue_mdns.announce();
  lan.settle(1);
  EXPECT_EQ(decode_counts()[0] - before[0], 1u);
  ASSERT_EQ(seen.size(), 3u);
  // One decoded object, shared by the tap and every receiver.
  EXPECT_NE(tapped, nullptr);
  for (const DnsMessage* m : seen) EXPECT_EQ(m, tapped);
}

TEST(AppLayerMemo, UndecodablePayloadDecodedOnceHoweverManyConsumersAsk) {
  Lan lan;
  Host sender(lan.net, mac_n(2), "sender");
  sender.set_static_ip(Ipv4Address(192, 168, 10, 12));
  const MdnsListeners listeners(lan);
  int asked = 0;
  const auto ask_all = [&](SimTime, const PacketView& packet, BytesView) {
    if (!packet.udp) return;  // address announcements, group joins
    EXPECT_EQ(dns_of(packet), nullptr);
    EXPECT_EQ(ssdp_of(packet), nullptr);
    EXPECT_EQ(dhcp_of(packet), nullptr);
    ++asked;
  };
  lan.net.add_packet_tap(ask_all);
  lan.net.add_packet_tap(ask_all);

  const auto before = decode_counts();
  // Not DNS, SSDP or DHCP, sent where three mDNS endpoints listen.
  sender.send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, bytes_of("not dns"));
  lan.settle(1);
  EXPECT_EQ(asked, 2);
  const auto after = decode_counts();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i] - before[i], 1u) << i;
}

TEST(AppLayerMemo, ArpTrafficMovesNoDecodeCounter) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  Host b(lan.net, mac_n(3), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 12));
  b.set_static_ip(Ipv4Address(192, 168, 10, 13));
  int frames = 0;
  lan.net.add_packet_tap([&](SimTime, const PacketView& packet, BytesView) {
    EXPECT_TRUE(packet.arp.has_value());
    EXPECT_EQ(dns_of(packet), nullptr);
    EXPECT_EQ(ssdp_of(packet), nullptr);
    EXPECT_EQ(dhcp_of(packet), nullptr);
    ++frames;
  });

  const auto before = decode_counts();
  ArpPacket request;
  request.sender_mac = a.mac();
  request.sender_ip = a.ip();
  request.target_ip = b.ip();
  const Bytes body = encode_arp(request);
  EthernetFrame eth;
  eth.src = a.mac();
  eth.dst = MacAddress::kBroadcast;
  eth.ethertype = static_cast<std::uint16_t>(EtherType::kArp);
  eth.payload = body;
  a.send_frame(encode_ethernet(eth));
  lan.settle(1);
  EXPECT_GE(frames, 2);  // the request and b's reply
  EXPECT_EQ(decode_counts(), before);
}

}  // namespace
}  // namespace roomnet
