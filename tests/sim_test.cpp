// Tests for the simulation substrate: event loop, switch, host stacks
// (ARP, DHCP, UDP, TCP), mDNS and SSDP endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ROOMNET_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ROOMNET_TEST_ASAN 1
#endif
#endif
#if ROOMNET_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "netcore/rng.hpp"
#include "proto/app.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/mdns.hpp"
#include "sim/network.hpp"
#include "sim/ssdp.hpp"
#include "reference_encoders.hpp"
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

// -------------------------------------------------------------- Frame path
//
// Every Host send path writes its whole frame into one switch buffer. The
// frame on the wire must equal the layered encode_* composition byte for
// byte.

Bytes eth_frame(MacAddress dst, MacAddress src, std::uint16_t ethertype,
                BytesView payload) {
  return encode_ethernet(EthernetFrame{
      .dst = dst, .src = src, .ethertype = ethertype, .payload = payload});
}

Bytes ipv4_frame(MacAddress dst_mac, MacAddress src_mac, Ipv4Address src,
                 Ipv4Address dst, std::uint8_t protocol, BytesView payload,
                 std::uint8_t ttl = 64) {
  const Bytes datagram = encode_ipv4(Ipv4Packet{.src = src,
                                                .dst = dst,
                                                .protocol = protocol,
                                                .ttl = ttl,
                                                .payload = payload});
  return eth_frame(dst_mac, src_mac,
                   static_cast<std::uint16_t>(EtherType::kIpv4), datagram);
}

Bytes ipv6_frame(MacAddress dst_mac, MacAddress src_mac, const Ipv6Address& src,
                 const Ipv6Address& dst, std::uint8_t next_header,
                 BytesView payload) {
  const Bytes datagram = encode_ipv6(Ipv6Packet{
      .src = src, .dst = dst, .next_header = next_header, .payload = payload});
  return eth_frame(dst_mac, src_mac,
                   static_cast<std::uint16_t>(EtherType::kIpv6), datagram);
}

constexpr auto kUdp = static_cast<std::uint8_t>(IpProto::kUdp);
constexpr auto kTcp = static_cast<std::uint8_t>(IpProto::kTcp);
constexpr auto kIcmp = static_cast<std::uint8_t>(IpProto::kIcmp);

/// Two hosts that know each other's MACs, and a copy of every frame the
/// switch carries, in transmit order.
struct WireLan : Lan {
  Host a{net, mac_n(2), "a"};
  Host b{net, mac_n(3), "b"};
  std::vector<Bytes> wire;

  WireLan() {
    a.set_static_ip(Ipv4Address(192, 168, 10, 2));
    b.set_static_ip(Ipv4Address(192, 168, 10, 3));
    a.add_arp_entry(b.ip(), b.mac());
    b.add_arp_entry(a.ip(), a.mac());
    net.add_tap([this](SimTime, BytesView frame) {
      wire.emplace_back(frame.begin(), frame.end());
    });
  }
};

TEST(FramePath, UdpAndPortUnreachableMatchLayeredEncoding) {
  WireLan lan;
  const Bytes payload = bytes_of("probe payload");
  lan.a.send_udp(lan.b.ip(), 40000, 9, payload);
  lan.settle(1);
  ASSERT_EQ(lan.wire.size(), 2u);
  const Bytes udp = encode_udp_v4(UdpDatagram{port(40000), port(9), payload},
                                  lan.a.ip(), lan.b.ip());
  EXPECT_EQ(lan.wire[0], ipv4_frame(lan.b.mac(), lan.a.mac(), lan.a.ip(),
                                    lan.b.ip(), kUdp, udp));
  // The quote: the datagram's IPv4 header and the first 8 bytes after it.
  const Bytes original = encode_ipv4(Ipv4Packet{
      .src = lan.a.ip(), .dst = lan.b.ip(), .protocol = kUdp, .payload = udp});
  const Bytes unreachable = encode_icmp(IcmpMessage{
      .type = 3, .code = 3, .body = BytesView(original).first(28)});
  EXPECT_EQ(lan.wire[1], ipv4_frame(lan.a.mac(), lan.b.mac(), lan.b.ip(),
                                    lan.a.ip(), kIcmp, unreachable));
}

TEST(FramePath, RawTcpAndResetMatchLayeredEncoding) {
  WireLan lan;
  lan.a.send_raw_tcp(lan.b.ip(), 40000, 81, TcpFlags{.syn = true}, 7, 0);
  lan.settle(1);
  ASSERT_EQ(lan.wire.size(), 2u);
  const Bytes syn = encode_tcp_v4(TcpSegment{.src_port = port(40000),
                                             .dst_port = port(81),
                                             .seq = 7,
                                             .flags = TcpFlags{.syn = true}},
                                  lan.a.ip(), lan.b.ip());
  EXPECT_EQ(lan.wire[0], ipv4_frame(lan.b.mac(), lan.a.mac(), lan.a.ip(),
                                    lan.b.ip(), kTcp, syn));
  const Bytes rst =
      encode_tcp_v4(TcpSegment{.src_port = port(81),
                               .dst_port = port(40000),
                               .ack = 8,
                               .flags = TcpFlags{.rst = true, .ack = true}},
                    lan.b.ip(), lan.a.ip());
  EXPECT_EQ(lan.wire[1], ipv4_frame(lan.a.mac(), lan.b.mac(), lan.b.ip(),
                                    lan.a.ip(), kTcp, rst));
}

TEST(FramePath, ConnectionSegmentsMatchLayeredEncoding) {
  WireLan lan;
  lan.b.listen_tcp(80, [](Host&, TcpConnection& conn) {
    conn.on_data = [](TcpConnection& c, BytesView) {
      c.send(bytes_of("HTTP/1.1 200 OK\r\n\r\n"));
      c.close();
    };
  });
  TcpConnection& conn = lan.a.connect_tcp(lan.b.ip(), 80);
  conn.on_established = [](TcpConnection& c) {
    c.send(bytes_of("GET / HTTP/1.1\r\n\r\n"));
  };
  lan.settle(2);
  // SYN, SYN-ACK, ACK, request, response, FIN, FIN, final ACK.
  ASSERT_GE(lan.wire.size(), 6u);
  std::size_t with_payload = 0;
  for (const Bytes& frame : lan.wire) {
    const auto view = decode_frame_view(frame);
    ASSERT_TRUE(view && view->ipv4 && view->tcp);
    const Bytes segment = encode_tcp_v4(*view->tcp, view->ipv4->src,
                                        view->ipv4->dst);
    EXPECT_EQ(frame, ipv4_frame(view->eth.dst, view->eth.src,
                                view->ipv4->src, view->ipv4->dst, kTcp,
                                segment));
    with_payload += view->tcp->payload.empty() ? 0 : 1;
  }
  EXPECT_EQ(with_payload, 2u);
}

TEST(FramePath, IcmpFramesMatchLayeredEncoding) {
  WireLan lan;
  lan.b.extra_ip_protocols = {47};
  lan.a.send_icmp_echo(lan.b.ip());
  lan.a.send_raw_ip(lan.b.ip(), 132, bytes_of("sctp?"));
  lan.a.send_raw_ip(lan.b.ip(), 47, bytes_of("gre?"));
  lan.settle(1);
  ASSERT_EQ(lan.wire.size(), 6u);
  const auto id = static_cast<std::uint16_t>(lan.a.mac().to_u64());
  const Bytes echo_body = {static_cast<std::uint8_t>(id >> 8),
                           static_cast<std::uint8_t>(id), 0, 1};
  const Bytes echo = encode_icmp(IcmpMessage{.type = 8, .body = echo_body});
  const Bytes reply = encode_icmp(IcmpMessage{.type = 0, .body = echo_body});
  const Bytes unreachable = encode_icmp(IcmpMessage{.type = 3, .code = 2});
  const Bytes supported = encode_icmp(IcmpMessage{.type = 0});
  const MacAddress am = lan.a.mac(), bm = lan.b.mac();
  const Ipv4Address ai = lan.a.ip(), bi = lan.b.ip();
  EXPECT_EQ(lan.wire[0], ipv4_frame(bm, am, ai, bi, kIcmp, echo));
  EXPECT_EQ(lan.wire[1], ipv4_frame(bm, am, ai, bi, 132, bytes_of("sctp?")));
  EXPECT_EQ(lan.wire[2], ipv4_frame(bm, am, ai, bi, 47, bytes_of("gre?")));
  EXPECT_EQ(lan.wire[3], ipv4_frame(am, bm, bi, ai, kIcmp, reply));
  EXPECT_EQ(lan.wire[4], ipv4_frame(am, bm, bi, ai, kIcmp, unreachable));
  EXPECT_EQ(lan.wire[5], ipv4_frame(am, bm, bi, ai, kIcmp, supported));
}

TEST(FramePath, LinkLayerFramesMatchLayeredEncoding) {
  WireLan lan;
  const Ipv4Address group(239, 255, 255, 250);
  Rng rng(7);
  Rng replay(7);
  lan.a.arp_request(lan.b.ip());
  lan.a.join_multicast_group(group);
  lan.a.send_eapol_key(rng);
  lan.a.send_llc_xid_broadcast();
  lan.settle(1);
  ASSERT_EQ(lan.wire.size(), 5u);
  const MacAddress am = lan.a.mac(), bm = lan.b.mac();
  const auto arp = static_cast<std::uint16_t>(EtherType::kArp);
  EXPECT_EQ(lan.wire[0],
            eth_frame(MacAddress::kBroadcast, am, arp,
                      encode_arp(ArpPacket{.op = ArpOp::kRequest,
                                           .sender_mac = am,
                                           .sender_ip = lan.a.ip(),
                                           .target_ip = lan.b.ip()})));
  const Bytes report = encode_igmp(IgmpMessage{.type = 0x16, .group = group});
  EXPECT_EQ(lan.wire[1], ipv4_frame(multicast_mac_v4(group), am, lan.a.ip(),
                                    group, 2, report, /*ttl=*/1));
  const Bytes key = replay.bytes(95);
  EXPECT_EQ(lan.wire[2],
            eth_frame(MacAddress::kBroadcast, am,
                      static_cast<std::uint16_t>(EtherType::kEapol),
                      encode_eapol(EapolFrame{.type = EapolType::kKey,
                                              .body = key})));
  static constexpr std::uint8_t kXidInfo[] = {0x81, 0x01, 0x00};
  const Bytes llc = encode_llc_xid(
      LlcXidFrame{.dsap = 0, .ssap = 1, .is_xid = true, .info = kXidInfo});
  EXPECT_EQ(lan.wire[3],
            eth_frame(MacAddress::kBroadcast, am,
                      static_cast<std::uint16_t>(llc.size()), llc));
  EXPECT_EQ(lan.wire[4],
            eth_frame(am, bm, arp,
                      encode_arp(ArpPacket{.op = ArpOp::kReply,
                                           .sender_mac = bm,
                                           .sender_ip = lan.b.ip(),
                                           .target_mac = am,
                                           .target_ip = lan.a.ip()})));
}

TEST(FramePath, Ipv6FramesMatchLayeredEncoding) {
  WireLan lan;
  const Ipv6Address group = Ipv6Address::mdns_group();
  const Ipv6Address al = lan.a.link_local(), bl = lan.b.link_local();
  lan.a.send_udp_v6(group, kMdnsPort, kMdnsPort, bytes_of("q"));
  lan.a.send_neighbor_solicitation(bl);
  lan.settle(1);
  ASSERT_EQ(lan.wire.size(), 3u);
  const Bytes udp = encode_udp_v6(
      UdpDatagram{port(kMdnsPort), port(kMdnsPort), bytes_of("q")}, al, group);
  EXPECT_EQ(lan.wire[0], ipv6_frame(multicast_mac_v6(group), lan.a.mac(), al,
                                    group, kUdp, udp));
  const Ipv6Address solicited = Ipv6Address::solicited_node(bl);
  Icmpv6Message ns;
  ns.type = Icmpv6Type::kNeighborSolicitation;
  ns.target = bl;
  ns.link_layer_option = lan.a.mac();
  const auto icmpv6 = static_cast<std::uint8_t>(IpProto::kIcmpv6);
  EXPECT_EQ(lan.wire[1],
            ipv6_frame(multicast_mac_v6(solicited), lan.a.mac(), al, solicited,
                       icmpv6, encode_icmpv6(ns, al, solicited)));
  Icmpv6Message na;
  na.type = Icmpv6Type::kNeighborAdvertisement;
  na.target = bl;
  na.link_layer_option = lan.b.mac();
  EXPECT_EQ(lan.wire[2], ipv6_frame(lan.a.mac(), lan.b.mac(), bl, al, icmpv6,
                                    encode_icmpv6(na, bl, al)));
}

TEST(FramePath, ArpPendingFrameWaitsWholeAndLeavesAfterTheReply) {
  WireLan lan;
  Host c(lan.net, mac_n(4), "c");
  c.set_static_ip(Ipv4Address(192, 168, 10, 4));
  c.open_udp(7000, [](Host&, const PacketView&, const UdpDatagram&) {});
  const Bytes payload = bytes_of("queued until resolved");
  lan.a.send_udp(c.ip(), 6000, 7000, payload);
  lan.settle(1);
  // The request, c's reply, then the held frame with c's MAC patched in.
  ASSERT_EQ(lan.wire.size(), 3u);
  const auto arp = decode_frame_view(lan.wire[0]);
  ASSERT_TRUE(arp && arp->arp);
  EXPECT_EQ(arp->arp->op, ArpOp::kRequest);
  const auto reply = decode_frame_view(lan.wire[1]);
  ASSERT_TRUE(reply && reply->arp);
  EXPECT_EQ(reply->arp->op, ArpOp::kReply);
  const Bytes udp = encode_udp_v4(UdpDatagram{port(6000), port(7000), payload},
                                  lan.a.ip(), c.ip());
  EXPECT_EQ(lan.wire[2],
            ipv4_frame(c.mac(), lan.a.mac(), lan.a.ip(), c.ip(), kUdp, udp));
}

/// A bare switch port that keeps a copy of every frame delivered to it and
/// can run a hook inside the delivery.
class Recorder : public NetworkNode {
 public:
  explicit Recorder(Switch& net, MacAddress mac) : mac_(mac) { net.attach(*this); }
  [[nodiscard]] MacAddress mac() const override { return mac_; }
  void receive(const PacketView&, BytesView raw) override {
    frames.emplace_back(raw.begin(), raw.end());
    views.push_back(raw);
    if (on_receive) on_receive(raw);
  }
  std::vector<Bytes> frames;
  std::vector<BytesView> views;  // kept past delivery on purpose
  std::function<void(BytesView)> on_receive;

 private:
  MacAddress mac_;
};

TEST(FramePath, FaultedFramesReachTapsAndReceiversAsMutated) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  Recorder rec(lan.net, mac_n(9));
  const std::vector<Switch::FrameFate> fates = {
      {.copies = 2}, {.truncate_to = 30}, {.corrupt_at = 20, .corrupt_mask = 0xff}};
  std::size_t n = 0;
  lan.net.set_fault_hook([&](std::size_t) {
    return n < fates.size() ? fates[n++] : Switch::FrameFate{};
  });
  std::vector<Bytes> tapped;
  std::vector<Bytes> delivered;
  lan.net.add_tap([&](SimTime, BytesView f) { tapped.emplace_back(f.begin(), f.end()); });
  lan.net.add_packet_tap([&](SimTime, const PacketView&, BytesView f) {
    delivered.emplace_back(f.begin(), f.end());
  });
  const Ipv4Address bcast(255, 255, 255, 255);
  std::vector<Bytes> sent;
  for (const char* text : {"duplicated", "truncated", "corrupted"}) {
    a.send_udp(bcast, 1000, 2000, bytes_of(text));
    const Bytes udp = encode_udp_v4(
        UdpDatagram{port(1000), port(2000), bytes_of(text)}, a.ip(), bcast);
    sent.push_back(
        ipv4_frame(MacAddress::kBroadcast, a.mac(), a.ip(), bcast, kUdp, udp));
  }
  lan.settle(1);
  Bytes truncated(sent[1].begin(), sent[1].begin() + 30);
  Bytes corrupted = sent[2];
  corrupted[20] ^= 0xff;
  const std::vector<Bytes> on_air = {sent[0], truncated, corrupted};
  EXPECT_EQ(tapped, on_air);
  const std::vector<Bytes> at_receivers = {sent[0], sent[0], truncated, corrupted};
  EXPECT_EQ(delivered, at_receivers);
  EXPECT_EQ(rec.frames, at_receivers);
}

TEST(FramePath, DuplicatedFrameBufferIsRecycledOnlyAfterItsSecondDelivery) {
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  Recorder rec(lan.net, mac_n(9));
  bool duplicate_next = true;
  lan.net.set_fault_hook([&](std::size_t) {
    Switch::FrameFate fate;
    if (duplicate_next) fate.copies = 2;
    duplicate_next = false;
    return fate;
  });
  std::vector<const std::uint8_t*> buffers;
  lan.net.add_tap([&](SimTime, BytesView f) { buffers.push_back(f.data()); });
  // Inside the first delivery the receiver sends a frame of its own: its
  // buffer must not be the one still waiting for the second delivery.
  rec.on_receive = [&](BytesView) {
    if (rec.frames.size() != 1) return;
    Bytes frame = lan.net.frame_buffer();
    frame.assign(64, 0);
    std::fill(frame.begin(), frame.begin() + 6, 0xff);  // broadcast
    lan.net.transmit(std::move(frame), &rec);
  };
  a.send_udp(Ipv4Address(255, 255, 255, 255), 1000, 2000, bytes_of("twice"));
  lan.settle(1);
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_NE(buffers[1], buffers[0]);
  ASSERT_EQ(rec.frames.size(), 2u);
  EXPECT_EQ(rec.frames[1], rec.frames[0]);  // the second copy is intact
  // Once both deliveries are done, both buffers are back in the pool.
  const std::set<const std::uint8_t*> pooled = {buffers[0], buffers[1]};
  Bytes first = lan.net.frame_buffer();
  Bytes second = lan.net.frame_buffer();
  EXPECT_EQ((std::set<const std::uint8_t*>{first.data(), second.data()}), pooled);
}

TEST(FramePath, ViewKeptPastDeliveryPointsAtARecycledBuffer) {
  // The contract on NetworkNode::receive: a view dies with its delivery.
  // The buffer behind it goes back to the pool; under AddressSanitizer it
  // is poisoned there, so a receiver that reads a kept view fails the
  // sanitizer run instead of reading the next frame.
  Lan lan;
  Host a(lan.net, mac_n(2), "a");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  Recorder rec(lan.net, mac_n(9));
  a.send_udp(Ipv4Address(255, 255, 255, 255), 1000, 2000, bytes_of("once"));
  lan.settle(1);
  ASSERT_EQ(rec.views.size(), 1u);
  const std::uint8_t* kept = rec.views[0].data();
#if ROOMNET_TEST_ASAN
  EXPECT_TRUE(__asan_address_is_poisoned(kept));
#endif
  const Bytes next = lan.net.frame_buffer();
  EXPECT_EQ(next.data(), kept);
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
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
    if (msg.is_response) answer = msg.to_message();
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
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
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
  phone_mdns.on_message = [&](const PacketView&, const DnsView& m) {
    phone_responses += m.is_response;
  };
  bystander_mdns.on_message = [&](const PacketView&, const DnsView& m) {
    bystander_responses += m.is_response;
  };
  phone_mdns.query("_x._tcp.local", /*unicast_response=*/true);
  lan.settle(3);
  EXPECT_EQ(phone_responses, 1);
  EXPECT_EQ(bystander_responses, 0);  // unicast reply bypassed the group
}

/// Copies into `out` every UDP payload `from` sends.
void record_udp_payloads(Lan& lan, const Host& from, std::vector<Bytes>& out) {
  lan.net.add_packet_tap(
      [&out, &from](SimTime, const PacketView& packet, BytesView) {
        if (!packet.udp || packet.eth.src != from.mac()) return;
        const BytesView payload = packet.app_payload();
        out.emplace_back(payload.begin(), payload.end());
      });
}

TEST(Mdns, EncodedAnswersMatchPerQueryBuildAcrossAddressStates) {
  // The endpoint encodes each service's answer once per address state and
  // hostname; what it sends must be what building and encoding the answer
  // for every query produced.
  Lan lan;
  Host hue(lan.net, mac_n(2), "hue");
  Host phone(lan.net, mac_n(3), "phone");
  hue.set_static_ip(Ipv4Address(192, 168, 10, 12));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  MdnsEndpoint hue_mdns(hue);
  hue_mdns.answer_unicast = true;  // a full stack: answers the meta-query too
  const reference::AnswerService bridge{"Philips Hue - 685F61", "_hue._tcp.local",
                                        443, {"bridgeid=001788fffe685f61"}};
  const reference::AnswerService hap{"Hue Bridge", "_hap._tcp.local", 8080, {}};
  for (const auto& s : {bridge, hap})
    hue_mdns.add_service({s.instance, s.service_type, s.port, s.txt});
  std::vector<Bytes> sent;
  record_udp_payloads(lan, hue, sent);
  const auto expected = [&](const reference::AnswerService& service,
                            const std::string& hostname) {
    return to_hex(reference::encode_dns(reference::build_answer(
        service, hostname, hue.ip(),
        hue.ipv6_enabled() ? std::optional(hue.link_local()) : std::nullopt)));
  };
  MdnsEndpoint phone_mdns(phone);
  const auto ask = [&](const std::string& type) {
    sent.clear();
    phone_mdns.query(type);
    lan.settle(3);
    std::vector<std::string> hex;
    for (const Bytes& b : sent) hex.push_back(to_hex(b));
    return hex;
  };

  EXPECT_EQ(ask("_services._dns-sd._udp.local"),
            (std::vector{expected(bridge, "hue.local"), expected(hap, "hue.local")}));
  hue_mdns.set_hostname("Philips-hue.local");
  EXPECT_EQ(ask("_hap._tcp.local"), std::vector{expected(hap, "Philips-hue.local")});
  hue.enable_ipv6(false);
  EXPECT_EQ(ask("_hue._tcp.local"), std::vector{expected(bridge, "Philips-hue.local")});
  hue.set_static_ip(Ipv4Address(192, 168, 10, 99));
  EXPECT_EQ(ask("_hue._tcp.local"), std::vector{expected(bridge, "Philips-hue.local")});
  hue_mdns.add_service({"Late", "_late._tcp.local", 1, {"a=b"}});
  EXPECT_EQ(ask("_late._tcp.local"),
            std::vector{expected({"Late", "_late._tcp.local", 1, {"a=b"}},
                                 "Philips-hue.local")});
}

TEST(Mdns, QueryNamesMatchCaseInsensitively) {
  // RFC 6762 §16: mDNS names compare case-insensitively.
  Lan lan;
  Host hue(lan.net, mac_n(2), "hue");
  Host phone(lan.net, mac_n(3), "phone");
  hue.set_static_ip(Ipv4Address(192, 168, 10, 12));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  MdnsEndpoint hue_mdns(hue);
  hue_mdns.add_service({.instance = "Hue", .service_type = "_hue._tcp.local"});
  MdnsEndpoint phone_mdns(phone);
  int responses = 0;
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
    responses += msg.is_response;
  };
  phone_mdns.query("_HUE._Tcp.LOCAL");
  lan.settle(3);
  EXPECT_EQ(responses, 1);
  phone_mdns.query("_hue._tcp.local.x");
  lan.settle(3);
  EXPECT_EQ(responses, 1);
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
  phone_ssdp.on_message = [&](const PacketView&, const SsdpView& m) {
    if (m.kind == SsdpKind::kResponse) response = m.to_message();
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
  phone_ssdp.on_message = [&](const PacketView&, const SsdpView& m) {
    responses += m.kind == SsdpKind::kResponse;
  };
  phone_ssdp.msearch("ssdp:all");
  lan.settle(3);
  EXPECT_EQ(responses, 0);
}

TEST(Ssdp, PeriodicSearcherHoldsOneSocketPerTarget) {
  // Each M-SEARCH listens on a fresh ephemeral port for its responses. A
  // searcher of two targets every 20 s for an hour closes each target's
  // previous socket when it searches again, yet still hears every answer.
  Lan lan;
  Host tv(lan.net, mac_n(2), "tv");
  Host phone(lan.net, mac_n(3), "phone");
  tv.set_static_ip(Ipv4Address(192, 168, 10, 30));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  SsdpEndpoint tv_ssdp(tv);
  tv_ssdp.respond_to_msearch = true;
  tv_ssdp.notification_types = {"upnp:rootdevice",
                                "urn:dial-multiscreen-org:service:dial:1"};
  SsdpEndpoint phone_ssdp(phone);
  int responses = 0;
  phone_ssdp.on_message = [&](const PacketView&, const SsdpView& m) {
    responses += m.kind == SsdpKind::kResponse;
  };
  const std::size_t ports_before = phone.open_udp_ports().size();
  lan.loop.schedule_periodic(SimTime::from_seconds(1), SimTime::from_seconds(20),
                             [&] {
                               phone_ssdp.msearch("ssdp:all");
                               phone_ssdp.msearch(
                                   "urn:dial-multiscreen-org:service:dial:1");
                             });
  lan.settle(3600);
  EXPECT_EQ(responses, 2 * 180);
  EXPECT_EQ(phone.open_udp_ports().size(), ports_before + 2);
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
  listener_ssdp.on_message = [&](const PacketView&, const SsdpView& m) {
    if (m.kind == SsdpKind::kNotify) seen = m.to_message();
  };
  dev_ssdp.notify_alive();
  lan.settle(2);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->nts, "ssdp:alive");
  EXPECT_NE(seen->usn.find(desc.udn), std::string::npos);
}

TEST(Ssdp, EndpointMessagesMatchHttpComposition) {
  // NOTIFYs and M-SEARCH responses are built in recycled buffers; each must
  // carry the bytes the per-message SsdpMessage + HTTP composition gave.
  Lan lan;
  Host tv(lan.net, mac_n(2), "tv");
  Host phone(lan.net, mac_n(3), "phone");
  tv.set_static_ip(Ipv4Address(192, 168, 10, 30));
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  SsdpEndpoint tv_ssdp(tv);
  tv_ssdp.respond_to_msearch = true;
  tv_ssdp.notification_types = {"upnp:rootdevice",
                                "urn:dial-multiscreen-org:service:dial:1"};
  UpnpDeviceDescription desc;
  desc.udn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000002";
  tv_ssdp.set_description(desc, 49153);
  SsdpEndpoint phone_ssdp(phone);
  std::vector<Bytes> sent;
  record_udp_payloads(lan, tv, sent);
  const auto expected = [&](SsdpKind kind, const std::string& nt) {
    SsdpMessage msg;
    msg.kind = kind;
    msg.search_target = nt;
    msg.server = tv_ssdp.server_string;
    msg.usn = desc.udn + "::" + nt;
    msg.location = "http://" + tv.ip().to_string() + ":49153/description.xml";
    if (kind == SsdpKind::kNotify) msg.nts = "ssdp:alive";
    return string_of(BytesView(reference::encode_ssdp(msg)));
  };
  const auto strings = [&] {
    std::vector<std::string> out;
    for (const Bytes& b : sent) out.push_back(string_of(BytesView(b)));
    sent.clear();
    return out;
  };

  tv_ssdp.notify_alive();
  lan.settle(1);
  EXPECT_EQ(strings(),
            (std::vector{expected(SsdpKind::kNotify, "upnp:rootdevice"),
                         expected(SsdpKind::kNotify,
                                  "urn:dial-multiscreen-org:service:dial:1")}));
  phone_ssdp.msearch("ssdp:all");
  lan.settle(1);
  EXPECT_EQ(strings(), std::vector{expected(SsdpKind::kResponse, "upnp:rootdevice")});
  // A shorter SERVER string and another address reuse the same buffers.
  tv_ssdp.server_string = "Linux UPnP/1.0";
  tv.set_static_ip(Ipv4Address(192, 168, 10, 7));
  phone_ssdp.msearch("urn:dial-multiscreen-org:service:dial:1");
  lan.settle(1);
  EXPECT_EQ(strings(),
            std::vector{expected(SsdpKind::kResponse,
                                 "urn:dial-multiscreen-org:service:dial:1")});
  tv_ssdp.notify_alive();
  lan.settle(1);
  EXPECT_EQ(strings().size(), 2u);
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
  std::vector<const DnsView*> seen;
  for (auto& endpoint : listeners.endpoints)
    endpoint->on_message = [&](const PacketView&, const DnsView& m) {
      seen.push_back(&m);
    };
  const DnsView* tapped = nullptr;
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
  for (const DnsView* m : seen) EXPECT_EQ(m, tapped);
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
