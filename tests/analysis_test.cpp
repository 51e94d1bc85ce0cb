// Tests for identifier extraction, protocol-usage aggregation, the
// communication graph, and the exposure matrix.
#include <gtest/gtest.h>

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "analysis/overview.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "sim/host.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(0x02a000000000ull | n); }

// ------------------------------------------------------------- identifiers

TEST(Identifiers, PossessiveNames) {
  const auto names =
      extract_possessive_names("Roku 3 - Jane's Room and Bob's Kitchen TV");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "Jane's Room");
  EXPECT_EQ(names[1], "Bob's Kitchen");
}

TEST(Identifiers, PossessiveNeedsBothWords) {
  EXPECT_TRUE(extract_possessive_names("just 's nothing").empty());
  EXPECT_TRUE(extract_possessive_names("trailing Jane's ").empty());
  EXPECT_TRUE(extract_possessive_names("no apostrophes here").empty());
}

TEST(Identifiers, Uuids) {
  const std::string text =
      "usn uuid:296F0ED3-af44-4f44-8a7f-02a000000002::rootdevice";
  const auto uuids = extract_uuids(text);
  ASSERT_EQ(uuids.size(), 1u);
  EXPECT_EQ(uuids[0], "296f0ed3-af44-4f44-8a7f-02a000000002");
}

TEST(Identifiers, UuidNotInsideLongerHexRun) {
  // 37 hex chars followed by valid groups: the leading context disqualifies.
  const std::string text =
      "a296f0ed3-af44-4f44-8a7f-02a000000002";
  EXPECT_TRUE(extract_uuids(text).empty());
}

TEST(Identifiers, MacWithSeparators) {
  const auto macs = extract_macs("serial 9c:8e:cd:0a:33:1b end");
  ASSERT_EQ(macs.size(), 1u);
  EXPECT_EQ(macs[0], "9c:8e:cd:0a:33:1b");
  EXPECT_EQ(extract_macs("9C-8E-CD-0A-33-1B").size(), 1u);
}

TEST(Identifiers, BareMacRequiresOuiMatch) {
  // Without an expected OUI, bare hex is never matched (false positives).
  EXPECT_TRUE(extract_macs("deadbeefcafe").empty());
  // With a matching OUI, it is.
  const auto macs = extract_macs("id=deadbeefcafe", 0xdeadbe);
  ASSERT_EQ(macs.size(), 1u);
  EXPECT_EQ(macs[0], "de:ad:be:ef:ca:fe");
  // Mismatched OUI filters it out.
  EXPECT_TRUE(extract_macs("id=deadbeefcafe", 0x02a000).empty());
}

TEST(Identifiers, CombinedExtraction) {
  const std::string text =
      "Jane's Roku uuid:00000000-1111-4222-8333-444455556666 at "
      "aa:bb:cc:dd:ee:ff";
  const auto ids = extract_identifiers(text);
  int names = 0, uuids = 0, macs = 0;
  for (const auto& id : ids) {
    names += id.type == IdentifierType::kName;
    uuids += id.type == IdentifierType::kUuid;
    macs += id.type == IdentifierType::kMacAddress;
  }
  EXPECT_EQ(names, 1);
  EXPECT_EQ(uuids, 1);
  EXPECT_EQ(macs, 1);
}

// ----------------------------------------------------------------- overview

std::pair<SimTime, Packet> udp_between(MacAddress src, MacAddress dst,
                                       Ipv4Address sip, Ipv4Address dip,
                                       std::uint16_t sport, std::uint16_t dport,
                                       Bytes payload) {
  Packet p;
  p.eth.src = src;
  p.eth.dst = dst;
  Ipv4Packet ip;
  ip.src = sip;
  ip.dst = dip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  p.ipv4 = ip;
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(dport);
  u.payload = std::move(payload);
  p.udp = u;
  return {SimTime{}, p};
}

/// Feeds a capture through an analysis builder, as the pipeline's tap does.
template <typename Builder>
auto fold(Builder builder,
          const std::vector<std::pair<SimTime, Packet>>& capture) {
  for (const auto& [at, packet] : capture) builder.on_packet(as_view(packet));
  return builder.finish();
}

TEST(ProtocolUsageTest, AttributesToSourceDevice) {
  std::vector<std::pair<SimTime, Packet>> capture;
  DnsMessage mdns;
  mdns.questions.push_back({DnsName::from_string("_x._tcp.local"),
                            DnsType::kPtr, false});
  capture.push_back(udp_between(mac_n(1), multicast_mac_v4(kMdnsGroupV4),
                                Ipv4Address(192, 168, 10, 5), kMdnsGroupV4,
                                5353, 5353, encode_dns(mdns)));
  const ProtocolUsage usage = fold(ProtocolUsageBuilder{}, capture);
  const std::set<MacAddress> population = {mac_n(1), mac_n(2)};
  EXPECT_EQ(usage.devices_using(ProtocolLabel::kMdns, population), 1u);
  EXPECT_EQ(usage.devices_using(ProtocolLabel::kSsdp, population), 0u);
  // Out-of-population sources are not counted.
  EXPECT_EQ(usage.devices_using(ProtocolLabel::kMdns, {mac_n(9)}), 0u);
}

TEST(CommGraphTest, BuildsUndirectedEdgesWithProtocols) {
  const std::set<MacAddress> population = {mac_n(1), mac_n(2), mac_n(3)};
  std::vector<std::pair<SimTime, Packet>> capture;
  capture.push_back(udp_between(mac_n(1), mac_n(2), Ipv4Address(192, 168, 10, 5),
                                Ipv4Address(192, 168, 10, 6), 1000, 2000,
                                bytes_of("x")));
  capture.push_back(udp_between(mac_n(2), mac_n(1), Ipv4Address(192, 168, 10, 6),
                                Ipv4Address(192, 168, 10, 5), 2000, 1000,
                                bytes_of("y")));
  // TCP packet between 1 and 2 as well.
  {
    Packet p;
    p.eth.src = mac_n(1);
    p.eth.dst = mac_n(2);
    Ipv4Packet ip;
    ip.src = Ipv4Address(192, 168, 10, 5);
    ip.dst = Ipv4Address(192, 168, 10, 6);
    ip.protocol = static_cast<std::uint8_t>(IpProto::kTcp);
    p.ipv4 = ip;
    TcpSegment t;
    t.src_port = port(1000);
    t.dst_port = port(443);
    p.tcp = t;
    capture.emplace_back(SimTime{}, p);
  }
  // Multicast is excluded.
  capture.push_back(udp_between(mac_n(3), multicast_mac_v4(kSsdpGroupV4),
                                Ipv4Address(192, 168, 10, 7), kSsdpGroupV4,
                                3000, 1900, bytes_of("z")));

  const CommGraph graph = fold(CommGraphBuilder(population), capture);
  ASSERT_EQ(graph.edges.size(), 1u);
  const auto* edge = graph.find(mac_n(1), mac_n(2));
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(edge->tcp);
  EXPECT_TRUE(edge->udp);
  EXPECT_EQ(edge->packets, 3u);
  EXPECT_EQ(graph.connected_nodes().size(), 2u);
}

// ----------------------------------------------------------------- exposure

TEST(ExposureTest, ArpExposesMac) {
  Packet p;
  p.eth.src = mac_n(1);
  p.eth.dst = MacAddress::kBroadcast;
  p.arp = ArpPacket{};
  const auto matrix = fold(ExposureBuilder{}, {{SimTime{}, p}});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kArp, ExposedData::kMac));
  EXPECT_FALSE(matrix.exposed(ProtocolLabel::kArp, ExposedData::kUuid));
}

TEST(ExposureTest, DhcpHostnameAndClientVersion) {
  DhcpMessage msg;
  msg.is_request = true;
  msg.client_mac = mac_n(4);
  msg.set_message_type(DhcpMessageType::kRequest);
  msg.set_hostname("Ring-Doorbell-Pro");
  msg.set_vendor_class("udhcp 1.14.3-Amazon");  // old client
  const auto capture = udp_between(mac_n(4), MacAddress::kBroadcast,
                                   Ipv4Address(0, 0, 0, 0),
                                   Ipv4Address(255, 255, 255, 255), 68, 67,
                                   encode_dhcp(msg));
  const auto matrix = fold(ExposureBuilder{}, {capture});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kDhcp, ExposedData::kMac));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kDhcp, ExposedData::kDeviceModel));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kDhcp, ExposedData::kOsVersion));
  EXPECT_TRUE(
      matrix.exposed(ProtocolLabel::kDhcp, ExposedData::kOutdatedSoftware));
  EXPECT_FALSE(matrix.exposed(ProtocolLabel::kDhcp, ExposedData::kGeolocation));
}

TEST(ExposureTest, MdnsHostnameWithMacAndDisplayName) {
  DnsMessage msg;
  msg.is_response = true;
  msg.answers.push_back(DnsRecord::make_ptr(
      DnsName::from_string("_hue._tcp.local"),
      DnsName::from_string("Philips Hue - 685F61._hue._tcp.local")));
  msg.answers.push_back(DnsRecord::make_txt(
      DnsName::from_string("Jane's Kitchen._airplay._tcp.local"),
      {"deviceid=aa:bb:cc:dd:ee:ff"}));
  const auto capture = udp_between(mac_n(5), multicast_mac_v4(kMdnsGroupV4),
                                   Ipv4Address(192, 168, 10, 5), kMdnsGroupV4,
                                   5353, 5353, encode_dns(msg));
  const auto matrix = fold(ExposureBuilder{}, {capture});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kMdns, ExposedData::kMac));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kMdns, ExposedData::kDisplayName));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kMdns, ExposedData::kDeviceModel));
}

TEST(ExposureTest, SsdpUuidAndDeprecatedUpnp) {
  SsdpMessage msg;
  msg.kind = SsdpKind::kNotify;
  msg.search_target = "upnp:rootdevice";
  msg.usn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000002::upnp:rootdevice";
  msg.server = "Linux, UPnP/1.0, Private UPnP SDK";
  const auto capture = udp_between(mac_n(6), multicast_mac_v4(kSsdpGroupV4),
                                   Ipv4Address(192, 168, 10, 6), kSsdpGroupV4,
                                   50000, 1900, encode_ssdp(msg));
  const auto matrix = fold(ExposureBuilder{}, {capture});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kSsdp, ExposedData::kUuid));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kSsdp, ExposedData::kOsVersion));
  EXPECT_TRUE(
      matrix.exposed(ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware));
}

TEST(ExposureTest, TuyaGwidAndProductKey) {
  TuyaDiscovery d;
  d.gw_id = "86200001ae90d6d48d2d";
  d.product_key = "keymwyws7ntafnwq";
  const auto capture = udp_between(mac_n(7), MacAddress::kBroadcast,
                                   Ipv4Address(192, 168, 10, 7),
                                   Ipv4Address(192, 168, 10, 255), 40000, 6666,
                                   encode_tuya_discovery(d));
  const auto matrix = fold(ExposureBuilder{}, {capture});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kTuyaLp, ExposedData::kGwId));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kTuyaLp, ExposedData::kProductKey));
}

TEST(ExposureTest, TplinkSysinfoExposesGeolocationAndOemId) {
  TplinkSysinfo info;
  info.model = "HS110";
  info.mac = "02:a0:03:01:02:03";
  info.oem_id = "FFF22CFF774A0B89F7624BFC6F50D5DE";
  info.latitude = 42.33;
  info.longitude = -71.08;
  const auto capture = udp_between(mac_n(8), mac_n(9),
                                   Ipv4Address(192, 168, 10, 8),
                                   Ipv4Address(192, 168, 10, 9), 9999, 50000,
                                   encode_tplink_udp(info.to_json()));
  const auto matrix = fold(ExposureBuilder{}, {capture});
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kTplinkShp, ExposedData::kMac));
  EXPECT_TRUE(matrix.exposed(ProtocolLabel::kTplinkShp, ExposedData::kOemId));
  EXPECT_TRUE(
      matrix.exposed(ProtocolLabel::kTplinkShp, ExposedData::kGeolocation));
  EXPECT_TRUE(
      matrix.exposed(ProtocolLabel::kTplinkShp, ExposedData::kDeviceModel));
}

TEST(ExposureTest, TableShapeHelpers) {
  EXPECT_EQ(exposure_protocols().size(), 6u);
  EXPECT_EQ(exposure_data_types().size(), 10u);
  EXPECT_EQ(to_string(ExposedData::kProductKey), "Prod.Key");
}

}  // namespace
}  // namespace roomnet
