// Tests for identifier extraction, protocol-usage aggregation, the
// communication graph, and the exposure matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "analysis/overview.hpp"
#include "capture/filter.hpp"
#include "netcore/pcap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "sim/host.hpp"
#include "telemetry/metrics.hpp"
#include "wire_frame.hpp"

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

// The scanners jump over text they have ruled out and test hex digits with
// a plain ASCII range. These copies keep the per-position walks (with
// std::isxdigit) they replaced, as the references to compare against.
std::vector<std::string> isxdigit_uuids(std::string_view text) {
  const auto hex = [](char c) {
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<std::string> out;
  static constexpr int kGroups[] = {8, 4, 4, 4, 12};
  for (std::size_t i = 0; i + 36 <= text.size(); ++i) {
    std::size_t pos = i;
    bool ok = true;
    for (int g = 0; g < 5 && ok; ++g) {
      for (int k = 0; k < kGroups[g] && ok; ++k) ok = hex(text[pos++]);
      if (ok && g < 4) ok = text[pos++] == '-';
    }
    if (ok && i > 0 && hex(text[i - 1])) ok = false;
    if (ok && pos < text.size() && hex(text[pos])) ok = false;
    if (ok) {
      std::string uuid(text.substr(i, 36));
      for (auto& c : uuid) c = static_cast<char>(std::tolower(c));
      out.push_back(std::move(uuid));
      i += 35;
    }
  }
  return out;
}

std::vector<std::string> isxdigit_macs(std::string_view text,
                                       std::optional<std::uint32_t> oui) {
  const auto hex = [](char c) {
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
  };
  const auto canonical =
      [&](std::string_view candidate) -> std::optional<std::string> {
    const auto mac = MacAddress::parse(candidate);
    if (!mac || (oui && mac->oui() != *oui)) return std::nullopt;
    return mac->to_string();
  };
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 17 <= text.size(); ++i) {
    const std::string_view candidate = text.substr(i, 17);
    bool shape = true;
    for (int k = 0; k < 17 && shape; ++k)
      shape = k % 3 == 2 ? candidate[k] == ':' || candidate[k] == '-'
                         : hex(candidate[k]);
    if (!shape) continue;
    if (const auto mac = canonical(candidate)) {
      out.push_back(*mac);
      i += 16;
    }
  }
  if (oui) {
    for (std::size_t i = 0; i + 12 <= text.size(); ++i) {
      if (i > 0 && hex(text[i - 1])) continue;
      const std::string_view candidate = text.substr(i, 12);
      if (!std::all_of(candidate.begin(), candidate.end(), hex)) continue;
      if (i + 12 < text.size() && hex(text[i + 12])) continue;
      if (const auto mac = canonical(candidate)) {
        out.push_back(*mac);
        i += 11;
      }
    }
  }
  return out;
}

std::vector<std::string> isalpha_possessive_names(std::string_view text) {
  const auto word = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 3 < text.size(); ++i) {
    if (text[i] != '\'' || text[i + 1] != 's' || text[i + 2] != ' ') continue;
    std::size_t start = i;
    while (start > 0 && word(text[start - 1])) --start;
    std::size_t end = i + 3;
    while (end < text.size() && word(text[end])) ++end;
    if (start != i && end != i + 3)
      out.emplace_back(text.substr(start, end - start));
  }
  return out;
}

TEST(Identifiers, AsciiHexScannersMatchIsxdigitReference) {
  // The cases the jumps must not change: overlapping separated MACs, where
  // the unfiltered scan takes the first and the OUI-filtered one rejects it
  // and finds the second; bare hex runs one short of, at and one past a
  // MAC; a possessive at the very end of the text.
  const std::string overlap = "00:11:22:9c:8e:cd:0a:33:1b";
  EXPECT_EQ(extract_macs(overlap),
            std::vector<std::string>{"00:11:22:9c:8e:cd"});
  EXPECT_EQ(extract_macs(overlap, 0x9c8ecd),
            std::vector<std::string>{"9c:8e:cd:0a:33:1b"});
  EXPECT_TRUE(extract_macs("id 9c8ecd0a331 x", 0x9c8ecd).empty());
  EXPECT_EQ(extract_macs("id 9c8ecd0a331b x", 0x9c8ecd),
            std::vector<std::string>{"9c:8e:cd:0a:33:1b"});
  EXPECT_TRUE(extract_macs("id 9c8ecd0a331bf x", 0x9c8ecd).empty());
  EXPECT_TRUE(extract_possessive_names("speaker in Jane's").empty());

  // Hex-heavy text with separators, near-hex letters, apostrophes and bytes
  // outside ASCII, plus planted MACs, UUIDs (one inside a longer hex run),
  // 11-, 12- and 13-character hex runs and names (one whose apostrophes
  // are two apart), so every scanner finds matches; some texts end in a
  // possessive.
  static constexpr char kAlphabet[] =
      "0123456789abcdefABCDEF0123456789abcdef::--gGzZ's \x80\xaa\xe9\xff";
  const std::vector<std::string> planted = {
      "9c:8e:cd:0a:33:1b", "9C-8E-CD-0A-33-1B", "9c8ecd0a331b",
      "296F0ED3-af44-4f44-8a7f-02a000000002", "00:11:22:9c:8e:cd:0a:33:1b",
      " 9c8ecd0a331 ", " 9c8ecd0a331b ", " 9c8ecd0a331bf ",
      "0ab296f0ed3-af44-4f44-8a7f-02a000000002cd", "Jane's Room",
      "Bob's Kitchen TV", "Rock'n's Den"};
  const std::vector<std::string> endings = {"", "Jane's", "Jane's A"};
  Rng rng(4122);
  std::size_t macs_found = 0, uuids_found = 0, names_found = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const std::size_t length = rng.below(160);
    while (text.size() < length) {
      if (rng.chance(0.03))
        text += rng.pick(planted);
      else
        text += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    text += rng.pick(endings);
    const std::optional<std::uint32_t> oui =
        rng.chance(0.5) ? std::optional<std::uint32_t>(0x9c8ecd) : std::nullopt;
    const auto uuids = extract_uuids(text);
    const auto macs = extract_macs(text, oui);
    const auto names = extract_possessive_names(text);
    ASSERT_EQ(uuids, isxdigit_uuids(text)) << text;
    ASSERT_EQ(macs, isxdigit_macs(text, oui)) << text;
    ASSERT_EQ(names, isalpha_possessive_names(text)) << text;
    uuids_found += uuids.size();
    macs_found += macs.size();
    names_found += names.size();

    // The harvest is the OUI-checked extraction plus every separated MAC.
    const std::uint32_t device_oui = rng.chance(0.5) ? 0x9c8ecd : 0x001122;
    std::set<ExtractedIdentifier> harvested, reference;
    harvest_identifiers(text, device_oui, harvested);
    for (auto& name : isalpha_possessive_names(text))
      reference.insert({IdentifierType::kName, std::move(name)});
    for (auto& uuid : isxdigit_uuids(text))
      reference.insert({IdentifierType::kUuid, std::move(uuid)});
    for (auto& mac : isxdigit_macs(text, device_oui))
      reference.insert({IdentifierType::kMacAddress, std::move(mac)});
    for (auto& mac : isxdigit_macs(text, std::nullopt))
      reference.insert({IdentifierType::kMacAddress, std::move(mac)});
    ASSERT_EQ(harvested, reference) << text;
  }
  EXPECT_GT(uuids_found, 0u);
  EXPECT_GT(macs_found, 0u);
  EXPECT_GT(names_found, 0u);
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

WireFrame udp_between(MacAddress src, MacAddress dst, Ipv4Address sip,
                      Ipv4Address dip, std::uint16_t sport,
                      std::uint16_t dport, BytesView payload) {
  return udp_frame(src, dst, sip, sport, dip, dport, payload);
}

/// Feeds a capture through an analysis builder, as the pipeline's tap does.
template <typename Builder>
auto fold(Builder builder, const std::vector<WireFrame>& capture) {
  for (const WireFrame& frame : capture) builder.on_packet(frame.view);
  return builder.finish();
}

TEST(ProtocolUsageTest, AttributesToSourceDevice) {
  std::vector<WireFrame> capture;
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
  std::vector<WireFrame> capture;
  capture.push_back(udp_between(mac_n(1), mac_n(2), Ipv4Address(192, 168, 10, 5),
                                Ipv4Address(192, 168, 10, 6), 1000, 2000,
                                bytes_of("x")));
  capture.push_back(udp_between(mac_n(2), mac_n(1), Ipv4Address(192, 168, 10, 6),
                                Ipv4Address(192, 168, 10, 5), 2000, 1000,
                                bytes_of("y")));
  // TCP packet between 1 and 2 as well.
  capture.push_back(tcp_frame(mac_n(1), mac_n(2), Ipv4Address(192, 168, 10, 5),
                              1000, Ipv4Address(192, 168, 10, 6), 443, {}, {}));
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
  const auto matrix =
      fold(ExposureBuilder{}, {arp_frame(mac_n(1), MacAddress::kBroadcast, {})});
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

// ------------------------------------------------------- exposure scan once

std::uint64_t exposure_scans(const char* proto) {
  return telemetry::Registry::global()
      .counter("roomnet_exposure_scans_total", {{"proto", proto}})
      .value();
}

WireFrame mdns_response(MacAddress src, DnsRecord answer) {
  DnsMessage msg;
  msg.is_response = true;
  msg.answers.push_back(std::move(answer));
  return udp_between(src, multicast_mac_v4(kMdnsGroupV4),
                     Ipv4Address(192, 168, 10, 5), kMdnsGroupV4, 5353, 5353,
                     encode_dns(msg));
}

TEST(ExposureSettle, RepeatedAnnouncementScansOnce) {
  // Device 1 exposes a MAC, a UUID, a display name and a model in one
  // response. Device 2 never carries a display name, a UUID or a harvested
  // identifier. A repeated (source, payload) is never scanned again.
  const WireFrame full = mdns_response(
      mac_n(1), DnsRecord::make_txt(
                    DnsName::from_string("Jane's Kitchen._airplay._tcp.local"),
                    {"deviceid=aa:bb:cc:dd:ee:ff",
                     "id=296f0ed3-af44-4f44-8a7f-02a000000002",
                     "model=HomePod"}));
  const WireFrame nameless = mdns_response(
      mac_n(2),
      DnsRecord::make_ptr(
          DnsName::from_string("_hue._tcp.local"),
          DnsName::from_string("Philips Hue - 685F61._hue._tcp.local")));
  SsdpMessage notify;
  notify.kind = SsdpKind::kNotify;
  notify.search_target = "upnp:rootdevice";
  notify.usn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000006::upnp:rootdevice";
  notify.server = "Linux, UPnP/1.0, Private UPnP SDK";
  const WireFrame ssdp = udp_between(
      mac_n(6), multicast_mac_v4(kSsdpGroupV4), Ipv4Address(192, 168, 10, 6),
      kSsdpGroupV4, 50000, 1900, encode_ssdp(notify));

  ExposureBuilder builder;
  const std::uint64_t mdns0 = exposure_scans("mdns");
  const std::uint64_t ssdp0 = exposure_scans("ssdp");
  builder.on_packet(full.view);
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 1u);
  builder.on_packet(full.view);
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 1u);
  builder.on_packet(nameless.view);
  builder.on_packet(nameless.view);
  // Device 2's name cell stays empty, but its repeat is the same (source,
  // payload): the first scan already marked all it can.
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 2u);
  builder.on_packet(ssdp.view);
  builder.on_packet(ssdp.view);
  EXPECT_EQ(exposure_scans("ssdp") - ssdp0, 1u);

  const ExposureMatrix matrix = builder.finish();
  EXPECT_EQ(matrix.device_count(ProtocolLabel::kMdns, ExposedData::kMac), 2u);
  EXPECT_EQ(matrix.device_count(ProtocolLabel::kMdns, ExposedData::kUuid), 1u);
  EXPECT_EQ(
      matrix.device_count(ProtocolLabel::kMdns, ExposedData::kDisplayName),
      1u);
  EXPECT_EQ(
      matrix.device_count(ProtocolLabel::kMdns, ExposedData::kDeviceModel),
      2u);
  EXPECT_EQ(matrix.device_count(ProtocolLabel::kSsdp, ExposedData::kUuid), 1u);
  EXPECT_TRUE(
      matrix.exposed(ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware));

  // The same scans harvested the §6.3 identifiers: the UUIDs' last groups
  // are bare MACs under the devices' own OUI (02:a0:00).
  using Ids = std::set<ExtractedIdentifier>;
  const std::map<MacAddress, Ids> expected = {
      {mac_n(1),
       Ids{{IdentifierType::kName, "Jane's Kitchen"},
           {IdentifierType::kUuid, "296f0ed3-af44-4f44-8a7f-02a000000002"},
           {IdentifierType::kMacAddress, "02:a0:00:00:00:02"},
           {IdentifierType::kMacAddress, "aa:bb:cc:dd:ee:ff"}}},
      {mac_n(6),
       Ids{{IdentifierType::kUuid, "296f0ed3-af44-4f44-8a7f-02a000000006"},
           {IdentifierType::kMacAddress, "02:a0:00:00:00:06"}}}};
  EXPECT_EQ(matrix.identifiers, expected);
}

TEST(ExposureSettle, DifferentPayloadFromSameSourceIsScanned) {
  // Device 2's first response marks only its MAC-like tail and model; a
  // second, different response from it gets its own scan, and marks the
  // display name the first could not.
  const WireFrame nameless = mdns_response(
      mac_n(2),
      DnsRecord::make_ptr(
          DnsName::from_string("_hue._tcp.local"),
          DnsName::from_string("Philips Hue - 685F61._hue._tcp.local")));
  const WireFrame named = mdns_response(
      mac_n(2), DnsRecord::make_txt(
                    DnsName::from_string("Jane's Hue._hue._tcp.local"),
                    {"bridgeid=001788fffe685f61"}));

  ExposureBuilder builder;
  const std::uint64_t mdns0 = exposure_scans("mdns");
  builder.on_packet(nameless.view);
  builder.on_packet(named.view);
  builder.on_packet(nameless.view);
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 2u);

  const ExposureMatrix matrix = builder.finish();
  EXPECT_EQ(matrix.device_count(ProtocolLabel::kMdns, ExposedData::kMac), 1u);
  EXPECT_EQ(
      matrix.device_count(ProtocolLabel::kMdns, ExposedData::kDeviceModel),
      1u);
  EXPECT_EQ(
      matrix.device_count(ProtocolLabel::kMdns, ExposedData::kDisplayName),
      1u);
  EXPECT_FALSE(matrix.exposed(ProtocolLabel::kMdns, ExposedData::kUuid));
  // A 16-hex bridge id is no MAC; the possessive name is the one identifier.
  const std::map<MacAddress, std::set<ExtractedIdentifier>> expected = {
      {mac_n(2), {{IdentifierType::kName, "Jane's Hue"}}}};
  EXPECT_EQ(matrix.identifiers, expected);
}

TEST(ExposureSettle, SetCellsStillHarvestNewIdentifiers) {
  // After its first response every mDNS cell holds device 1, yet a second
  // response with a new UUID is still scanned, and the UUID joins the
  // device's identifiers; the cells do not change.
  const auto response = [](const char* uuid) {
    return mdns_response(
        mac_n(1),
        DnsRecord::make_txt(
            DnsName::from_string("Jane's Kitchen._airplay._tcp.local"),
            {"deviceid=aa:bb:cc:dd:ee:ff", std::string("id=") + uuid,
             "model=HomePod"}));
  };
  const WireFrame first = response("296f0ed3-af44-4f44-8a7f-000000000001");
  const WireFrame second = response("9d1c2b3a-0000-4f44-8a7f-000000000002");

  ExposureBuilder builder;
  const std::uint64_t mdns0 = exposure_scans("mdns");
  builder.on_packet(first.view);
  builder.on_packet(second.view);
  builder.on_packet(first.view);
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 2u);

  const ExposureMatrix matrix = builder.finish();
  EXPECT_EQ(matrix.cells.size(), 4u);
  for (const auto& [cell, macs] : matrix.cells)
    EXPECT_EQ(macs, std::set<MacAddress>{mac_n(1)});
  ASSERT_EQ(matrix.identifiers.size(), 1u);
  const auto& ids = matrix.identifiers.at(mac_n(1));
  EXPECT_EQ(ids.count({IdentifierType::kUuid,
                       "296f0ed3-af44-4f44-8a7f-000000000001"}),
            1u);
  EXPECT_EQ(ids.count({IdentifierType::kUuid,
                       "9d1c2b3a-0000-4f44-8a7f-000000000002"}),
            1u);
  EXPECT_EQ(ids.size(), 4u);  // the name, the MAC and both UUIDs
}

TEST(ExposureSettle, SamePayloadFromDifferentSourceIsScanned) {
  // The memo is per source: byte-identical responses from two devices are
  // each scanned, and each device lands in every cell the payload marks.
  const DnsRecord answer = DnsRecord::make_ptr(
      DnsName::from_string("_hue._tcp.local"),
      DnsName::from_string("Philips Hue - 685F61._hue._tcp.local"));
  const WireFrame from2 = mdns_response(mac_n(2), answer);
  const WireFrame from3 = mdns_response(mac_n(3), answer);
  ASSERT_TRUE(std::equal(from2.view.app_payload().begin(),
                         from2.view.app_payload().end(),
                         from3.view.app_payload().begin(),
                         from3.view.app_payload().end()));
  SsdpMessage notify;
  notify.kind = SsdpKind::kNotify;
  notify.search_target = "upnp:rootdevice";
  notify.usn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000006::upnp:rootdevice";
  notify.server = "Linux, UPnP/1.0, Private UPnP SDK";
  const auto ssdp_from = [&](std::uint64_t n) {
    return udp_between(mac_n(n), multicast_mac_v4(kSsdpGroupV4),
                       Ipv4Address(192, 168, 10, static_cast<std::uint8_t>(n)),
                       kSsdpGroupV4, 50000, 1900, encode_ssdp(notify));
  };
  const WireFrame ssdp2 = ssdp_from(2);
  const WireFrame ssdp3 = ssdp_from(3);

  ExposureBuilder builder;
  const std::uint64_t mdns0 = exposure_scans("mdns");
  const std::uint64_t ssdp0 = exposure_scans("ssdp");
  for (const WireFrame* frame : {&from2, &from3, &from2, &from3})
    builder.on_packet(frame->view);
  for (const WireFrame* frame : {&ssdp2, &ssdp3, &ssdp2, &ssdp3})
    builder.on_packet(frame->view);
  EXPECT_EQ(exposure_scans("mdns") - mdns0, 2u);
  EXPECT_EQ(exposure_scans("ssdp") - ssdp0, 2u);

  const ExposureMatrix matrix = builder.finish();
  const std::set<MacAddress> both = {mac_n(2), mac_n(3)};
  for (const auto& cell :
       {std::pair{ProtocolLabel::kMdns, ExposedData::kMac},
        std::pair{ProtocolLabel::kMdns, ExposedData::kDeviceModel},
        std::pair{ProtocolLabel::kSsdp, ExposedData::kUuid},
        std::pair{ProtocolLabel::kSsdp, ExposedData::kOsVersion},
        std::pair{ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware}}) {
    const auto it = matrix.cells.find(cell);
    ASSERT_NE(it, matrix.cells.end());
    EXPECT_EQ(it->second, both);
  }
  EXPECT_EQ(matrix.cells.size(), 5u);
  // Each source harvests the SSDP UUID and, under the shared OUI, its last
  // group as a bare MAC; the mDNS payload carries no identifier.
  for (const MacAddress mac : both) {
    const auto it = matrix.identifiers.find(mac);
    ASSERT_NE(it, matrix.identifiers.end());
    EXPECT_EQ(it->second.count({IdentifierType::kUuid,
                                "296f0ed3-af44-4f44-8a7f-02a000000006"}),
              1u);
  }
  EXPECT_EQ(matrix.identifiers.size(), 2u);
}

TEST(ExposureSettle, PayloadMemoIsExactPerSource) {
  PayloadMemo memo;
  const Bytes a = {'a', 'b', 'c'};
  const Bytes b = {'a', 'b', 'd'};
  EXPECT_TRUE(memo.insert(mac_n(1), a));
  EXPECT_FALSE(memo.insert(mac_n(1), a));
  EXPECT_TRUE(memo.insert(mac_n(1), b));
  EXPECT_TRUE(memo.insert(mac_n(2), a));
  EXPECT_TRUE(memo.insert(mac_n(1), BytesView(a).first(2)));
  EXPECT_TRUE(memo.insert(mac_n(1), BytesView{}));
  EXPECT_FALSE(memo.insert(mac_n(1), BytesView{}));

  // Past many regrowths every pair is still told apart.
  std::vector<Bytes> payloads;
  for (std::uint32_t i = 0; i < 1000; ++i)
    payloads.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)});
  PayloadMemo grown;
  for (const Bytes& p : payloads) EXPECT_TRUE(grown.insert(mac_n(3), p));
  for (const Bytes& p : payloads) EXPECT_FALSE(grown.insert(mac_n(3), p));
  for (const Bytes& p : payloads) EXPECT_TRUE(grown.insert(mac_n(4), p));
}

TEST(ExposureSettle, MatrixIndependentOfOrderAndRepeats) {
  // Scanning each distinct (source, payload) once gives one matrix, cells
  // and identifiers, in any order: the committed capture's local frames in
  // order, in reverse, and each fed twice.
  const auto records = read_pcap_file(ROOMNET_QUICKSTART_PCAP);
  ASSERT_TRUE(records.has_value());
  const LocalFilter filter;
  std::vector<PacketView> local;
  for (const PcapRecord& record : *records) {
    const auto view = decode_frame_view(record.frame);
    if (view && filter.matches(*view)) local.push_back(*view);
  }
  ASSERT_FALSE(local.empty());
  const auto scans = [] {
    return exposure_scans("mdns") + exposure_scans("ssdp");
  };
  const auto fold_views = [](auto first, auto last, int times) {
    ExposureBuilder builder;
    for (auto it = first; it != last; ++it)
      for (int k = 0; k < times; ++k) builder.on_packet(*it);
    ExposureMatrix matrix = builder.finish();
    return std::pair{std::move(matrix.cells), std::move(matrix.identifiers)};
  };
  const std::uint64_t start = scans();
  const auto forward = fold_views(local.begin(), local.end(), 1);
  const std::uint64_t once = scans() - start;
  EXPECT_EQ(fold_views(local.rbegin(), local.rend(), 1), forward);
  EXPECT_EQ(scans() - start, 2 * once);
  const std::uint64_t mid = scans();
  EXPECT_EQ(fold_views(local.begin(), local.end(), 2), forward);
  EXPECT_EQ(scans() - mid, once);  // a repeated frame is never scanned
  EXPECT_GE(forward.first.size(), 10u);
  EXPECT_FALSE(forward.second.empty());
}

}  // namespace
}  // namespace roomnet
