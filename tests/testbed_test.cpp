// Tests for the MonIoTr testbed reproduction: catalog shape, behavior
// profiles, device boot, and integration over a short idle capture.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "capture/filter.hpp"
#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "proto/matter.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "testbed/lab.hpp"

namespace roomnet {
namespace {

// ----------------------------------------------------------------- catalog

TEST(Catalog, HasNinetyThreeDevices) {
  EXPECT_EQ(moniotr_catalog().size(), 93u);
}

TEST(Catalog, CategoryCountsMatchTable3) {
  std::map<DeviceCategory, int> counts;
  for (const auto& spec : moniotr_catalog()) ++counts[spec.category];
  EXPECT_EQ(counts[DeviceCategory::kGameConsole], 1);
  EXPECT_EQ(counts[DeviceCategory::kGenericIot], 7);
  EXPECT_EQ(counts[DeviceCategory::kHomeAppliance], 10);
  EXPECT_EQ(counts[DeviceCategory::kHomeAutomation], 21);
  EXPECT_EQ(counts[DeviceCategory::kMediaTv], 7);
  EXPECT_EQ(counts[DeviceCategory::kSurveillance], 19);
  EXPECT_EQ(counts[DeviceCategory::kVoiceAssistant], 28);
}

TEST(Catalog, VendorCountsMatchTable3) {
  std::map<std::string, int> vendors;
  for (const auto& spec : moniotr_catalog()) ++vendors[spec.vendor];
  EXPECT_EQ(vendors["Amazon"], 19);  // 17 VA + Fire TV + Smart Plug
  EXPECT_EQ(vendors["Google"], 11);  // 7 VA + thermostat + TV + 2 cameras
  EXPECT_EQ(vendors["Apple"], 4);
  EXPECT_EQ(vendors["Ring"], 5);
  EXPECT_EQ(vendors["Tuya"], 5);  // 1 generic + 3 automation + 1 camera
  EXPECT_EQ(vendors["TP-Link"], 2);
  EXPECT_EQ(vendors["Withings"], 3);
  EXPECT_EQ(vendors["Meross"], 3);
  EXPECT_EQ(vendors["Samsung"], 4);
}

TEST(Catalog, ModelsAreNearlyUnique) {
  // Paper: 78 unique models among 93 devices. Ours are fully distinct
  // except where the catalog names repeat units; assert a sane lower bound.
  EXPECT_GE(unique_model_count(), 78u);
}

// ---------------------------------------------------------------- profiles

TEST(Profiles, EchoProfileMatchesPaperObservations) {
  const auto& catalog = moniotr_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].vendor != "Amazon" || catalog[i].model != "Echo Spot")
      continue;
    const DeviceBehavior b = behavior_for(catalog[i], i);
    EXPECT_TRUE(b.arp_daily_scan);
    EXPECT_TRUE(b.arp_unicast_probes);
    EXPECT_GE(b.ssdp_msearch_interval_s, 7200);   // every 2-3 h
    EXPECT_LE(b.ssdp_msearch_interval_s, 10800);
    EXPECT_EQ(b.ssdp_search_targets[0], "ssdp:all");  // generic searches
    EXPECT_DOUBLE_EQ(b.lifx_beacon_interval_s, 7200);  // UDP 56700, 2 h
    ASSERT_TRUE(b.tls_server.has_value());
    EXPECT_EQ(b.tls_server->port, 55443);
    EXPECT_EQ(b.tls_server->validity_days, 90u);  // 3-month self-signed
    EXPECT_EQ(b.tls_server->cert, CertPolicy::kSelfSignedLocalIp);
    EXPECT_GE(b.mdns_query_interval_s, 20);
    EXPECT_LE(b.mdns_query_interval_s, 100);
    return;
  }
  FAIL() << "Echo Spot not in catalog";
}

TEST(Profiles, GoogleProfileHasWeakKeyPort8009) {
  const auto& catalog = moniotr_catalog();
  int checked = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].vendor != "Google") continue;
    const DeviceBehavior b = behavior_for(catalog[i], i);
    ASSERT_TRUE(b.tls_server.has_value());
    EXPECT_EQ(b.tls_server->port, 8009);
    EXPECT_GE(b.tls_server->key_bits, 64);
    EXPECT_LE(b.tls_server->key_bits, 122);  // the Nessus finding
    EXPECT_EQ(b.tls_server->cert, CertPolicy::kPrivatePki);
    EXPECT_EQ(b.tls_server->validity_days, 20u * 365);  // 20-year leaf
    EXPECT_DOUBLE_EQ(b.ssdp_msearch_interval_s, 20);    // every 20 s
    ++checked;
  }
  EXPECT_EQ(checked, 11);
}

TEST(Profiles, AppleUsesTls13WithEncryptedCerts) {
  const auto& catalog = moniotr_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].vendor != "Apple") continue;
    const DeviceBehavior b = behavior_for(catalog[i], i);
    ASSERT_TRUE(b.tls_server.has_value());
    EXPECT_EQ(b.tls_server->version, TlsVersion::kTls13);
    EXPECT_EQ(b.tls_server->cert, CertPolicy::kEncrypted);
  }
}

TEST(Profiles, HomePodMiniRunsSheerDns) {
  const auto& catalog = moniotr_catalog();
  int minis = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].model.find("HomePod Mini") == std::string::npos) continue;
    const DeviceBehavior b = behavior_for(catalog[i], i);
    EXPECT_TRUE(b.dns_server);
    EXPECT_EQ(b.dns_banner, "SheerDNS 1.0.0");
    EXPECT_GT(b.coap_query_interval_s, 0);
    ++minis;
  }
  EXPECT_EQ(minis, 2);
}

TEST(Profiles, GeMicrowaveRandomizesHostnames) {
  const auto& catalog = moniotr_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].vendor != "GE") continue;
    EXPECT_EQ(behavior_for(catalog[i], i).hostname_policy,
              HostnamePolicy::kRandomized);
  }
}

TEST(Profiles, NineOrSoDevicesRunUpnp10) {
  const auto& catalog = moniotr_catalog();
  int upnp10 = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const DeviceBehavior b = behavior_for(catalog[i], i);
    if (b.ssdp_server.find("UPnP/1.0") != std::string::npos) ++upnp10;
    if (!b.ssdp_server_rotation.empty()) continue;
  }
  EXPECT_GE(upnp10, 8);
  EXPECT_LE(upnp10, 25);
}

TEST(Profiles, TpLinkExposesGeolocation) {
  const auto& catalog = moniotr_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].vendor != "TP-Link") continue;
    const DeviceBehavior b = behavior_for(catalog[i], i);
    EXPECT_TRUE(b.tplink_server);
    EXPECT_NE(b.latitude, 0);
    EXPECT_NE(b.longitude, 0);
  }
}

// --------------------------------------------------------------- lab boot

TEST(Lab, AllDevicesAcquireLeases) {
  Lab lab;
  lab.start_all();
  lab.run_for(SimTime::from_minutes(10));
  int with_ip = 0;
  for (const auto& device : lab.devices()) with_ip += device->host().has_ip();
  EXPECT_EQ(with_ip, 93);
  EXPECT_TRUE(lab.pixel().has_ip());
  EXPECT_TRUE(lab.iphone().has_ip());
  // All leases distinct.
  std::set<std::uint32_t> ips;
  for (const auto& device : lab.devices()) ips.insert(device->host().ip().value());
  EXPECT_EQ(ips.size(), 93u);
}

TEST(Lab, DeterministicAcrossRunsWithSameSeed) {
  const auto run = [] {
    Lab lab(LabConfig{.seed = 7});
    lab.start_all();
    lab.run_for(SimTime::from_minutes(20));
    return lab.capture().size();
  };
  const auto frames1 = run();
  const auto frames2 = run();
  EXPECT_EQ(frames1, frames2);
  EXPECT_GT(frames1, 500u);
}

TEST(Lab, DifferentSeedsDiffer) {
  Lab a(LabConfig{.seed = 1}), b(LabConfig{.seed = 2});
  a.start_all();
  b.start_all();
  a.run_for(SimTime::from_minutes(10));
  b.run_for(SimTime::from_minutes(10));
  EXPECT_NE(a.capture().size(), b.capture().size());
}

TEST(Lab, FindLocatesDevices) {
  Lab lab;
  EXPECT_NE(lab.find("Echo Spot"), nullptr);
  EXPECT_NE(lab.find("Hue Hub"), nullptr);
  EXPECT_EQ(lab.find("Nonexistent Gadget"), nullptr);
}

// ------------------------------------------------------ platform clusters

TEST(Lab, HomeKitCoordinatesThroughTheAppleTv) {
  Lab lab;
  const TestbedDevice* apple_tv = lab.find("Apple TV");
  ASSERT_NE(apple_tv, nullptr);
  int members = 0;
  for (const auto& device : lab.devices()) {
    if (device->spec().platform != Platform::kHomeKit) continue;
    ++members;
    const TestbedDevice* expected =
        device.get() == apple_tv ? nullptr : apple_tv;
    EXPECT_EQ(device->cluster_coordinator(), expected)
        << device->spec().vendor << " " << device->spec().model;
  }
  EXPECT_EQ(members, 6);
}

TEST(HouseholdConstruction, OwnerTlsDeviceCoordinatesEvenWhenAddedLater) {
  // The catalog lists the TLS-capable Hue Hub before the Apple TV, so a
  // "first TLS-capable member" rule would pick the Hue; the owner must win.
  EventLoop loop;
  Switch net(loop);
  Rng rng(1);
  DeviceList devices;
  const auto& catalog = moniotr_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].model == "Hue Hub" || catalog[i].model == "Apple TV")
      devices.push_back(std::make_unique<TestbedDevice>(
          net, catalog[i], behavior_for(catalog[i], i),
          MacAddress::from_u64(0x020000000001ull + i), rng));
  }
  ASSERT_EQ(devices.size(), 2u);
  TestbedDevice& hue = *devices[0];
  TestbedDevice& apple_tv = *devices[1];
  ASSERT_EQ(hue.spec().model, "Hue Hub");
  ASSERT_TRUE(hue.behavior().tls_server.has_value());

  wire_platform_clusters(devices);
  EXPECT_EQ(hue.cluster_coordinator(), &apple_tv);
  EXPECT_EQ(apple_tv.cluster_coordinator(), nullptr);
}

// -------------------------------------------------- idle-capture integration

class IdleCapture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new Lab(LabConfig{.seed = 42});
    lab_->start_all();
    lab_->run_for(SimTime::from_minutes(45));
  }
  static void TearDownTestSuite() {
    delete lab_;
    lab_ = nullptr;
  }
  static Lab* lab_;
};
Lab* IdleCapture::lab_ = nullptr;

TEST_F(IdleCapture, EveryFrameIsLocal) {
  const LocalFilter filter;
  int local = 0, total = 0;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    ++total;
    local += filter.matches(packet);
  }
  EXPECT_GT(total, 1000);
  EXPECT_EQ(local, total);  // the simulated LAN has no WAN uplink
}

TEST_F(IdleCapture, CoreProtocolsPresent) {
  HybridClassifier classifier;
  std::set<ProtocolLabel> seen;
  FlowCache flows;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    seen.insert(classifier.classify_packet(packet));
    flows.add(at, as_view(packet));
  }
  for (const ProtocolLabel expected :
       {ProtocolLabel::kArp, ProtocolLabel::kDhcp, ProtocolLabel::kEapol,
        ProtocolLabel::kIcmp, ProtocolLabel::kIgmp, ProtocolLabel::kMdns,
        ProtocolLabel::kSsdp, ProtocolLabel::kTls, ProtocolLabel::kTuyaLp,
        ProtocolLabel::kIcmpv6, ProtocolLabel::kDhcpv6,
        ProtocolLabel::kMatter, ProtocolLabel::kUnknown}) {
    EXPECT_TRUE(seen.count(expected)) << "missing " << to_string(expected);
  }
  EXPECT_GT(flows.stats().flows_created, 50u);
}

TEST_F(IdleCapture, TuyaBeaconCarriesGwid) {
  bool found = false;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (!packet.udp || value(packet.udp->dst_port) != 6666) continue;
    const auto d = decode_tuya_discovery(packet.app_payload());
    if (d && !d->gw_id.empty()) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(IdleCapture, GoogleSsdpEvery20Seconds) {
  // Count M-SEARCHes from one Google device over the window.
  const TestbedDevice* google = nullptr;
  for (const auto& device : lab_->devices())
    if (device->spec().vendor == "Google" &&
        device->spec().category == DeviceCategory::kVoiceAssistant) {
      google = device.get();
      break;
    }
  ASSERT_NE(google, nullptr);
  int msearches = 0;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (packet.eth.src != google->mac()) continue;
    if (!packet.udp || value(packet.udp->dst_port) != 1900) continue;
    if (string_of(packet.app_payload()).starts_with("M-SEARCH")) ++msearches;
  }
  // ~45 min at 20 s => ~135 expected; allow generous slack for boot time.
  EXPECT_GT(msearches, 80);
}

TEST_F(IdleCapture, InteractionsLightUpHttpAndTplinkControl) {
  // Run interactions on top of the idle state.
  lab_->run_interactions(300);
  HybridClassifier classifier;
  int http_flows = 0, tplink_tcp = 0;
  FlowCache flows({}, [&](const FlowRecord& record, PruneReason) {
    const ProtocolLabel label = classifier.classify_flow(record.to_flow());
    if (label == ProtocolLabel::kHttp) ++http_flows;
    if (label == ProtocolLabel::kTplinkShp &&
        record.key.protocol == static_cast<std::uint8_t>(IpProto::kTcp))
      ++tplink_tcp;
  });
  for (const auto& [at, packet] : lab_->capture().decoded())
    flows.add(at, as_view(packet));
  flows.flush();
  EXPECT_GT(http_flows, 0);
  EXPECT_GT(tplink_tcp, 0);
}

TEST_F(IdleCapture, LgTvRotatesFirmwareStrings) {
  // §5.1: LG TV NOTIFYs alternate between three WebOS firmware versions.
  std::set<std::string> servers;
  const TestbedDevice* lg = nullptr;
  for (const auto& device : lab_->devices())
    if (device->spec().vendor == "LG" &&
        device->spec().category == DeviceCategory::kMediaTv)
      lg = device.get();
  ASSERT_NE(lg, nullptr);
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (packet.eth.src != lg->mac() || !packet.udp) continue;
    if (value(packet.udp->dst_port) != 1900) continue;
    const auto msg = decode_ssdp(packet.app_payload());
    if (msg && msg->kind == SsdpKind::kNotify && !msg->server.empty())
      servers.insert(msg->server);
  }
  EXPECT_GE(servers.size(), 2u);  // 45-min window catches >= 2 of the 3
  for (const auto& server : servers)
    EXPECT_NE(server.find("WebOS"), std::string::npos) << server;
}

TEST_F(IdleCapture, FireTvAnnouncesBogusSlash16Location) {
  // §5.1: Fire TV NOTIFYs advertise a 192.168.0.0/16 LOCATION that does not
  // exist on this LAN (the misconfiguration finding).
  bool bogus_location = false;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (!packet.udp || value(packet.udp->dst_port) != 1900) continue;
    const auto msg = decode_ssdp(packet.app_payload());
    if (msg && msg->kind == SsdpKind::kNotify &&
        msg->location.find("192.168.0.0") != std::string::npos)
      bogus_location = true;
  }
  EXPECT_TRUE(bogus_location);
}

TEST_F(IdleCapture, PlatformInteropCrossesVendors) {
  // §4.1: Alexa controls TP-Link gear over TPLINK-SHP TCP; platforms hit the
  // Hue REST API and Roku ECP over HTTP — inter-manufacturer unicast.
  const TestbedDevice* echo = lab_->find("Echo Spot");
  const TestbedDevice* kasa = lab_->find("Kasa Plug");
  ASSERT_NE(echo, nullptr);
  ASSERT_NE(kasa, nullptr);
  bool echo_to_kasa_tcp = false;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (packet.tcp && packet.eth.src == echo->mac() &&
        packet.eth.dst == kasa->mac() &&
        value(packet.tcp->dst_port) == 9999)
      echo_to_kasa_tcp = true;
  }
  EXPECT_TRUE(echo_to_kasa_tcp);
}

TEST_F(IdleCapture, EchoMatterAdvertisementsExposeMacInstance) {
  // §7: Matter "exposes MAC addresses in mDNS discovery" — the
  // commissionable instance name is the MAC in plain hex.
  bool matter_mac_instance = false;
  for (const auto& [at, packet] : lab_->capture().decoded()) {
    if (!packet.udp || value(packet.udp->dst_port) != 5353) continue;
    const auto msg = decode_dns(packet.app_payload());
    if (!msg || !msg->is_response) continue;
    const auto node = parse_matter_advertisement(*msg);
    if (!node) continue;
    const auto mac = MacAddress::parse(node->instance);
    matter_mac_instance |= mac.has_value() && mac == packet.eth.src;
  }
  EXPECT_TRUE(matter_mac_instance);
}

// -------------------------------------------- per-device parameterized sweep

/// Invariants that must hold for every one of the 93 catalog devices.
class CatalogSweep : public ::testing::TestWithParam<int> {};

TEST_P(CatalogSweep, BehaviorProfileIsWellFormed) {
  const std::size_t index = static_cast<std::size_t>(GetParam());
  const DeviceSpec& spec = moniotr_catalog()[index];
  const DeviceBehavior b = behavior_for(spec, index);

  // Intervals are non-negative and sane (nothing faster than 1 s).
  for (const double interval :
       {b.eapol_interval_s, b.icmpv6_interval_s, b.ping_gateway_interval_s,
        b.mdns_query_interval_s, b.ssdp_msearch_interval_s,
        b.ssdp_notify_interval_s, b.tplink_scan_interval_s, b.tuya_interval_s,
        b.coap_query_interval_s, b.lifx_beacon_interval_s,
        b.unknown_beacon_interval_s, b.rtp_interval_s,
        b.cluster_tls_interval_s, b.http_poll_interval_s,
        b.matter_interval_s, b.cluster_udp_interval_s}) {
    EXPECT_GE(interval, 0) << spec.vendor << " " << spec.model;
    if (interval > 0) {
      EXPECT_GE(interval, 1.0);
    }
  }
  if (b.tls_server) {
    EXPECT_GT(b.tls_server->port, 0);
    EXPECT_GT(b.tls_server->key_bits, 0);
    EXPECT_GT(b.tls_server->validity_days, 0u);
  }
  if (b.mdns_query_interval_s > 0) {
    EXPECT_FALSE(b.mdns_query_types.empty());
  }
  if (b.ssdp_msearch_interval_s > 0) {
    EXPECT_FALSE(b.ssdp_search_targets.empty());
  }
  if (b.unknown_beacon_interval_s > 0) {
    EXPECT_NE(b.unknown_beacon_port, 0);
  }
  // Every open service port is valid.
  for (const auto& http : b.http_servers) EXPECT_GT(http.port, 0);
}

TEST_P(CatalogSweep, DeviceIdentityExpansion) {
  const std::size_t index = static_cast<std::size_t>(GetParam());
  const DeviceSpec& spec = moniotr_catalog()[index];
  EventLoop loop;
  Switch net(loop);
  Rng rng(99);
  TestbedDevice device(net, spec, behavior_for(spec, index),
                       MacAddress::from_u64(0x02a000900000ull + index), rng);

  // Placeholders expand to device-specific values.
  const std::string mac_tail = device.expand("{MACTAIL}");
  EXPECT_EQ(mac_tail.size(), 6u);
  EXPECT_EQ(device.expand("{MAC}"), device.mac().to_string());
  EXPECT_EQ(device.expand("{UUID}"), device.uuid().to_string());
  EXPECT_NE(device.expand("{MODEL}").find(spec.model), std::string::npos);
  // No placeholder survives expansion.
  const std::string all = device.expand("{MAC}{MACPLAIN}{MACTAIL}{UUID}{NAME}{MODEL}{SERIAL}");
  EXPECT_EQ(all.find('{'), std::string::npos);

  // The DHCP hostname honors the policy.
  const std::string hostname = device.dhcp_hostname();
  switch (device.behavior().hostname_policy) {
    case HostnamePolicy::kNone:
      EXPECT_TRUE(hostname.empty());
      break;
    case HostnamePolicy::kNameWithMac:
      EXPECT_NE(hostname.find(device.mac().to_string_plain()),
                std::string::npos);
      break;
    case HostnamePolicy::kVendorPartialMac:
      EXPECT_NE(hostname.find(spec.vendor), std::string::npos);
      break;
    default:
      EXPECT_FALSE(hostname.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllNinetyThree, CatalogSweep,
                         ::testing::Range(0, 93));

}  // namespace
}  // namespace roomnet
