// Tests for the classification substrate: spec/deep/hybrid classifiers,
// the documented error modes, cross-validation, FFT/autocorrelation
// periodicity, and discovery-response correlation.
#include <gtest/gtest.h>

#include <cmath>

#include <deque>

#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "classify/crossval.hpp"
#include "classify/periodicity.hpp"
#include "classify/response.hpp"
#include "netcore/rng.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/media.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "sim/host.hpp"
#include "wire_frame.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(0x02a000000000ull | n); }

WireFrame udp_packet(std::uint16_t sport, std::uint16_t dport,
                     BytesView payload, MacAddress src_mac = mac_n(1),
                     MacAddress dst_mac = mac_n(2),
                     Ipv4Address dst = Ipv4Address(192, 168, 10, 6)) {
  return udp_frame(src_mac, dst_mac, Ipv4Address(192, 168, 10, 5), sport, dst,
                   dport, payload);
}

WireFrame tcp_packet(std::uint16_t sport, std::uint16_t dport,
                     BytesView payload) {
  return tcp_frame(mac_n(1), mac_n(2), Ipv4Address(192, 168, 10, 5), sport,
                   Ipv4Address(192, 168, 10, 6), dport, {}, payload);
}

Flow flow_of(const std::vector<WireFrame>& frames) {
  // The Flow's payload views alias its FlowRecord; the call sites keep only
  // the Flow, so park each record in a process-lifetime arena.
  static std::deque<FlowRecord> arena;
  const std::size_t first = arena.size();
  FlowCache cache({}, [](const FlowRecord& record, PruneReason) {
    arena.push_back(record);
  });
  SimTime at;
  for (const auto& frame : frames) {
    cache.add(at, frame.view);
    at += SimTime::from_ms(5);
  }
  cache.flush();
  return arena.at(first).to_flow();
}

// ------------------------------------------------------- both classifiers

TEST(Classifiers, AgreeOnCommonProtocols) {
  SpecClassifier spec;
  DeepClassifier deep;

  DnsMessage mdns;
  mdns.questions.push_back({DnsName::from_string("_hue._tcp.local"),
                            DnsType::kPtr, false});
  const WireFrame mdns_pkt = udp_packet(5353, 5353, encode_dns(mdns));
  EXPECT_EQ(spec.classify_packet(mdns_pkt.view), ProtocolLabel::kMdns);
  EXPECT_EQ(deep.classify_packet(mdns_pkt.view), ProtocolLabel::kMdns);

  DhcpMessage dhcp;
  dhcp.set_message_type(DhcpMessageType::kDiscover);
  const WireFrame dhcp_pkt = udp_packet(68, 67, encode_dhcp(dhcp));
  EXPECT_EQ(spec.classify_packet(dhcp_pkt.view), ProtocolLabel::kDhcp);
  EXPECT_EQ(deep.classify_packet(dhcp_pkt.view), ProtocolLabel::kDhcp);

  SsdpMessage msearch;
  msearch.kind = SsdpKind::kMSearch;
  msearch.search_target = "ssdp:all";
  const WireFrame ssdp_pkt = udp_packet(50000, 1900, encode_ssdp(msearch));
  EXPECT_EQ(spec.classify_packet(ssdp_pkt.view), ProtocolLabel::kSsdp);
  EXPECT_EQ(deep.classify_packet(ssdp_pkt.view), ProtocolLabel::kSsdp);

  Rng rng(1);
  TlsClientHello hello;
  hello.random = rng.bytes(32);
  hello.cipher_suites = {0x1301};
  const WireFrame tls_pkt = tcp_packet(50001, 8009, encode_client_hello(hello));
  EXPECT_EQ(spec.classify_packet(tls_pkt.view), ProtocolLabel::kTls);
  EXPECT_EQ(deep.classify_packet(tls_pkt.view), ProtocolLabel::kTls);

  const WireFrame arp_pkt = arp_frame(mac_n(1), MacAddress::kBroadcast, {});
  EXPECT_EQ(spec.classify_packet(arp_pkt.view), ProtocolLabel::kArp);
  EXPECT_EQ(deep.classify_packet(arp_pkt.view), ProtocolLabel::kArp);
}

TEST(Classifiers, TplinkUdpRecognized) {
  SpecClassifier spec;
  DeepClassifier deep;
  const WireFrame pkt =
      udp_packet(9999, 9999, encode_tplink_udp(tplink_get_sysinfo_request()));
  EXPECT_EQ(spec.classify_packet(pkt.view), ProtocolLabel::kTplinkShp);
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kTplinkShp);
}

TEST(Classifiers, TuyaRecognized) {
  DeepClassifier deep;
  TuyaDiscovery d;
  d.gw_id = "gw";
  const WireFrame pkt = udp_packet(6666, 6666, encode_tuya_discovery(d));
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kTuyaLp);
  SpecClassifier spec;
  EXPECT_EQ(spec.classify_packet(pkt.view), ProtocolLabel::kTuyaLp);
}

// -------------------------------------------- documented error modes (C.2)

TEST(SpecClassifier, SsdpUnicastResponseFlowBecomesGenericUdp) {
  // Response flow: TV:1900 -> phone:50123. First packet source = TV.
  SsdpMessage res;
  res.kind = SsdpKind::kResponse;
  res.search_target = "upnp:rootdevice";
  const WireFrame pkt = udp_packet(1900, 50123, encode_ssdp(res));
  const Flow flow = flow_of({pkt});
  SpecClassifier spec;
  DeepClassifier deep;
  EXPECT_EQ(spec.classify_flow(flow), ProtocolLabel::kGenericUdp);
  EXPECT_EQ(deep.classify_flow(flow), ProtocolLabel::kSsdp);  // nDPI gets it
}

TEST(SpecClassifier, OverTriggersTplinkOnD0Byte) {
  // An unknown vendor beacon that happens to start with 0xd0.
  Bytes beacon = {0xd0, 0x42, 0x42, 0x42};
  const WireFrame pkt = udp_packet(56700, 56700, beacon);
  SpecClassifier spec;
  DeepClassifier deep;
  EXPECT_EQ(spec.classify_packet(pkt.view), ProtocolLabel::kTplinkShp);
  // Deep decrypts and sees non-JSON -> stays unknown.
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kUnknown);
}

TEST(DeepClassifier, IgdSearchMislabeledCiscoVpn) {
  SsdpMessage msearch;
  msearch.kind = SsdpKind::kMSearch;
  msearch.search_target =
      "urn:schemas-upnp-org:device:InternetGatewayDevice:1";
  const WireFrame pkt = udp_packet(50000, 1900, encode_ssdp(msearch));
  DeepClassifier deep;
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kCiscoVpn);
  // The hybrid's manual rule corrects it.
  HybridClassifier hybrid;
  EXPECT_EQ(hybrid.classify_packet(pkt.view), ProtocolLabel::kSsdp);
}

TEST(DeepClassifier, NintendoEapolMislabeledAmazonAws) {
  const auto nintendo_oui = OuiRegistry::builtin().oui_of("Nintendo");
  ASSERT_TRUE(nintendo_oui.has_value());
  const WireFrame pkt = eapol_frame(
      MacAddress::from_u64((static_cast<std::uint64_t>(*nintendo_oui) << 24) | 1),
      MacAddress::kBroadcast, {});
  DeepClassifier deep;
  SpecClassifier spec;
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kAmazonAws);
  EXPECT_EQ(spec.classify_packet(pkt.view), ProtocolLabel::kEapol);
  HybridClassifier hybrid;
  EXPECT_EQ(hybrid.classify_packet(pkt.view), ProtocolLabel::kEapol);
}

TEST(BothClassifiers, GoogleRtpOn10000RangeLabeledStun) {
  RtpPacket rtp;
  rtp.payload = Bytes(32, 0x11);
  const WireFrame pkt = udp_packet(10002, 10004, encode_rtp(rtp));
  SpecClassifier spec;
  DeepClassifier deep;
  EXPECT_EQ(spec.classify_packet(pkt.view), ProtocolLabel::kStun);
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kStun);
  // Hybrid's controlled-experiment rule recovers RTP.
  HybridClassifier hybrid;
  EXPECT_EQ(hybrid.classify_packet(pkt.view), ProtocolLabel::kRtp);
}

TEST(DeepClassifier, RtpOffGoogleRangeIsRtp) {
  RtpPacket rtp;
  rtp.payload = Bytes(16, 0x22);
  const WireFrame pkt = udp_packet(55444, 55444, encode_rtp(rtp));
  DeepClassifier deep;
  EXPECT_EQ(deep.classify_packet(pkt.view), ProtocolLabel::kRtp);
}

// --------------------------------------------------------- cross-validation

TEST(CrossValidation, CountsAgreementAndDisagreement) {
  std::vector<Flow> flows;
  // Agreeing flow: mDNS.
  DnsMessage mdns;
  mdns.questions.push_back({DnsName::from_string("_x._tcp.local"),
                            DnsType::kPtr, false});
  flows.push_back(flow_of({udp_packet(5353, 5353, encode_dns(mdns))}));
  // Disagreeing flow: SSDP unicast response.
  SsdpMessage res;
  res.kind = SsdpKind::kResponse;
  res.search_target = "upnp:rootdevice";
  flows.push_back(flow_of({udp_packet(1900, 50123, encode_ssdp(res))}));
  // Unlabeled-by-both flow: random payload on random ports.
  flows.push_back(flow_of({udp_packet(40000, 40001, Bytes{0x99, 0x98, 0x97})}));

  CrossValidator validator;
  for (const Flow& flow : flows) validator.on_flow(flow);
  const CrossValidation cv = validator.finish();
  EXPECT_EQ(cv.total, 3u);
  EXPECT_EQ(cv.agreed, 1u);
  EXPECT_EQ(cv.disagreed, 1u);
  EXPECT_EQ(cv.neither_labeled, 1u);
  EXPECT_NEAR(cv.agreement_rate(), 1.0 / 3, 1e-9);
  // The (GenericUdp, Ssdp) cell exists in the matrix.
  EXPECT_EQ(
      (cv.matrix.at({ProtocolLabel::kGenericUdp, ProtocolLabel::kSsdp})), 1u);
}

// ------------------------------------------------------------- periodicity

TEST(Fft, InverseRecoversInput) {
  Rng rng(3);
  std::vector<std::complex<double>> data(64);
  std::vector<std::complex<double>> original(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.uniform(), rng.uniform()};
    original[i] = data[i];
  }
  fft(data);
  fft(data, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, SingleToneSpectrum) {
  const std::size_t n = 128;
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = std::cos(2 * 3.14159265358979 * 8 * static_cast<double>(i) /
                       static_cast<double>(n));
  fft(data);
  // Energy concentrated at bins 8 and n-8.
  double peak = std::abs(data[8]);
  for (std::size_t k = 1; k < n / 2; ++k) {
    if (k == 8) continue;
    EXPECT_LT(std::abs(data[k]), peak / 10);
  }
}

TEST(Autocorrelation, PeriodicSeriesPeaksAtPeriod) {
  std::vector<double> series(256, 0.0);
  for (std::size_t i = 0; i < series.size(); i += 16) series[i] = 1.0;
  const auto ac = autocorrelation(series);
  EXPECT_NEAR(ac[0], 1.0, 1e-9);
  EXPECT_GT(ac[16], 0.8);
  EXPECT_LT(ac[8], 0.3);
}

TEST(Periodicity, DetectsTwentySecondBeacon) {
  std::vector<SimTime> events;
  for (int i = 0; i < 180; ++i)
    events.push_back(SimTime::from_seconds(i * 20.0));
  const auto result =
      detect_periodicity(events, SimTime::from_seconds(3600));
  ASSERT_TRUE(result.periodic);
  // Bin width is 3600/4096 s; accept a coarse match.
  EXPECT_NEAR(result.period_seconds, 20.0, 2.0);
}

TEST(Periodicity, RejectsPoissonArrivals) {
  Rng rng(17);
  std::vector<SimTime> events;
  double t = 0;
  while (t < 3600) {
    t += -20.0 * std::log(1.0 - rng.uniform());  // exp(mean 20s)
    events.push_back(SimTime::from_seconds(t));
  }
  const auto result = detect_periodicity(events, SimTime::from_seconds(3600));
  EXPECT_FALSE(result.periodic);
}

TEST(Periodicity, TooFewEventsIsNotPeriodic) {
  const std::vector<SimTime> events = {SimTime::from_seconds(1),
                                       SimTime::from_seconds(2)};
  EXPECT_FALSE(detect_periodicity(events, SimTime::from_seconds(100)).periodic);
}

TEST(Periodicity, TwoHourBeaconOverFiveDays) {
  // Echo's Lifx beacon: every 2 hours across a 5-day idle capture (§5.1).
  std::vector<SimTime> events;
  for (int i = 0; i < 60; ++i) events.push_back(SimTime::from_hours(i * 2.0));
  PeriodicityParams params;
  params.bin_seconds = 600;  // 10-minute bins for a long window
  const auto result =
      detect_periodicity(events, SimTime::from_days(5), params);
  ASSERT_TRUE(result.periodic);
  EXPECT_NEAR(result.period_seconds, 7200, 600);
}

// ------------------------------------------------- response correlation

/// Feeds a time-ordered capture through the correlator, as the pipeline's
/// tap does.
ResponseStats correlate(
    const std::vector<std::pair<SimTime, WireFrame>>& capture) {
  ResponseCorrelator correlator;
  for (const auto& [at, frame] : capture) correlator.on_packet(at, frame.view);
  return correlator.finish();
}

TEST(ResponseCorrelation, PairsDiscoveryWithUnicastReply) {
  std::vector<std::pair<SimTime, WireFrame>> capture;

  // Phone multicasts an SSDP M-SEARCH at t=0 from port 50000.
  SsdpMessage msearch;
  msearch.kind = SsdpKind::kMSearch;
  msearch.search_target = "ssdp:all";
  capture.emplace_back(SimTime::from_seconds(0),
                       udp_packet(50000, 1900, encode_ssdp(msearch), mac_n(10),
                                  multicast_mac_v4(kSsdpGroupV4), kSsdpGroupV4));

  // TV replies unicast at t=1 to phone:50000.
  SsdpMessage res;
  res.kind = SsdpKind::kResponse;
  res.search_target = "upnp:rootdevice";
  capture.emplace_back(SimTime::from_seconds(1),
                       udp_packet(1900, 50000, encode_ssdp(res), mac_n(20),
                                  mac_n(10)));

  const auto stats = correlate(capture);
  EXPECT_EQ(stats.match_count, 1u);
  EXPECT_NE(stats.match_hash.hex(), Sha256().hex());
  EXPECT_TRUE(stats.answered_protocols.at(mac_n(10)).count(ProtocolLabel::kSsdp));
  EXPECT_EQ(stats.responders.at(mac_n(10)),
            std::set<MacAddress>{mac_n(20)});
}

TEST(ResponseCorrelation, LateReplyOutsideWindowIgnored) {
  std::vector<std::pair<SimTime, WireFrame>> capture;
  SsdpMessage msearch;
  msearch.kind = SsdpKind::kMSearch;
  msearch.search_target = "ssdp:all";
  capture.emplace_back(SimTime::from_seconds(0),
                       udp_packet(50000, 1900, encode_ssdp(msearch), mac_n(10),
                                  multicast_mac_v4(kSsdpGroupV4)));

  SsdpMessage res;
  res.kind = SsdpKind::kResponse;
  res.search_target = "upnp:rootdevice";
  capture.emplace_back(SimTime::from_seconds(10),  // > 3 s window
                       udp_packet(1900, 50000, encode_ssdp(res), mac_n(20),
                                  mac_n(10)));

  const auto stats = correlate(capture);
  EXPECT_EQ(stats.match_count, 0u);
  // Discovery usage is still recorded.
  EXPECT_TRUE(stats.discovery_protocols.at(mac_n(10)).count(ProtocolLabel::kSsdp));
}

TEST(ResponseCorrelation, ArpAndDhcpExcludedFromTable4) {
  std::vector<std::pair<SimTime, WireFrame>> capture;
  capture.emplace_back(SimTime{},
                       arp_frame(mac_n(1), MacAddress::kBroadcast, {}));
  const auto stats = correlate(capture);
  EXPECT_TRUE(stats.discovery_protocols.empty());
}

}  // namespace
}  // namespace roomnet
