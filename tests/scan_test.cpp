// Tests for active scanning and vulnerability detection against the
// simulated testbed (§4.2 / §5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "prof/counters.hpp"
#include "scan/portscan.hpp"
#include "scan/vuln.hpp"
#include "sim/network.hpp"
#include "telemetry/metrics.hpp"
#include "testbed/lab.hpp"

namespace roomnet {
namespace {

/// Shared lab + scan results (scanning is the slow part; do it once).
class ScanFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new Lab(LabConfig{.seed = 11, .record_frames = false});
    lab_->start_all();
    lab_->run_for(SimTime::from_minutes(5));

    scan_box_ = new Host(lab_->network(),
                         MacAddress::from_u64(0x02a0fc000001ull), "scanbox");
    scan_box_->set_static_ip(Ipv4Address(192, 168, 10, 250));

    std::vector<ScanTarget> targets;
    for (const auto& device : lab_->devices()) {
      if (!device->host().has_ip()) continue;
      targets.push_back({device->mac(), device->host().ip(),
                         device->spec().vendor + " " + device->spec().model});
    }
    // A trimmed port list keeps the fixture fast while covering every
    // service the profiles open.
    PortScanConfig config;
    config.tcp_ports = {21,    22,    23,    53,    80,    443,   554,
                        1830,  4070,  8001,  8008,  8009,  8060,  8080,
                        8443,  9999,  49152, 49153, 55442, 55443};
    config.udp_ports = {53, 67, 123, 137, 1900, 5353, 5683, 6666, 9999};
    scanner_ = new PortScanner(*scan_box_, config);
    scanner_->start(targets);
    lab_->run_for(scanner_->estimated_duration());

    prober_ = new ServiceProber(*scan_box_);
    prober_->start(scanner_->reports());
    lab_->run_for(prober_->estimated_duration());
  }
  static void TearDownTestSuite() {
    delete prober_;
    delete scanner_;
    delete scan_box_;
    delete lab_;
    prober_ = nullptr;
    scanner_ = nullptr;
    scan_box_ = nullptr;
    lab_ = nullptr;
  }

  static const PortScanReport* report_for(std::string_view needle) {
    for (const auto& report : scanner_->reports())
      if (report.target.label.find(needle) != std::string::npos) return &report;
    return nullptr;
  }
  static const DeviceAudit* audit_for(std::string_view needle) {
    for (const auto& audit : prober_->audits())
      if (audit.target.label.find(needle) != std::string::npos) return &audit;
    return nullptr;
  }

  static Lab* lab_;
  static Host* scan_box_;
  static PortScanner* scanner_;
  static ServiceProber* prober_;
};
Lab* ScanFixture::lab_ = nullptr;
Host* ScanFixture::scan_box_ = nullptr;
PortScanner* ScanFixture::scanner_ = nullptr;
ServiceProber* ScanFixture::prober_ = nullptr;

bool has_port(const std::vector<std::uint16_t>& ports, std::uint16_t p) {
  return std::find(ports.begin(), ports.end(), p) != ports.end();
}

TEST_F(ScanFixture, EchoExposesAmazonPorts) {
  const auto* echo = report_for("Echo Spot");
  ASSERT_NE(echo, nullptr);
  EXPECT_TRUE(has_port(echo->open_tcp, 55442));
  EXPECT_TRUE(has_port(echo->open_tcp, 55443));
  EXPECT_TRUE(has_port(echo->open_tcp, 4070));
  EXPECT_TRUE(echo->responded_tcp);
}

TEST_F(ScanFixture, GoogleExposes8009) {
  const auto* nest = report_for("Nest Hub");
  ASSERT_NE(nest, nullptr);
  EXPECT_TRUE(has_port(nest->open_tcp, 8009));
  EXPECT_TRUE(has_port(nest->open_tcp, 8008));
}

TEST_F(ScanFixture, QuietDeviceHasNoOpenPorts) {
  const auto* scale = report_for("Renpho");
  ASSERT_NE(scale, nullptr);
  EXPECT_TRUE(scale->open_tcp.empty());
}

TEST_F(ScanFixture, UdpProbesElicitResponsesOnlyWithRightPayload) {
  const auto* tplink = report_for("Kasa Plug");
  ASSERT_NE(tplink, nullptr);
  EXPECT_TRUE(has_port(tplink->open_udp, 9999));
  // mDNS devices answer the DNS-SD meta-query.
  const auto* hue = report_for("Hue Hub");
  ASSERT_NE(hue, nullptr);
  EXPECT_TRUE(has_port(hue->open_udp, 5353));
}

TEST_F(ScanFixture, ManyDevicesRespondToTcpFewToUdp) {
  int tcp = 0, udp = 0, ip = 0;
  for (const auto& report : scanner_->reports()) {
    tcp += report.responded_tcp;
    udp += report.responded_udp;
    ip += report.responded_ip;
  }
  // Paper shape (§4.2): 54 TCP responders > 20 UDP responders; 58 IP.
  EXPECT_GT(tcp, udp);
  EXPECT_GT(tcp, 30);
  EXPECT_GT(ip, tcp / 2);
}

TEST_F(ScanFixture, NmapStyleInferenceIsWrongForIotPorts) {
  // Port 8009 is Cast TLS, but the port table says AJP (§3.5's complaint).
  EXPECT_EQ(infer_service_from_port(8009, false), "ajp13");
  const auto* nest = audit_for("Nest Hub");
  ASSERT_NE(nest, nullptr);
  const auto it = std::find_if(
      nest->services.begin(), nest->services.end(),
      [](const ServiceObservation& s) { return s.port == 8009 && !s.udp; });
  ASSERT_NE(it, nest->services.end());
  EXPECT_EQ(it->inferred_service, "ajp13");
  EXPECT_EQ(it->corrected_service, "tls");  // the banner-validated truth
}

TEST_F(ScanFixture, GoogleCertificateHasWeakKeyAndPrivatePki) {
  const auto* nest = audit_for("Nest Hub");
  ASSERT_NE(nest, nullptr);
  for (const auto& service : nest->services) {
    if (service.port != 8009 || service.udp) continue;
    ASSERT_TRUE(service.certificate.has_value());
    EXPECT_LT(service.certificate->key_bits, 128);
    EXPECT_FALSE(service.certificate->self_signed());
    EXPECT_NEAR(service.certificate->validity_years(), 20, 0.2);
    return;
  }
  FAIL() << "no 8009 observation";
}

TEST_F(ScanFixture, EchoCertificateSelfSignedNinetyDays) {
  const auto* echo = audit_for("Echo Show 5");
  ASSERT_NE(echo, nullptr);
  for (const auto& service : echo->services) {
    if (service.port != 55443 || !service.certificate) continue;
    EXPECT_TRUE(service.certificate->self_signed());
    EXPECT_EQ(service.certificate->validity_days, 90u);
    // CN is a local IP (§5.2).
    EXPECT_TRUE(service.certificate->subject_cn.starts_with("192.168."));
    return;
  }
  FAIL() << "no 55443 certificate";
}

TEST_F(ScanFixture, VulnScannerReproducesPaperFindings) {
  const auto findings = scan_vulnerabilities(prober_->audits());
  const auto has = [&](std::string_view id, std::string_view device) {
    return std::any_of(findings.begin(), findings.end(),
                       [&](const VulnFinding& f) {
                         return f.id == id &&
                                f.device.find(device) != std::string::npos;
                       });
  };
  // Google port-8009 weak key (high severity, CVE-2016-2183).
  EXPECT_TRUE(has("CVE-2016-2183", "Google"));
  // SheerDNS on the HomePod Mini.
  EXPECT_TRUE(has("nessus-11535", "HomePod Mini"));
  // DNS cache snooping on HomePod Mini and WeMo.
  EXPECT_TRUE(has("nessus-12217", "HomePod Mini"));
  EXPECT_TRUE(has("nessus-12217", "WeMo"));
  // Microseven: jQuery 1.2 XSS + unauthenticated snapshot + account list.
  EXPECT_TRUE(has("CVE-2020-11022", "Microseven"));
  EXPECT_TRUE(has("roomnet-onvif-snapshot", "Microseven"));
  EXPECT_TRUE(has("roomnet-account-enum", "Microseven"));
  // Lefun backup exposure.
  EXPECT_TRUE(has("roomnet-backup-exposure", "Lefun"));
  // Telnet on the cheap cameras.
  EXPECT_TRUE(has("roomnet-telnet", "ICSee"));
  // Long-lived certificates on D-Link/SmartThings/Hue.
  EXPECT_TRUE(has("roomnet-cert-longlived", "D-Link"));
  EXPECT_TRUE(has("roomnet-cert-longlived", "SmartThings"));
}

TEST_F(ScanFixture, FindingsCarrySeverityAndEvidence) {
  const auto findings = scan_vulnerabilities(prober_->audits());
  ASSERT_FALSE(findings.empty());
  int high = 0;
  for (const auto& f : findings) {
    EXPECT_FALSE(f.title.empty());
    EXPECT_FALSE(f.evidence.empty());
    high += f.severity == Severity::kHigh;
  }
  EXPECT_GT(high, 5);  // 11 Google weak keys + camera exposures
}

TEST(PortScanConfigTest, DefaultsAndFullRange) {
  const PortScanConfig config;
  EXPECT_GE(config.tcp_ports.size(), 1024u);
  EXPECT_TRUE(std::find(config.tcp_ports.begin(), config.tcp_ports.end(),
                        55443) != config.tcp_ports.end());
  const auto all = PortScanConfig::tcp_all();
  EXPECT_EQ(all.size(), 65535u);
  EXPECT_EQ(all.front(), 1);
  EXPECT_EQ(all.back(), 65535);
}

TEST(PortScanSweepTest, KeepsOneProbePendingAndSendsEveryProbe) {
  // The sweep is lazy: start() arms one probe, and each fired probe arms
  // the next. So the queue holds the armed probe plus the few deliveries
  // and answers in flight — never the sweep itself.
  EventLoop loop;
  Switch net{loop};
  Host scan_box(net, MacAddress::from_u64(0x02a0fc0000aaull), "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 251));
  Host a(net, MacAddress::from_u64(0x02a000000001ull), "a");
  Host b(net, MacAddress::from_u64(0x02a000000002ull), "b");
  a.set_static_ip(Ipv4Address(192, 168, 10, 2));
  b.set_static_ip(Ipv4Address(192, 168, 10, 3));
  const std::vector<ScanTarget> targets = {{a.mac(), a.ip(), "a"},
                                           {b.mac(), b.ip(), "b"}};
  const PortScanConfig config;
  PortScanner scanner(scan_box, config);
  const std::size_t per_target = config.tcp_ports.size() +
                                 config.udp_ports.size() +
                                 config.ip_protocols.size();
  ASSERT_GT(per_target, 1000u);
  const telemetry::Counter& probes_sent =
      telemetry::Registry::global().counter("roomnet_scan_probes_sent_total");
  const std::uint64_t sent_before = probes_sent.value();

  const std::size_t pending_before = loop.pending();
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  scanner.start(targets);
  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();
  EXPECT_EQ(loop.pending(), pending_before + 1);
  if (prof::heap_hooks_active()) {
    // start() allocates a fixed amount (reports, ARP entries, the one
    // armed probe), not one heap block per probe.
    EXPECT_LT(after.heap_allocs - before.heap_allocs, per_target / 20);
  }

  // The armed probe, plus the probe/answer frames of one exchange in
  // flight (each probe is 2 ms apart, far beyond a LAN round trip), plus
  // slack for a reset and an unreachable crossing on the wire.
  constexpr std::size_t kMaxPending = 8;
  std::size_t max_pending = 0;
  const SimTime end = loop.now() + scanner.estimated_duration();
  while (loop.now() < end) {
    loop.run_until(std::min(end, loop.now() + SimTime::from_ms(37)));
    max_pending = std::max(max_pending, loop.pending());
  }
  EXPECT_LE(max_pending, kMaxPending);
  EXPECT_EQ(probes_sent.value() - sent_before, targets.size() * per_target);
  EXPECT_EQ(loop.pending(), 0u);
  scanner.start(targets);  // the finished sweep may be started again
  EXPECT_THROW(scanner.start(targets), std::logic_error);
}

/// Boots a seed-11 lab for five minutes and scans every addressed device
/// with a trimmed port list and the given retry budget.
std::vector<PortScanReport> scan_lossless_lab(int max_retries) {
  Lab lab(LabConfig{.seed = 11, .record_frames = false});
  lab.start_all();
  lab.run_for(SimTime::from_minutes(5));
  Host scan_box(lab.network(), MacAddress::from_u64(0x02a0fc000001ull),
                "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 250));
  std::vector<ScanTarget> targets;
  for (const auto& device : lab.devices()) {
    if (!device->host().has_ip()) continue;
    targets.push_back({device->mac(), device->host().ip(),
                       device->spec().vendor + " " + device->spec().model});
  }
  PortScanConfig config;
  config.tcp_ports = {22, 80, 443, 554, 8008, 8009, 8443, 49152, 55443};
  config.udp_ports = {53, 123, 1900, 5353, 6666};
  config.max_retries = max_retries;
  PortScanner scanner(scan_box, config);
  scanner.start(targets);
  lab.run_for(scanner.estimated_duration());
  return scanner.reports();
}

TEST(PortScanRetryTest, LosslessRetriesFindWhatTheDefaultScanFinds) {
  // A retry budget only resends unanswered probes, so on a lossless lab it
  // must not change what the scan reports.
  const telemetry::Counter& retries = telemetry::Registry::global().counter(
      "roomnet_faults_probe_retries_total");
  const std::vector<PortScanReport> plain = scan_lossless_lab(0);
  const std::uint64_t retries_before = retries.value();
  const std::vector<PortScanReport> retried = scan_lossless_lab(1);
  EXPECT_GT(retries.value(), retries_before);  // silent probes were resent
  ASSERT_EQ(plain.size(), retried.size());
  ASSERT_TRUE(std::any_of(plain.begin(), plain.end(), [](const auto& r) {
    return !r.open_tcp.empty() && r.responded_udp;
  }));
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(plain[i].target.label);
    EXPECT_EQ(plain[i].target.ip, retried[i].target.ip);
    EXPECT_EQ(plain[i].open_tcp, retried[i].open_tcp);
    EXPECT_EQ(plain[i].open_udp, retried[i].open_udp);
    EXPECT_EQ(plain[i].closed_udp, retried[i].closed_udp);
    EXPECT_EQ(plain[i].ip_protocols, retried[i].ip_protocols);
    EXPECT_EQ(plain[i].responded_tcp, retried[i].responded_tcp);
    EXPECT_EQ(plain[i].responded_udp, retried[i].responded_udp);
    EXPECT_EQ(plain[i].responded_ip, retried[i].responded_ip);
  }
}

TEST(PortScanSweepTest, DuplicatedAnswersListEachPortOnceInProbeOrder) {
  // Every frame is delivered twice, so each probe draws two answers and
  // each answer arrives twice. The findings still list every port once, in
  // the order the ports were probed; port 3 is probed twice.
  EventLoop loop;
  Switch net{loop};
  net.set_fault_hook([](std::size_t) { return Switch::FrameFate{.copies = 2}; });
  Host scan_box(net, MacAddress::from_u64(0x02a0fc0000aaull), "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 251));
  Host target(net, MacAddress::from_u64(0x02a000000001ull), "target");
  target.set_static_ip(Ipv4Address(192, 168, 10, 2));
  // Port 11 answers from a port the scan never probed: that finding takes
  // the search fallback and is still listed once.
  target.open_udp(11, [](Host& host, const PacketView& packet,
                         const UdpDatagram& udp) {
    host.send_udp(packet.ipv4->src, 7777, value(udp.src_port),
                  bytes_of("hi"));
  });
  PortScanConfig config;
  config.tcp_ports = {80};
  config.udp_ports = {7, 5353, 3, 1900, 11, 9, 53, 161, 3};
  config.ip_protocols = {};
  PortScanner scanner(scan_box, config);
  scanner.start({{target.mac(), target.ip(), "target"}});
  loop.run_until(loop.now() + scanner.estimated_duration());
  ASSERT_EQ(scanner.reports().size(), 1u);
  const PortScanReport& report = scanner.reports()[0];
  EXPECT_EQ(report.closed_udp,
            (std::vector<std::uint16_t>{7, 5353, 3, 1900, 9, 53, 161}));
  EXPECT_EQ(report.open_udp, (std::vector<std::uint16_t>{7777}));
  EXPECT_TRUE(report.open_tcp.empty());
  EXPECT_TRUE(report.responded_tcp);  // port 80 answered RST
}

TEST(PortScanSweepTest, RejectsNegativeSpacing) {
  EventLoop loop;
  Switch net{loop};
  Host scan_box(net, MacAddress::from_u64(0x02a0fc0000aaull), "scanbox");
  PortScanConfig config;
  config.probe_spacing_s = -0.001;
  EXPECT_THROW(PortScanner(scan_box, config), std::invalid_argument);
}

}  // namespace
}  // namespace roomnet
