// §5.2 TLS findings: per-vendor protocol versions, certificate lifetimes,
// issuer policies, and the port-8009 weak-key vulnerability.
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Table 7 (§5.2)", "local TLS deployment profiles per vendor");
  Lab lab(LabConfig{.seed = 42, .record_frames = false});
  lab.start_all();
  lab.run_idle(SimTime::from_minutes(10));

  Host scan_box(lab.network(), MacAddress::from_u64(0x02a0fc0000e1ull),
                "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 250));
  std::vector<ScanTarget> targets;
  for (const auto& device : lab.devices())
    if (device->host().has_ip())
      targets.push_back({device->mac(), device->host().ip(),
                         device->spec().vendor + " " + device->spec().model});

  PortScanConfig config;
  config.tcp_ports = {443, 8009, 8443, 49152, 55443};
  config.udp_ports = {};
  PortScanner scanner(scan_box, config);
  scanner.start(targets);
  lab.run_for(scanner.estimated_duration());
  ServiceProber prober(scan_box);
  prober.start(scanner.reports());
  lab.run_for(prober.estimated_duration());

  struct VendorTls {
    std::set<std::string> versions;
    std::set<std::string> issuers;
    double min_years = 1e9, max_years = 0;
    int self_signed = 0, certs = 0, weak_keys = 0, opaque = 0;
  };
  std::map<std::string, VendorTls> vendors;
  for (const auto& audit : prober.audits()) {
    const std::string vendor =
        audit.target.label.substr(0, audit.target.label.find(' '));
    auto& agg = vendors[vendor];
    for (const auto& service : audit.services) {
      if (service.tls_version)
        agg.versions.insert(to_string(*service.tls_version));
      if (service.certificate) {
        ++agg.certs;
        const auto& cert = *service.certificate;
        agg.issuers.insert(cert.issuer_cn);
        agg.min_years = std::min(agg.min_years, cert.validity_years());
        agg.max_years = std::max(agg.max_years, cert.validity_years());
        agg.self_signed += cert.self_signed();
        agg.weak_keys += cert.key_bits < 128;
      } else if (service.tls_version &&
                 *service.tls_version == TlsVersion::kTls13) {
        ++agg.opaque;  // certificate flight encrypted (Apple)
      }
    }
  }

  std::printf("\n%-12s %-10s %-9s %-26s %-10s %s\n", "vendor", "version",
              "certs", "issuer(s)", "validity", "notes");
  for (const auto& [vendor, agg] : vendors) {
    if (agg.versions.empty()) continue;
    std::string versions, issuers, validity, notes;
    for (const auto& v : agg.versions) versions += v + " ";
    if (agg.issuers.size() > 3) {
      // Per-device self-signed issuers (Echo's CN = local IP pattern).
      issuers = std::to_string(agg.issuers.size()) + " distinct (" +
                issuers.append(agg.issuers.begin()->substr(0, 16)) + "...)";
    } else {
      for (const auto& i : agg.issuers) issuers += i.substr(0, 24) + " ";
    }
    if (agg.certs > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2fy-%.1fy", agg.min_years,
                    agg.max_years);
      validity = buf;
    }
    if (agg.weak_keys > 0)
      notes += std::to_string(agg.weak_keys) + " weak keys(64-122b)! ";
    if (agg.self_signed == agg.certs && agg.certs > 0) notes += "self-signed ";
    if (agg.opaque > 0) notes += "cert encrypted in handshake ";
    std::printf("%-12s %-10s %-9d %-26s %-10s %s\n", vendor.c_str(),
                versions.c_str(), agg.certs, issuers.c_str(), validity.c_str(),
                notes.c_str());
  }

  std::printf("\npaper findings to compare:\n"
              "  Google: TLSv1.2, private PKI, 20-year leafs, 64-122-bit keys "
              "on 8009 (high severity)\n"
              "  Amazon Echo: TLSv1.2, self-signed 3-month certs, CN = local "
              "IP\n"
              "  Apple: TLSv1.3, certificates encrypted in handshake\n"
              "  D-Link/SmartThings/Hue: self-signed, 20-28 year validity\n");
  return 0;
}
