// Figure 2: percentage of the 93 devices observed using each protocol —
// passively, via active scans, and across the 2,335-app campaign.
#include <algorithm>

#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Figure 2", "protocol prevalence: passive / active scan / apps");

  // --- passive series ---------------------------------------------------
  StreamedLab streamed;
  streamed.run(SimTime::from_hours(4), 600);
  const ProtocolUsage usage = streamed.finish().usage;
  const auto pct = [&](ProtocolLabel label) {
    return 100.0 *
           static_cast<double>(
               usage.devices_using(label, streamed.population)) /
           93.0;
  };

  struct Row {
    ProtocolLabel label;
    double paper_pct;  // -1 when the paper gives no explicit number
  };
  const Row rows[] = {
      {ProtocolLabel::kDhcp, 92},   {ProtocolLabel::kArp, 92},
      {ProtocolLabel::kEapol, 84},  {ProtocolLabel::kIcmp, 78},
      {ProtocolLabel::kIcmpv6, 55}, {ProtocolLabel::kIgmp, 56},
      {ProtocolLabel::kMdns, 44},   {ProtocolLabel::kHttp, 40},
      {ProtocolLabel::kSsdp, 35},   {ProtocolLabel::kTls, 35},
      {ProtocolLabel::kTplinkShp, 26}, {ProtocolLabel::kRtp, 10},
      {ProtocolLabel::kTuyaLp, 5},  {ProtocolLabel::kCoap, 3.2},
      {ProtocolLabel::kDhcpv6, -1}, {ProtocolLabel::kMatter, -1},
      {ProtocolLabel::kXidLlc, -1}, {ProtocolLabel::kUnknown, 48},
  };
  std::printf("\npassive capture (%% of 93 devices):\n");
  std::printf("  %-12s %8s %8s\n", "protocol", "paper", "measured");
  for (const auto& row : rows) {
    scalar("passive_pct_" + to_string(row.label), pct(row.label));
    if (row.paper_pct >= 0)
      std::printf("  %-12s %7.0f%% %7.0f%%\n", to_string(row.label).c_str(),
                  row.paper_pct, pct(row.label));
    else
      std::printf("  %-12s %8s %7.0f%%\n", to_string(row.label).c_str(), "-",
                  pct(row.label));
  }

  // --- active-scan series -------------------------------------------------
  Host scan_box(streamed.lab.network(), MacAddress::from_u64(0x02a0fc0000b1ull),
                "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 252));
  std::vector<ScanTarget> targets;
  for (const auto& device : streamed.lab.devices())
    if (device->host().has_ip())
      targets.push_back({device->mac(), device->host().ip(),
                         device->spec().vendor + " " + device->spec().model});
  PortScanner scanner(scan_box);
  scanner.start(targets);
  streamed.lab.run_for(scanner.estimated_duration());

  std::size_t http80 = 0, https = 0, telnet = 0, dns_udp = 0, port55443 = 0;
  for (const auto& report : scanner.reports()) {
    const auto has = [&](const std::vector<std::uint16_t>& v, std::uint16_t p) {
      return std::find(v.begin(), v.end(), p) != v.end();
    };
    http80 += has(report.open_tcp, 80);
    https += has(report.open_tcp, 443) || has(report.open_tcp, 8443) ||
             has(report.open_tcp, 8009) || has(report.open_tcp, 55443);
    telnet += has(report.open_tcp, 23);
    dns_udp += has(report.open_udp, 53);
    port55443 += has(report.open_tcp, 55443);
  }
  std::printf("\nactive scans (devices with service open):\n");
  std::printf("  HTTP:80       measured %2zu   (paper: 33%% of devices ~ 31)\n",
              http80);
  std::printf("  TLS ports     measured %2zu\n", https);
  std::printf("  Telnet        measured %2zu\n", telnet);
  std::printf("  DNS:53/udp    measured %2zu   (paper: 5%% ~ 5)\n", dns_udp);
  std::printf("  Amazon 55443  measured %2zu   (paper: 55442/55443/4070 on "
              "20%% ~ 19)\n", port55443);
  scalar("scan_http80_devices", static_cast<double>(http80));
  scalar("scan_tls_port_devices", static_cast<double>(https));
  scalar("scan_telnet_devices", static_cast<double>(telnet));
  scalar("scan_dns_udp_devices", static_cast<double>(dns_udp));
  scalar("scan_amazon_55443_devices", static_cast<double>(port55443));

  // --- app series -----------------------------------------------------------
  Rng rng(42);
  const AppDataset dataset = generate_app_dataset(rng);
  std::size_t mdns = 0, ssdp = 0, netbios = 0, tls = 0, tplink = 0;
  for (const auto& app : dataset.apps) {
    mdns += app.scans_mdns;
    ssdp += app.scans_ssdp;
    netbios += app.scans_netbios;
    tls += app.uses_local_tls;
    tplink += app.uses_tplink;
  }
  const double n = static_cast<double>(dataset.apps.size());
  const auto app_pct = [n](std::size_t count) {
    return 100.0 * static_cast<double>(count) / n;
  };
  std::printf("\nmobile apps (%% of 2,335 apps; paper in parens):\n");
  std::printf("  mDNS     %4.1f%%  (6.0%%)\n", app_pct(mdns));
  std::printf("  SSDP     %4.1f%%  (4.0%%)\n", app_pct(ssdp));
  std::printf("  NetBIOS  %4.1f%%  (0.5%%)\n", app_pct(netbios));
  std::printf("  TLS      %4.1f%%  (25%%)\n", app_pct(tls));
  std::printf("  TPLINK   %4.1f%%  (companion-app custom protocol)\n",
              app_pct(tplink));
  scalar("apps_pct_mdns", app_pct(mdns));
  scalar("apps_pct_ssdp", app_pct(ssdp));
  scalar("apps_pct_netbios", app_pct(netbios));
  scalar("apps_pct_tls", app_pct(tls));
  scalar("apps_pct_tplink", app_pct(tplink));
  return 0;
}
