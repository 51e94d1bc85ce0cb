// §4.2 active-scan results: open TCP/UDP port population and scan-response
// rates. Paper: 178 unique open TCP ports and 115 unique open UDP ports on
// 61 devices; 54 devices answered TCP SYN scans, 20 UDP, 58 IP-protocol;
// TCP 55442/55443/4070 open on 20% of devices (Amazon).
#include <algorithm>

#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Table 6 (§4.2)", "active scan: open services and response rates");
  Lab lab(LabConfig{.seed = 42, .record_frames = false});
  lab.start_all();
  lab.run_idle(SimTime::from_minutes(10));

  Host scan_box(lab.network(), MacAddress::from_u64(0x02a0fc0000d1ull),
                "scanbox");
  scan_box.set_static_ip(Ipv4Address(192, 168, 10, 250));
  std::vector<ScanTarget> targets;
  for (const auto& device : lab.devices())
    if (device->host().has_ip())
      targets.push_back({device->mac(), device->host().ip(),
                         device->spec().vendor + " " + device->spec().model});

  PortScanner scanner(scan_box);
  scanner.start(targets);
  lab.run_for(scanner.estimated_duration());

  std::set<std::uint16_t> unique_tcp, unique_udp;
  std::size_t tcp_responders = 0, udp_responders = 0, ip_responders = 0;
  std::size_t devices_with_open = 0, amazon_ports = 0;
  const PortScanConfig probe_config;
  for (const auto& report : scanner.reports()) {
    unique_tcp.insert(report.open_tcp.begin(), report.open_tcp.end());
    unique_udp.insert(report.open_udp.begin(), report.open_udp.end());
    // nmap counts open|filtered UDP ports as open candidates (the paper's
    // 115 unique UDP ports include these).
    for (const std::uint16_t p :
         report.open_or_filtered_udp(probe_config.udp_ports))
      unique_udp.insert(p);
    tcp_responders += report.responded_tcp;
    udp_responders += report.responded_udp;
    ip_responders += report.responded_ip;
    devices_with_open += !report.open_tcp.empty() || !report.open_udp.empty();
    amazon_ports += std::find(report.open_tcp.begin(), report.open_tcp.end(),
                              55443) != report.open_tcp.end();
  }

  std::printf("\n%-42s %9s %9s\n", "metric", "measured", "paper");
  std::printf("%-42s %9zu %9s\n", "unique open TCP ports", unique_tcp.size(),
              "178");
  std::printf("%-42s %9zu %9s\n", "unique open UDP ports", unique_udp.size(),
              "115");
  std::printf("%-42s %9zu %9s\n", "devices with any open service",
              devices_with_open, "61");
  std::printf("%-42s %9zu %9s\n", "devices answering TCP SYN scan",
              tcp_responders, "54");
  std::printf("%-42s %9zu %9s\n", "devices answering UDP scan",
              udp_responders, "20");
  std::printf("%-42s %9zu %9s\n", "devices answering IP-protocol scan",
              ip_responders, "58");
  std::printf("%-42s %8zu%% %9s\n", "devices with TCP 55443 (Amazon control)",
              amazon_ports * 100 / 93, "20%");

  std::printf("\nmost common open TCP ports:\n");
  std::map<std::uint16_t, int> port_counts;
  for (const auto& report : scanner.reports())
    for (const std::uint16_t port : report.open_tcp) ++port_counts[port];
  std::vector<std::pair<int, std::uint16_t>> ranked;
  for (const auto& [port, count] : port_counts) ranked.push_back({count, port});
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size()); ++i)
    std::printf("  %5u/tcp on %2d devices (nmap guess: %s)\n", ranked[i].second,
                ranked[i].first,
                infer_service_from_port(ranked[i].second, false).c_str());
  std::printf("\nnote the wrong nmap-style guesses (e.g. 8009 'ajp13' is "
              "really Cast TLS) — the §3.5 correction problem.\n");

  scalar("unique_open_tcp", static_cast<double>(unique_tcp.size()));
  scalar("unique_open_udp", static_cast<double>(unique_udp.size()));
  scalar("tcp_responders", static_cast<double>(tcp_responders));
  return 0;
}
