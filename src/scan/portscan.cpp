#include "scan/portscan.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "telemetry/metrics.hpp"

#include "proto/coap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"

namespace roomnet {

std::vector<std::uint16_t> PortScanConfig::default_tcp() {
  std::vector<std::uint16_t> ports;
  for (std::uint16_t p = 1; p <= 1024; ++p) ports.push_back(p);
  for (const std::uint16_t p :
       {1830, 4070, 5540, 8443, 8600, 9998, 9999, 10600, 15600, 34567,
        55442, 55443, 55444})
    ports.push_back(static_cast<std::uint16_t>(p));
  // High-port ranges where IoT vendors park auxiliary services (8000-8100
  // covers Cast 8008/8009 and Samsung 8001; 49152+ the UPnP/Apple range).
  for (std::uint16_t p = 8000; p <= 8100; ++p) ports.push_back(p);
  for (std::uint16_t p = 20000; p <= 20100; ++p) ports.push_back(p);
  for (std::uint16_t p = 30000; p <= 30100; ++p) ports.push_back(p);
  for (std::uint16_t p = 49152; p <= 49400; ++p) ports.push_back(p);
  return ports;
}

std::vector<std::uint16_t> PortScanConfig::default_udp() {
  std::vector<std::uint16_t> ports;
  for (std::uint16_t p = 1; p <= 1024; ++p) ports.push_back(p);
  for (const std::uint16_t p : {5353, 1900, 5683, 6666, 6667, 9999, 56700})
    ports.push_back(static_cast<std::uint16_t>(p));
  return ports;
}

std::vector<std::uint16_t> PortScanConfig::tcp_all() {
  std::vector<std::uint16_t> ports(65535);
  for (std::uint32_t p = 1; p <= 65535; ++p)
    ports[p - 1] = static_cast<std::uint16_t>(p);
  return ports;
}

std::vector<std::uint16_t> PortScanReport::open_or_filtered_udp(
    const std::vector<std::uint16_t>& probed) const {
  std::vector<std::uint16_t> out;
  if (closed_udp.empty()) return out;  // silent stack: no information
  for (const std::uint16_t port : probed) {
    const bool open =
        std::find(open_udp.begin(), open_udp.end(), port) != open_udp.end();
    const bool closed =
        std::find(closed_udp.begin(), closed_udp.end(), port) != closed_udp.end();
    if (!open && !closed) out.push_back(port);
  }
  return out;
}

std::string infer_service_from_port(std::uint16_t port, bool udp) {
  if (udp) {
    switch (port) {
      case 53: return "dns";
      case 67: case 68: return "dhcp";
      case 123: return "ntp";
      case 137: return "netbios-ns";
      case 1900: return "upnp";
      case 5353: return "mdns";
      case 5683: return "coap";
      // nmap has no entry for the proprietary ports; it guesses from its
      // services table, which is wrong for IoT gear (§3.5).
      case 6666: return "irc-alt";       // actually TuyaLP
      case 6667: return "irc";           // actually TuyaLP (encrypted)
      case 9999: return "abyss";         // actually TPLINK-SHP
      case 56700: return "unknown";      // Lifx beacons
      default: return "unknown";
    }
  }
  switch (port) {
    case 23: return "telnet";
    case 80: case 8080: return "http";
    case 443: case 8443: return "https";
    case 554: return "rtsp";
    case 1080: return "socks5";
    case 1830: return "oma-ilp";         // actually LG WebOS control
    case 4070: return "tripe";           // actually Spotify Connect
    case 8001: return "vcom-tunnel";     // actually Samsung TV API
    case 8008: return "http-alt";
    case 8009: return "ajp13";           // actually Cast TLS (§3.5's example)
    case 8060: return "aero";            // actually Roku ECP
    case 9999: return "abyss";           // actually TPLINK-SHP
    case 49152: case 49153: case 49154: case 49155: return "unknown";
    case 55442: case 55443: case 55444: return "unknown";
    default: return "unknown";
  }
}

PortScanner::PortScanner(Host& scanner, PortScanConfig config)
    : scanner_(&scanner), config_(std::move(config)) {
  scanner_->packet_monitor = [this](Host&, const PacketView& packet) {
    on_packet(packet);
  };
  scanner_->rst_on_closed_tcp = false;  // do not answer the answers
}

Bytes PortScanner::udp_probe_payload(std::uint16_t port) {
  switch (port) {
    case 53: {
      DnsMessage q;
      q.questions.push_back(
          {DnsName::from_string("version.bind"), DnsType::kTxt, false});
      return encode_dns(q);
    }
    case 5353: {
      DnsMessage q;
      q.questions.push_back({DnsName::from_string("_services._dns-sd._udp.local"),
                             DnsType::kPtr, true});
      return encode_dns(q);
    }
    case 1900: {
      SsdpMessage m;
      m.kind = SsdpKind::kMSearch;
      m.search_target = "ssdp:all";
      return encode_ssdp(m);
    }
    case 9999:
      return encode_tplink_udp(tplink_get_sysinfo_request());
    case 137: {
      NetbiosPacket p;
      p.op = NetbiosOp::kNodeStatusQuery;
      p.name = "*";
      return encode_netbios(p);
    }
    case 5683: {
      CoapMessage m;
      m.type = CoapType::kConfirmable;
      m.code = kCoapGet;
      m.message_id = 1;
      m.set_uri_path("oic/res");
      return encode_coap(m);
    }
    default:
      return bytes_of("probe");
  }
}

namespace {
struct ScanMetrics {
  telemetry::Counter& targets =
      telemetry::Registry::global().counter("roomnet_scan_targets_total");
  telemetry::Counter& probes =
      telemetry::Registry::global().counter("roomnet_scan_probes_sent_total");
  telemetry::Counter& responses = telemetry::Registry::global().counter(
      "roomnet_scan_responses_total");
};
ScanMetrics& scan_metrics() {
  static ScanMetrics metrics;
  return metrics;
}
// Resolved lazily so clean (no-retry) runs never register fault counters.
telemetry::Counter& probe_retry_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_faults_probe_retries_total");
  return c;
}
telemetry::Counter& probe_timeout_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_faults_probe_timeouts_total");
  return c;
}
constexpr std::uint64_t probe_key(std::size_t index, bool udp,
                                  std::uint16_t port) {
  return (static_cast<std::uint64_t>(index) << 17) |
         (static_cast<std::uint64_t>(udp ? 1 : 0) << 16) | port;
}
}  // namespace

bool PortScanner::answered(std::size_t index, bool udp,
                           std::uint16_t port) const {
  return answered_.contains(probe_key(index, udp, port));
}

void PortScanner::mark_answered(std::size_t index, bool udp,
                                std::uint16_t port) {
  answered_.insert(probe_key(index, udp, port));
}

void PortScanner::send_probe(Probe probe) {
  scan_metrics().probes.inc();
  const ScanTarget& target = reports_[probe.index].target;
  if (probe.udp)
    scanner_->send_udp(target.ip, scanner_->ephemeral_port(), probe.port,
                       udp_probe_payload(probe.port));
  else
    scanner_->send_raw_tcp(target.ip, scanner_->ephemeral_port(), probe.port,
                           TcpFlags{.syn = true}, 1, 0);
  if (config_.max_retries <= 0) return;
  const double wait =
      config_.probe_timeout_s * static_cast<double>(1 << probe.attempt);
  scanner_->loop().schedule_in(SimTime::from_seconds(wait), [this, probe] {
    if (answered(probe.index, probe.udp, probe.port)) return;
    const char* proto = probe.udp ? "udp" : "tcp";
    if (probe.attempt >= config_.max_retries) {
      probe_timeout_counter().inc();
      ROOMNET_LOG(kDebug, "scan", "probe_timeout",
                  kv("target", reports_[probe.index].target.label),
                  kv("port", probe.port), kv("proto", proto),
                  kv("attempts", probe.attempt + 1));
      return;
    }
    probe_retry_counter().inc();
    ROOMNET_LOG(kDebug, "scan", "probe_retry",
                kv("target", reports_[probe.index].target.label),
                kv("port", probe.port), kv("proto", proto),
                kv("attempt", probe.attempt + 1));
    Probe retry = probe;
    ++retry.attempt;
    send_probe(retry);
  });
}

void PortScanner::start(const std::vector<ScanTarget>& targets) {
  reports_.clear();
  by_ip_.clear();
  answered_.clear();
  scan_metrics().targets.inc(targets.size());
  ROOMNET_LOG(kInfo, "scan", "scan_start",
              kv("targets", static_cast<std::uint64_t>(targets.size())),
              kv("tcp_ports",
                 static_cast<std::uint64_t>(config_.tcp_ports.size())),
              kv("udp_ports",
                 static_cast<std::uint64_t>(config_.udp_ports.size())),
              kv("max_retries", config_.max_retries));
  EventLoop& loop = scanner_->loop();
  double t = 0.5;  // settle ARP first
  const double dt = config_.probe_spacing_s;

  for (const auto& target : targets) {
    by_ip_[target.ip] = reports_.size();
    reports_.push_back(PortScanReport{.target = target});
    // The lab operator knows its targets' MACs; seed the cache so probes
    // reach even devices that ignore broadcast ARP (§5.1's silent 42%).
    scanner_->add_arp_entry(target.ip, target.mac);
  }

  for (std::uint32_t i = 0; i < targets.size(); ++i) {
    for (const std::uint16_t port : config_.tcp_ports) {
      loop.schedule_in(SimTime::from_seconds(t += dt),
                       [this, probe = Probe{i, port, 0, false}] {
                         send_probe(probe);
                       });
    }
    for (const std::uint16_t port : config_.udp_ports) {
      loop.schedule_in(SimTime::from_seconds(t += dt),
                       [this, probe = Probe{i, port, 0, true}] {
                         send_probe(probe);
                       });
    }
    for (const std::uint8_t protocol : config_.ip_protocols) {
      loop.schedule_in(SimTime::from_seconds(t += dt), [this, i, protocol] {
        scan_metrics().probes.inc();
        scanner_->send_raw_ip(reports_[i].target.ip, protocol,
                              bytes_of("ipproto-probe"));
      });
    }
  }
  double tail = 5;
  if (config_.max_retries > 0) {
    // Leave room for the full backoff ladder of the last-scheduled probe.
    for (int a = 0; a <= config_.max_retries; ++a)
      tail += config_.probe_timeout_s * static_cast<double>(1 << a);
  }
  duration_ = SimTime::from_seconds(t + tail);
}

SimTime PortScanner::estimated_duration() const { return duration_; }

void PortScanner::on_packet(const PacketView& packet) {
  if (!packet.ipv4) return;
  // Only unicast traffic addressed to the scan box counts as a probe
  // response; background multicast chatter floods past us too.
  if (packet.ipv4->dst != scanner_->ip()) return;
  const auto it = by_ip_.find(packet.ipv4->src);
  if (it == by_ip_.end()) return;
  scan_metrics().responses.inc();
  PortScanReport& report = reports_[it->second];

  if (packet.tcp) {
    report.responded_tcp = true;
    // Any TCP reply (SYN-ACK or RST) settles the probe on that port.
    mark_answered(it->second, false, value(packet.tcp->src_port));
    if (packet.tcp->flags.syn && packet.tcp->flags.ack) {
      const std::uint16_t port = value(packet.tcp->src_port);
      if (std::find(report.open_tcp.begin(), report.open_tcp.end(), port) ==
          report.open_tcp.end())
        report.open_tcp.push_back(port);
      // Polite scanner: tear the half-open connection down.
      scanner_->send_raw_tcp(report.target.ip, value(packet.tcp->dst_port),
                             port, TcpFlags{.rst = true}, packet.tcp->ack, 0);
    }
  } else if (packet.udp) {
    report.responded_udp = true;
    const std::uint16_t port = value(packet.udp->src_port);
    mark_answered(it->second, true, port);
    if (std::find(report.open_udp.begin(), report.open_udp.end(), port) ==
        report.open_udp.end())
      report.open_udp.push_back(port);
  } else if (packet.icmp) {
    if (packet.icmp->type == 3 && packet.icmp->code == 3) {
      // Port unreachable: parse the embedded original datagram for the
      // probed port (IP header 20 bytes, then UDP sport/dport).
      const BytesView body = packet.icmp->body;
      if (body.size() >= 24) {
        const std::uint16_t dport =
            static_cast<std::uint16_t>((body[22] << 8) | body[23]);
        if (std::find(report.closed_udp.begin(), report.closed_udp.end(),
                      dport) == report.closed_udp.end())
          report.closed_udp.push_back(dport);
        // Provably closed is still an answer: no point retransmitting.
        mark_answered(it->second, true, dport);
      }
      return;
    }
    // Type 0 = our "protocol supported" marker; type 3/code 2 = unreachable.
    report.responded_ip = true;
    if (packet.icmp->type == 0) {
      // We cannot tell which probe protocol this answers; record echo (1).
      if (std::find(report.ip_protocols.begin(), report.ip_protocols.end(), 1) ==
          report.ip_protocols.end())
        report.ip_protocols.push_back(1);
    }
  }
}

}  // namespace roomnet
