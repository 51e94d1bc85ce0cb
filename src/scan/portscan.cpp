#include "scan/portscan.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

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

std::vector<std::pair<std::uint16_t, std::uint32_t>> sorted_positions(
    const std::vector<std::uint16_t>& ports) {
  std::vector<std::pair<std::uint16_t, std::uint32_t>> out;
  out.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i)
    out.emplace_back(ports[i], static_cast<std::uint32_t>(i));
  std::sort(out.begin(), out.end());
  return out;
}

/// The position of `port`'s first appearance in the probe list, if any.
std::optional<std::uint32_t> position_of(
    const std::vector<std::pair<std::uint16_t, std::uint32_t>>& positions,
    std::uint16_t port) {
  const auto it = std::lower_bound(
      positions.begin(), positions.end(), std::make_pair(port, std::uint32_t{0}));
  if (it == positions.end() || it->first != port) return std::nullopt;
  return it->second;
}
}  // namespace

PortScanner::ProbePayloads::ProbePayloads()
    : tplink(encode_tplink_udp(tplink_get_sysinfo_request())),
      other(bytes_of("probe")),
      ip_protocol(bytes_of("ipproto-probe")) {
  DnsMessage version;
  version.questions.push_back(
      {DnsName::from_string("version.bind"), DnsType::kTxt, false});
  dns = encode_dns(version);
  DnsMessage services;
  services.questions.push_back({DnsName::from_string("_services._dns-sd._udp.local"),
                                DnsType::kPtr, true});
  mdns = encode_dns(services);
  SsdpMessage search;
  search.kind = SsdpKind::kMSearch;
  search.search_target = "ssdp:all";
  ssdp = encode_ssdp(search);
  NetbiosPacket status;
  status.op = NetbiosOp::kNodeStatusQuery;
  status.name = "*";
  netbios = encode_netbios(status);
  CoapMessage get;
  get.type = CoapType::kConfirmable;
  get.code = kCoapGet;
  get.message_id = 1;
  get.set_uri_path("oic/res");
  coap = encode_coap(get);
}

BytesView PortScanner::udp_probe_payload(std::uint16_t port) const {
  switch (port) {
    case 53: return payloads_.dns;
    case 5353: return payloads_.mdns;
    case 1900: return payloads_.ssdp;
    case 9999: return payloads_.tplink;
    case 137: return payloads_.netbios;
    case 5683: return payloads_.coap;
    default: return payloads_.other;
  }
}

PortScanner::PortScanner(Host& scanner, PortScanConfig config)
    : scanner_(&scanner), config_(std::move(config)) {
  // A negative spacing would clamp probes to "now" differently at start()
  // and at firing time, and has no meaning anyway.
  if (!(config_.probe_spacing_s >= 0))
    throw std::invalid_argument("PortScanConfig: negative probe_spacing_s");
  scanner_->packet_monitor = [this](Host&, const PacketView& packet) {
    on_packet(packet);
  };
  scanner_->rst_on_closed_tcp = false;  // do not answer the answers
  tcp_positions_ = sorted_positions(config_.tcp_ports);
  udp_positions_ = sorted_positions(config_.udp_ports);
}

void PortScanner::record(std::size_t index, Finding finding,
                         std::uint16_t port) {
  const std::size_t tcp = config_.tcp_ports.size();
  const std::size_t udp = config_.udp_ports.size();
  PortScanReport& report = reports_[index];
  // Indexed by Finding: the report's list, and where the finding's bits
  // start among the target's.
  std::vector<std::uint16_t>* const lists[] = {
      &report.open_tcp, &report.open_udp, &report.closed_udp};
  const std::size_t offsets[] = {0, tcp, tcp + udp};
  std::vector<std::uint16_t>* const ports = lists[static_cast<int>(finding)];
  const std::size_t offset = offsets[static_cast<int>(finding)];
  const auto pos = position_of(
      finding == Finding::kOpenTcp ? tcp_positions_ : udp_positions_, port);
  if (!pos) {
    if (std::find(ports->begin(), ports->end(), port) == ports->end())
      ports->push_back(port);
    return;
  }
  const std::size_t bit = index * (tcp + 2 * udp) + offset + *pos;
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((seen_[bit / 64] & mask) != 0) return;
  seen_[bit / 64] |= mask;
  ports->push_back(port);
}

bool PortScanner::answered(std::size_t index, bool udp,
                           std::uint16_t port) const {
  return answered_.contains(probe_key(index, udp, port));
}

void PortScanner::mark_answered(std::size_t index, bool udp,
                                std::uint16_t port) {
  // Only the retry closure reads answered_: without a retry budget the set
  // would be write-only and grow by one node per response.
  if (config_.max_retries <= 0) return;
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
    if (probe.attempt >= config_.max_retries) {
      probe_timeout_counter().inc();
      return;
    }
    probe_retry_counter().inc();
    Probe retry = probe;
    ++retry.attempt;
    send_probe(retry);
  });
}

void PortScanner::start(const std::vector<ScanTarget>& targets) {
  if (sweep_.armed)
    throw std::logic_error("PortScanner::start: previous sweep still running");
  reports_.clear();
  by_ip_.clear();
  answered_.clear();
  const std::size_t bits = targets.size() * (config_.tcp_ports.size() +
                                             2 * config_.udp_ports.size());
  seen_.assign((bits + 63) / 64, 0);
  scan_metrics().targets.inc(targets.size());
  for (const auto& target : targets) {
    by_ip_[target.ip] = reports_.size();
    reports_.push_back(PortScanReport{.target = target});
    // The lab operator knows its targets' MACs; seed the cache so probes
    // reach even devices that ignore broadcast ARP (§5.1's silent 42%).
    scanner_->add_arp_entry(target.ip, target.mac);
  }

  const std::uint64_t probes =
      targets.size() * (config_.tcp_ports.size() + config_.udp_ports.size() +
                        config_.ip_protocols.size());
  EventLoop& loop = scanner_->loop();
  const double t0 = 0.5;  // settle ARP first
  double t = t0;
  for (std::uint64_t k = 0; k < probes; ++k) t += config_.probe_spacing_s;
  // One seq per probe, in sweep order: each target's TCP ports, then its
  // UDP ports, then its IP protocols.
  const std::uint64_t first_seq = loop.reserve_seqs(probes);
  if (probes > 0) {
    sweep_ = Sweep{.start = loop.now(),
                   .t = t0 + config_.probe_spacing_s,
                   .seq = first_seq};
    arm_probe();
  }
  double tail = 5;
  if (config_.max_retries > 0) {
    // Leave room for the full backoff ladder of the last-scheduled probe.
    for (int a = 0; a <= config_.max_retries; ++a)
      tail += config_.probe_timeout_s * static_cast<double>(1 << a);
  }
  duration_ = SimTime::from_seconds(t + tail);
}

void PortScanner::arm_probe() {
  sweep_.armed = true;
  scanner_->loop().schedule_at(sweep_.start + SimTime::from_seconds(sweep_.t),
                               sweep_.seq, [this] { fire_probe(); });
}

void PortScanner::fire_probe() {
  sweep_.armed = false;
  const std::uint32_t index = sweep_.target;
  const std::size_t step = sweep_.step;
  const std::size_t tcp = config_.tcp_ports.size();
  const std::size_t udp = config_.udp_ports.size();
  // Arm the successor under its reserved key, the one the up-front
  // schedule gave it: same or later time and a larger seq than this probe.
  if (++sweep_.step == tcp + udp + config_.ip_protocols.size()) {
    sweep_.step = 0;
    ++sweep_.target;
  }
  if (sweep_.target < reports_.size()) {
    sweep_.t += config_.probe_spacing_s;
    ++sweep_.seq;
    arm_probe();
  }

  if (step < tcp) {
    send_probe(Probe{index, config_.tcp_ports[step], 0, false});
  } else if (step < tcp + udp) {
    send_probe(Probe{index, config_.udp_ports[step - tcp], 0, true});
  } else {
    scan_metrics().probes.inc();
    scanner_->send_raw_ip(reports_[index].target.ip,
                          config_.ip_protocols[step - tcp - udp],
                          payloads_.ip_protocol);
  }
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
      record(it->second, Finding::kOpenTcp, port);
      // Polite scanner: tear the half-open connection down.
      scanner_->send_raw_tcp(report.target.ip, value(packet.tcp->dst_port),
                             port, TcpFlags{.rst = true}, packet.tcp->ack, 0);
    }
  } else if (packet.udp) {
    report.responded_udp = true;
    const std::uint16_t port = value(packet.udp->src_port);
    mark_answered(it->second, true, port);
    record(it->second, Finding::kOpenUdp, port);
  } else if (packet.icmp) {
    if (packet.icmp->type == 3 && packet.icmp->code == 3) {
      // Port unreachable: parse the embedded original datagram for the
      // probed port (IP header 20 bytes, then UDP sport/dport).
      const BytesView body = packet.icmp->body;
      if (body.size() >= 24) {
        const std::uint16_t dport =
            static_cast<std::uint16_t>((body[22] << 8) | body[23]);
        record(it->second, Finding::kClosedUdp, dport);
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
