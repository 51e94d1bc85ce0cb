// Active scanning (§3.1/§4.2): TCP SYN scans, UDP scans with
// protocol-aware probes on well-known ports, and IP-protocol scans, driven
// through the simulated network exactly as nmap drives a real one. Port->
// service inference mimics nmap's (fallible) port-table heuristic; the
// paper's manual-correction step lives in ServiceProber/VulnScanner.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/host.hpp"
#include "testbed/device.hpp"

namespace roomnet {

struct ScanTarget {
  MacAddress mac;
  Ipv4Address ip;
  std::string label;
};

struct PortScanReport {
  ScanTarget target;
  std::vector<std::uint16_t> open_tcp;
  std::vector<std::uint16_t> open_udp;       // positive response to a probe
  /// Ports that answered ICMP port-unreachable: provably closed.
  std::vector<std::uint16_t> closed_udp;
  std::vector<std::uint8_t> ip_protocols;    // answered an IP-protocol probe
  bool responded_tcp = false;  // any SYN-ACK or RST observed
  bool responded_udp = false;  // positive UDP response (not unreachables)
  bool responded_ip = false;

  /// nmap's open|filtered: probed, no response, no unreachable. Only
  /// meaningful for targets that emit unreachables at all.
  [[nodiscard]] std::vector<std::uint16_t> open_or_filtered_udp(
      const std::vector<std::uint16_t>& probed) const;
};

struct PortScanConfig {
  /// TCP ports to probe. Default: 1-1024 plus the high ports the paper
  /// reports (Amazon 55442/55443/4070, Google 8008/8009, UPnP 49152-49159,
  /// RTSP 554, vendor beacons). Pass tcp_all() for the full 1-65535 sweep.
  std::vector<std::uint16_t> tcp_ports;
  /// UDP ports to probe (paper: well-known 1-1024; we add the IoT ports).
  std::vector<std::uint16_t> udp_ports;
  std::vector<std::uint8_t> ip_protocols{1, 2, 6, 17, 47, 132};
  double probe_spacing_s = 0.002;
  /// Retransmit budget per TCP/UDP probe for lossy networks. 0 keeps the
  /// historical fire-once schedule byte-for-byte. IP-protocol probes are
  /// never retried: their answers cannot be attributed to one probe.
  int max_retries = 0;
  /// Seconds to wait for an answer before retransmitting; doubles with each
  /// attempt (bounded exponential backoff).
  double probe_timeout_s = 0.25;

  static std::vector<std::uint16_t> default_tcp();
  static std::vector<std::uint16_t> default_udp();
  static std::vector<std::uint16_t> tcp_all();

  PortScanConfig() : tcp_ports(default_tcp()), udp_ports(default_udp()) {}
};

/// nmap's port-number-based service guess (deliberately imperfect, §3.5).
std::string infer_service_from_port(std::uint16_t port, bool udp);

class PortScanner {
 public:
  /// `scanner` is the host the scans originate from (the lab's scan box).
  /// Throws std::invalid_argument when `config.probe_spacing_s` is negative.
  PortScanner(Host& scanner, PortScanConfig config = {});

  /// Schedules the full scan of `targets`; results are valid once the event
  /// loop has run past the last probe (run the loop for
  /// estimated_duration()). The sweep is lazy: one probe is pending at a
  /// time, and each fired probe arms the next at the `(at, seq)` key an
  /// up-front schedule would have given it, so firing order is the same.
  /// Must not be called again before the previous sweep has finished.
  void start(const std::vector<ScanTarget>& targets);
  [[nodiscard]] SimTime estimated_duration() const;

  [[nodiscard]] const std::vector<PortScanReport>& reports() const {
    return reports_;
  }

 private:
  void on_packet(const PacketView& packet);
  /// Every probe payload, encoded once per scanner: probes send views of
  /// these bytes.
  struct ProbePayloads {
    ProbePayloads();
    Bytes dns;
    Bytes mdns;
    Bytes ssdp;
    Bytes tplink;
    Bytes netbios;
    Bytes coap;
    Bytes other;  // every port without a protocol-aware probe
    Bytes ip_protocol;
  };
  /// The protocol-aware UDP probe for `port` (nmap's payload table).
  [[nodiscard]] BytesView udp_probe_payload(std::uint16_t port) const;
  /// One TCP/UDP probe attempt. Eight bytes, so a retry's `[this, probe]`
  /// closure fits std::function's two-pointer inline buffer: a pending
  /// retry costs no heap block.
  struct Probe {
    std::uint32_t index;  // into reports_
    std::uint16_t port;
    std::uint8_t attempt;
    bool udp;
  };
  static_assert(sizeof(Probe) == 8);
  /// The cursor of the lazy sweep: the one armed probe's target, its step
  /// (TCP ports, then UDP ports, then IP protocols), its offset `t` from
  /// `start` (accumulated `t += probe_spacing_s`, as the estimate is) and
  /// its reserved seq.
  struct Sweep {
    SimTime start;
    double t = 0;
    std::uint64_t seq = 0;
    std::uint32_t target = 0;
    std::uint32_t step = 0;
    bool armed = false;
  };
  /// Schedules the probe under the cursor.
  void arm_probe();
  /// Fires the armed probe: arms its successor, then sends itself.
  void fire_probe();
  /// Sends `probe` and, when a retry budget is set, schedules a timeout
  /// check that retransmits until the budget runs out.
  void send_probe(Probe probe);
  [[nodiscard]] bool answered(std::size_t index, bool udp,
                              std::uint16_t port) const;
  void mark_answered(std::size_t index, bool udp, std::uint16_t port);

  /// The per-target port lists a response can add to.
  enum class Finding : std::uint8_t { kOpenTcp, kOpenUdp, kClosedUdp };
  /// Appends `port` to target `index`'s `finding` list unless it is there
  /// already. A port in the probe list is looked up in `seen_` by its
  /// position; any other falls back to a search of the list.
  void record(std::size_t index, Finding finding, std::uint16_t port);

  Host* scanner_;
  PortScanConfig config_;
  ProbePayloads payloads_;
  std::vector<PortScanReport> reports_;
  std::map<Ipv4Address, std::size_t> by_ip_;
  std::set<std::uint64_t> answered_;
  /// (port, position) of each probed TCP / UDP port, sorted by port.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> tcp_positions_;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> udp_positions_;
  /// One bit per (target, finding, probe-list position): the findings
  /// recorded so far. Per target, open TCP bits are followed by open UDP
  /// and closed UDP bits.
  std::vector<std::uint64_t> seen_;
  Sweep sweep_;
  SimTime duration_;
};

}  // namespace roomnet
