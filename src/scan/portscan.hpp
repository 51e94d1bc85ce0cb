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
  PortScanner(Host& scanner, PortScanConfig config = {});

  /// Schedules the full scan of `targets`; results are valid once the event
  /// loop has drained past the last probe (run the loop for
  /// estimated_duration()).
  void start(const std::vector<ScanTarget>& targets);
  [[nodiscard]] SimTime estimated_duration() const;

  [[nodiscard]] const std::vector<PortScanReport>& reports() const {
    return reports_;
  }

 private:
  void on_packet(const PacketView& packet);
  [[nodiscard]] Bytes udp_probe_payload(std::uint16_t port);
  /// One TCP/UDP probe attempt. Eight bytes, so a `[this, probe]` closure
  /// fits std::function's two-pointer inline buffer: the probes start()
  /// queues up front (~244k in the study) cost no heap block each.
  struct Probe {
    std::uint32_t index;  // into reports_
    std::uint16_t port;
    std::uint8_t attempt;
    bool udp;
  };
  static_assert(sizeof(Probe) == 8);
  /// Sends `probe` and, when a retry budget is set, schedules a timeout
  /// check that retransmits until the budget runs out.
  void send_probe(Probe probe);
  [[nodiscard]] bool answered(std::size_t index, bool udp,
                              std::uint16_t port) const;
  void mark_answered(std::size_t index, bool udp, std::uint16_t port);

  Host* scanner_;
  PortScanConfig config_;
  std::vector<PortScanReport> reports_;
  std::map<Ipv4Address, std::size_t> by_ip_;
  std::set<std::uint64_t> answered_;
  SimTime duration_;
};

}  // namespace roomnet
