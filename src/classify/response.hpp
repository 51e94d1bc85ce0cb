// Discovery-response correlation (Appendix D.2): multicast/broadcast
// discovery messages are paired with unicast inbound traffic to the
// discoverer that uses the same transport protocol and port within a short
// window (3 seconds in the paper and here).
#pragma once

#include <deque>
#include <map>
#include <set>

#include "classify/classifier.hpp"
#include "classify/label.hpp"
#include "netcore/packet.hpp"
#include "netcore/sha256.hpp"
#include "netcore/time.hpp"

namespace roomnet {

struct DiscoveryEvent {
  SimTime at;
  MacAddress discoverer;
  ProtocolLabel protocol = ProtocolLabel::kUnknown;
  std::uint16_t port = 0;  // source port of the discovery message
};

struct ResponseStats {
  /// Discovery protocols used per device (excluding ARP/DHCP/ICMPx as the
  /// paper's Table 4 does).
  std::map<MacAddress, std::set<ProtocolLabel>> discovery_protocols;
  /// Protocols per device for which at least one response was observed.
  std::map<MacAddress, std::set<ProtocolLabel>> answered_protocols;
  /// Distinct devices that responded to each discoverer.
  std::map<MacAddress, std::set<MacAddress>> responders;
  /// Discovery-response matches observed, and a running SHA-256 over each
  /// one's (discovery time, discoverer, protocol, port, responder, response
  /// time) in arrival order, so a window of any length keeps O(1) state.
  std::uint64_t match_count = 0;
  Sha256 match_hash;
};

/// Per-packet fold: a single time-ordered sweep with a sliding discovery
/// window, fed packets as they occur. `match_hash` folds the matches in
/// packet arrival order.
class ResponseCorrelator {
 public:
  explicit ResponseCorrelator(SimTime window = SimTime::from_seconds(3))
      : window_(window) {}
  void on_packet(SimTime at, const PacketView& packet) {
    on_packet(at, packet, classify_frame(packet));
  }
  void on_packet(SimTime at, const PacketView& packet,
                 const FrameLabels& labels);
  [[nodiscard]] ResponseStats finish() { return std::move(stats_); }

 private:
  SimTime window_;
  ResponseStats stats_;
  std::deque<DiscoveryEvent> recent_;
};

}  // namespace roomnet
