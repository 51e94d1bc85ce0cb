// Aggregations behind Figures 1, 2 and 4: per-device protocol usage and the
// device-to-device transport-layer communication graph with vendor clusters.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "classify/classifier.hpp"
#include "netcore/packet.hpp"
#include "netcore/time.hpp"

namespace roomnet {

/// Which protocols each source MAC was observed *using* (sending).
struct ProtocolUsage {
  std::map<MacAddress, std::set<ProtocolLabel>> by_device;

  /// Devices using `label`, restricted to `population` (e.g. the 93 testbed
  /// MACs, so router/phone traffic does not skew percentages).
  [[nodiscard]] std::size_t devices_using(
      ProtocolLabel label, const std::set<MacAddress>& population) const;
  [[nodiscard]] std::set<ProtocolLabel> all_labels() const;
};

/// Per-packet fold: feed packets as they occur (the tap, a pcap read loop),
/// then take the result with finish(). The fold is one order-independent
/// set insertion per packet.
class ProtocolUsageBuilder {
 public:
  void on_packet(const PacketView& packet) {
    usage_.by_device[packet.eth.src].insert(
        classifier_.classify_packet(packet));
  }
  [[nodiscard]] ProtocolUsage finish() { return std::move(usage_); }

 private:
  HybridClassifier classifier_;
  ProtocolUsage usage_;
};

/// Figure 1/4: unicast device-to-device edges (multicast/broadcast and
/// router/phone endpoints excluded by the caller via `population`).
struct CommGraph {
  struct Edge {
    MacAddress a;
    MacAddress b;
    bool tcp = false;
    bool udp = false;
    std::uint64_t packets = 0;
  };
  std::vector<Edge> edges;

  [[nodiscard]] std::set<MacAddress> connected_nodes() const;
  [[nodiscard]] const Edge* find(MacAddress a, MacAddress b) const;
};

/// Per-packet edge accumulation into a map keyed by the (sorted) MAC pair,
/// flattened in key order by finish() — packet arrival order never shows in
/// the output. Each packet's rule reads only its own two endpoints, so the
/// graph over a sub-population is the full graph's edges between members.
class CommGraphBuilder {
 public:
  explicit CommGraphBuilder(std::set<MacAddress> population)
      : population_(std::move(population)) {}
  void on_packet(const PacketView& packet);
  [[nodiscard]] CommGraph finish();

 private:
  std::set<MacAddress> population_;
  HybridClassifier classifier_;
  std::map<std::pair<MacAddress, MacAddress>, CommGraph::Edge> edges_;
};

}  // namespace roomnet
