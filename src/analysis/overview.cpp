#include "analysis/overview.hpp"

#include <algorithm>

namespace roomnet {

std::size_t ProtocolUsage::devices_using(
    ProtocolLabel label, const std::set<MacAddress>& population) const {
  std::size_t count = 0;
  for (const auto& [mac, labels] : by_device) {
    if (population.count(mac) == 0) continue;
    count += labels.count(label);
  }
  return count;
}

std::set<ProtocolLabel> ProtocolUsage::all_labels() const {
  std::set<ProtocolLabel> out;
  for (const auto& [mac, labels] : by_device) out.insert(labels.begin(), labels.end());
  return out;
}

std::set<MacAddress> CommGraph::connected_nodes() const {
  std::set<MacAddress> nodes;
  for (const auto& edge : edges) {
    nodes.insert(edge.a);
    nodes.insert(edge.b);
  }
  return nodes;
}

const CommGraph::Edge* CommGraph::find(MacAddress a, MacAddress b) const {
  for (const auto& edge : edges) {
    if ((edge.a == a && edge.b == b) || (edge.a == b && edge.b == a))
      return &edge;
  }
  return nullptr;
}

void CommGraphBuilder::on_packet(const PacketView& packet) {
  if (packet.eth.dst.is_multicast()) return;  // Figure 1 excludes these
  if (!packet.has_transport()) return;
  if (population_.count(packet.eth.src) == 0 ||
      population_.count(packet.eth.dst) == 0)
    return;
  // Figure 1 shows "neither multicast- and broadcast-discovery protocols"
  // — unicast discovery responses are part of those exchanges and are
  // excluded too.
  if (is_discovery_protocol(classifier_.classify_packet(packet))) return;
  MacAddress a = packet.eth.src;
  MacAddress b = packet.eth.dst;
  if (b < a) std::swap(a, b);
  auto& edge = edges_[{a, b}];
  edge.a = a;
  edge.b = b;
  edge.tcp = edge.tcp || packet.tcp.has_value();
  edge.udp = edge.udp || packet.udp.has_value();
  ++edge.packets;
}

CommGraph CommGraphBuilder::finish() {
  CommGraph graph;
  graph.edges.reserve(edges_.size());
  for (auto& [key, edge] : edges_) graph.edges.push_back(edge);
  edges_.clear();
  return graph;
}

}  // namespace roomnet
