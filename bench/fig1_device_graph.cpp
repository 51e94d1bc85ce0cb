// Figure 1: transport-layer device-to-device communication graph.
// Paper: 43/93 devices contact at least one other device over local TCP/UDP
// unicast; vendor clusters (Amazon, Google, Apple) dominate the edges.
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Figure 1", "device-to-device transport-layer communication graph");
  StreamedLab streamed;
  streamed.run(SimTime::from_hours(3), 400);

  const CommGraph graph = streamed.finish().graph;
  const auto nodes = graph.connected_nodes();

  std::printf("\nconnected devices:  measured %zu / 93   (paper: 43/93)\n",
              nodes.size());
  std::printf("edges:              measured %zu\n", graph.edges.size());

  // Edge composition.
  std::size_t tcp_only = 0, udp_only = 0, both = 0;
  for (const auto& edge : graph.edges) {
    if (edge.tcp && edge.udp) ++both;
    else if (edge.tcp) ++tcp_only;
    else ++udp_only;
  }
  std::printf("edge types:         TCP-only %zu, UDP-only %zu, both %zu\n",
              tcp_only, udp_only, both);

  // Vendor-cluster structure: count intra- vs inter-vendor edges.
  const auto& registry = OuiRegistry::builtin();
  std::map<std::string, std::size_t> intra;
  std::size_t inter = 0;
  for (const auto& edge : graph.edges) {
    const auto va = registry.vendor_of(edge.a);
    const auto vb = registry.vendor_of(edge.b);
    if (va && vb && *va == *vb) ++intra[*va];
    else ++inter;
  }
  std::printf("\nintra-vendor edges (the Figure 1 clusters):\n");
  for (const auto& [vendor, count] : intra)
    std::printf("  %-10s %4zu\n", vendor.c_str(), count);
  std::printf("inter-vendor edges: %zu (platform interoperability, e.g. "
              "Chromecast/Alexa integrations)\n", inter);

  std::printf("\nshape check: connected fraction %.0f%% vs paper 46%%; "
              "clusters present: %s\n",
              100.0 * static_cast<double>(nodes.size()) / 93.0,
              intra.size() >= 3 ? "yes" : "NO");

  scalar("connected_devices", static_cast<double>(nodes.size()));
  scalar("edges", static_cast<double>(graph.edges.size()));
  scalar("inter_vendor_edges", static_cast<double>(inter));
  return 0;
}
