// Figure 4: isolated vendor-specific TCP/UDP communication clusters for the
// Google, Amazon and Apple platforms, with edge "thickness" (packet volume).
// Paper: Google/Amazon speak TLSv1.2 in hub-and-spoke patterns (Amazon with
// a clear UDP coordinator); Apple uses TLSv1.3.
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Figure 4", "vendor-specific TCP/UDP cluster subgraphs");
  StreamedLab streamed;

  // Vendor-restricted populations.
  const std::vector<std::string> vendors = {"Google", "Amazon", "Apple"};
  std::map<std::string, std::set<MacAddress>> members;
  for (const auto& device : streamed.lab.devices())
    members[device->spec().vendor].insert(device->mac());

  // TLS version used inside each cluster, from the ClientHellos the tap
  // sees between two members of the same vendor.
  std::map<std::string, std::set<std::string>> versions;
  streamed.lab.network().add_packet_tap(
      [&, filter = LocalFilter{}](SimTime, const PacketView& packet,
                                  BytesView) {
        if (!filter.matches(packet)) return;
        const auto rec = decode_tls_record(packet.app_payload());
        if (!rec) return;
        const auto hello = decode_client_hello(*rec);
        if (!hello) return;
        for (const std::string& vendor : vendors) {
          const auto& macs = members[vendor];
          if (macs.count(packet.eth.src) && macs.count(packet.eth.dst))
            versions[vendor].insert(to_string(hello->version));
        }
      });
  streamed.run(SimTime::from_hours(3));
  const CommGraph full = streamed.finish().graph;

  for (const std::string& vendor : vendors) {
    // CommGraphBuilder's rule reads only a packet's own endpoints, so the
    // vendor subgraph is the full graph's edges between two members.
    const std::set<MacAddress>& macs = members[vendor];
    CommGraph graph;
    for (const auto& edge : full.edges)
      if (macs.count(edge.a) && macs.count(edge.b)) graph.edges.push_back(edge);
    std::printf("\n%s cluster: %zu devices, %zu communicating, %zu edges\n",
                vendor.c_str(), macs.size(), graph.connected_nodes().size(),
                graph.edges.size());

    // Degree distribution reveals the coordinator (hub-and-spoke shape).
    std::map<MacAddress, std::size_t> degree;
    std::size_t tcp_edges = 0, udp_edges = 0;
    for (const auto& edge : graph.edges) {
      ++degree[edge.a];
      ++degree[edge.b];
      tcp_edges += edge.tcp;
      udp_edges += edge.udp;
    }
    std::size_t max_degree = 0;
    for (const auto& [mac, d] : degree) max_degree = std::max(max_degree, d);
    std::printf("  TCP edges %zu, UDP edges %zu, max node degree %zu %s\n",
                tcp_edges, udp_edges, max_degree,
                max_degree + 1 >= graph.connected_nodes().size() && max_degree > 2
                    ? "(clear coordinator)" : "");

    std::printf("  intra-cluster TLS: ");
    for (const auto& version : versions[vendor])
      std::printf("%s ", version.c_str());
    std::printf("%s\n", versions[vendor].empty() ? "(none seen)" : "");

    scalar(vendor + "_devices", static_cast<double>(macs.size()));
    scalar(vendor + "_communicating",
           static_cast<double>(graph.connected_nodes().size()));
    scalar(vendor + "_edges", static_cast<double>(graph.edges.size()));
    scalar(vendor + "_tcp_edges", static_cast<double>(tcp_edges));
    scalar(vendor + "_udp_edges", static_cast<double>(udp_edges));
    scalar(vendor + "_max_degree", static_cast<double>(max_degree));
    for (const auto& version : versions[vendor])
      scalar(vendor + "_tls_" + version, 1);
  }
  std::printf("\npaper shape: Google/Amazon TLSv1.2, Apple TLSv1.3, Amazon "
              "UDP coordinator — compare above.\n");
  return 0;
}
