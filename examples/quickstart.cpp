// Quickstart: build the 93-device smart-home lab, capture 30 minutes of
// idle local traffic from the AP vantage point, classify it, and print the
// protocol mix and the device-to-device communication graph.
//
//   ./examples/quickstart [seed] [telemetry_dir]
//
// With a telemetry_dir, the run writes the metrics registry as Prometheus
// text (metrics.prom) into that directory. The printed tables are
// byte-identical with and without it.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/roomnet.hpp"
#include "netcore/text_file.hpp"
#include "telemetry/export.hpp"

using namespace roomnet;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const char* telemetry_dir = argc > 2 ? argv[2] : nullptr;

  // 1. Assemble the lab: router + 93 catalog devices + two phones.
  Lab lab(LabConfig{.seed = seed});
  std::printf("lab: %zu devices on the switch (plus router and 2 phones)\n",
              lab.devices().size());

  // 2. Boot everything and let it idle for 30 virtual minutes.
  lab.start_all();
  lab.run_idle(SimTime::from_minutes(30));
  std::printf("capture: %zu frames recorded at the AP\n", lab.capture().size());

  // 3. Decode each frame once and fold it into the protocol-usage and
  //    communication-graph builders.
  std::set<MacAddress> population;
  for (const auto& device : lab.devices()) population.insert(device->mac());
  ProtocolUsageBuilder usage_builder;
  CommGraphBuilder graph_builder(population);
  for (const PcapRecord& record : lab.capture().records()) {
    const auto view = decode_frame_view(BytesView(record.frame));
    if (!view) continue;
    usage_builder.on_packet(*view);
    graph_builder.on_packet(*view);
  }
  const ProtocolUsage usage = usage_builder.finish();

  std::printf("\nprotocol prevalence (devices out of 93):\n");
  for (const ProtocolLabel label :
       {ProtocolLabel::kArp, ProtocolLabel::kDhcp, ProtocolLabel::kEapol,
        ProtocolLabel::kIcmp, ProtocolLabel::kIgmp, ProtocolLabel::kIcmpv6,
        ProtocolLabel::kMdns, ProtocolLabel::kSsdp, ProtocolLabel::kTls,
        ProtocolLabel::kTplinkShp, ProtocolLabel::kTuyaLp,
        ProtocolLabel::kUnknown}) {
    std::printf("  %-12s %3zu\n", to_string(label).c_str(),
                usage.devices_using(label, population));
  }

  // 4. Who talks to whom?
  const CommGraph graph = graph_builder.finish();
  std::printf("\ndevice-to-device graph: %zu devices connected, %zu edges\n",
              graph.connected_nodes().size(), graph.edges.size());
  int shown = 0;
  for (const auto& edge : graph.edges) {
    if (shown++ >= 8) break;
    const auto& reg = OuiRegistry::builtin();
    std::printf("  %s <-> %s  [%s%s] %llu pkts\n",
                reg.vendor_of(edge.a).value_or(edge.a.to_string()).c_str(),
                reg.vendor_of(edge.b).value_or(edge.b.to_string()).c_str(),
                edge.tcp ? "TCP" : "", edge.udp ? "UDP" : "",
                static_cast<unsigned long long>(edge.packets));
  }

  // 5. Export pcaps any real tool can open.
  const std::size_t files = lab.capture().write_pcap_dir("quickstart_pcaps");
  std::printf("\nwrote %zu pcap files to quickstart_pcaps/\n", files);

  // 6. Write the metrics when asked.
  if (telemetry_dir != nullptr) {
    const std::string path = std::string(telemetry_dir) + "/metrics.prom";
    const std::string text =
        telemetry::to_prometheus(telemetry::Registry::global());
    std::error_code ec;
    std::filesystem::create_directories(telemetry_dir, ec);
    if (ec || !write_text_file(path, text)) {
      std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry: wrote %s\n", path.c_str());
  }
  return 0;
}
