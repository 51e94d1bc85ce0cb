// Quickstart: build the 93-device smart-home lab, capture 30 minutes of
// idle local traffic from the AP vantage point, classify it, and print the
// protocol mix and the device-to-device communication graph.
//
//   ./examples/quickstart [seed] [telemetry_dir]
//
// With a telemetry_dir, the run records a span per stage and dumps
// Prometheus-text metrics plus a Chrome-trace JSON (open trace.json in
// chrome://tracing or https://ui.perfetto.dev) into that directory. The
// printed tables are byte-identical with and without telemetry.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/roomnet.hpp"
#include "telemetry/export.hpp"

using namespace roomnet;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const char* telemetry_dir = argc > 2 ? argv[2] : nullptr;
  if (telemetry_dir != nullptr) telemetry::enable();

  // 1. Assemble the lab: router + 93 catalog devices + two phones.
  std::optional<telemetry::ScopedSpan> span;
  span.emplace("lab_boot");
  Lab lab(LabConfig{.seed = seed});
  telemetry::Tracer::global().set_sim_clock(
      [&lab] { return lab.loop().now(); });
  std::printf("lab: %zu devices on the switch (plus router and 2 phones)\n",
              lab.devices().size());

  // 2. Boot everything and let it idle for 30 virtual minutes.
  lab.start_all();
  span.emplace("idle");
  lab.run_idle(SimTime::from_minutes(30));
  std::printf("capture: %zu frames recorded at the AP\n", lab.capture().size());

  // 3. Decode each frame once and fold it into the protocol-usage and
  //    communication-graph builders.
  span.emplace("classify");
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
  span.emplace("graph");
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
  span.emplace("pcap_export");
  const std::size_t files = lab.capture().write_pcap_dir("quickstart_pcaps");
  std::printf("\nwrote %zu pcap files to quickstart_pcaps/\n", files);

  // 6. Dump the telemetry (metrics + trace) when asked.
  span.reset();
  telemetry::Tracer::global().set_sim_clock(nullptr);
  if (telemetry_dir != nullptr) {
    const std::string failed = roomnet_telemetry_report(telemetry_dir);
    if (!failed.empty()) {
      std::fprintf(stderr, "telemetry: cannot write %s\n", failed.c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry: wrote 3 files to %s\n", telemetry_dir);
  }
  return 0;
}
