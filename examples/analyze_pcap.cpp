// Offline pcap analyzer: runs the full roomnet analysis stack over any
// Ethernet pcap file — including real tcpdump captures from an actual home
// network, not just simulator output. Prints the protocol mix, flow summary,
// classifier cross-validation, information-exposure matrix, and any
// identifiers found in discovery payloads.
//
//   ./examples/analyze_pcap <capture.pcap> [subnet/24-base, default 192.168.10.0]
//
// Try it on simulator output first:
//   ./examples/quickstart && ./examples/analyze_pcap quickstart_pcaps/all.pcap
#include <cstdio>
#include <cstdlib>

#include "core/roomnet.hpp"
#include "stream/stream.hpp"

using namespace roomnet;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <capture.pcap> [local-subnet]\n", argv[0]);
    return 2;
  }
  const auto records = read_pcap_file(argv[1]);
  if (!records) {
    std::fprintf(stderr, "error: cannot read %s as a pcap file\n", argv[1]);
    return 1;
  }
  LocalFilter filter;
  if (argc > 2) {
    const auto subnet = Ipv4Address::parse(argv[2]);
    if (!subnet) {
      std::fprintf(stderr, "error: bad subnet %s\n", argv[2]);
      return 1;
    }
    filter.subnet = *subnet;
  }

  // Decode + filter to local traffic (Appendix C.1 rule), then one pass:
  // each local packet folds into the stage-3 analyses — the StreamAnalyzer
  // the pipeline runs at its tap — and its UDP payload text is scanned for
  // identifiers. A pcap names no device population, so the comm graph stays
  // empty and the device set is read off the protocol usage.
  stream::StreamAnalyzer analyzer(stream::StreamConfig{}, {});
  std::set<ExtractedIdentifier> identifiers;
  std::size_t undecodable = 0, nonlocal = 0;
  for (const auto& record : *records) {
    const auto view = decode_frame_view(BytesView(record.frame));
    if (!view) {
      ++undecodable;
      continue;
    }
    if (!filter.matches(*view)) {
      ++nonlocal;
      continue;
    }
    analyzer.on_packet(record.timestamp, *view);
    if (!view->udp) continue;
    for (auto& id : extract_identifiers(string_of(view->app_payload())))
      identifiers.insert(std::move(id));
  }
  const stream::StreamResults results = analyzer.finish();
  std::printf("%s: %zu frames (%zu undecodable, %zu non-local), %zu local "
              "packets, %zu flows\n",
              argv[1], records->size(), undecodable, nonlocal,
              analyzer.packets(), results.flows);

  // Protocol mix per source device.
  const ProtocolUsage& usage = results.usage;
  std::set<MacAddress> population;
  for (const auto& [mac, labels] : usage.by_device) population.insert(mac);
  std::printf("\n%zu devices seen; protocol usage (devices using each):\n",
              population.size());
  for (const ProtocolLabel label : usage.all_labels()) {
    std::printf("  %-12s %4zu\n", to_string(label).c_str(),
                usage.devices_using(label, population));
  }

  // Classifier cross-validation over the capture.
  const CrossValidation& cv = results.crossval;
  std::printf("\nclassifier cross-validation: %.1f%% agree, %.1f%% disagree, "
              "%.1f%% unlabeled by both\n",
              100 * cv.agreement_rate(), 100 * cv.disagreement_rate(),
              100 * cv.unlabeled_rate());

  // Exposure matrix.
  const ExposureMatrix& exposure = results.exposure;
  std::printf("\ninformation exposure observed:\n");
  for (const ProtocolLabel protocol : exposure_protocols()) {
    std::string row;
    for (const ExposedData data : exposure_data_types()) {
      const std::size_t n = exposure.device_count(protocol, data);
      if (n > 0)
        row += std::string(to_string(data)) + "(" + std::to_string(n) + ") ";
    }
    if (!row.empty())
      std::printf("  %-12s %s\n", to_string(protocol).c_str(), row.c_str());
  }

  // Identifiers harvested from discovery payload text.
  std::printf("\nidentifiers extractable from payloads (%zu):\n",
              identifiers.size());
  int shown = 0;
  for (const auto& id : identifiers) {
    if (shown++ >= 15) {
      std::printf("  ... and %zu more\n", identifiers.size() - 15);
      break;
    }
    std::printf("  %-5s %s\n", to_string(id.type).c_str(), id.value.c_str());
  }
  return 0;
}
