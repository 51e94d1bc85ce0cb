// Table 1: information exposed in the local network by IoT devices per
// discovery protocol. Rows: ARP, DHCP, mDNS, SSDP, TuyaLP, TPLINK-SHP.
// Columns: MAC, model, OS version, display name, UUIDs, GWid, product key,
// OEM id, geolocation, outdated software.
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Table 1", "information exposure per discovery protocol");
  StreamedLab streamed;
  streamed.run(SimTime::from_hours(3), 300);

  const ExposureMatrix matrix = streamed.finish().exposure;

  // Paper's filled cells (from §5.1's findings).
  const std::set<std::pair<ProtocolLabel, ExposedData>> paper_cells = {
      {ProtocolLabel::kArp, ExposedData::kMac},
      {ProtocolLabel::kDhcp, ExposedData::kMac},
      {ProtocolLabel::kDhcp, ExposedData::kDeviceModel},
      {ProtocolLabel::kDhcp, ExposedData::kOsVersion},
      {ProtocolLabel::kDhcp, ExposedData::kDisplayName},
      {ProtocolLabel::kDhcp, ExposedData::kOutdatedSoftware},
      {ProtocolLabel::kMdns, ExposedData::kMac},
      {ProtocolLabel::kMdns, ExposedData::kDeviceModel},
      {ProtocolLabel::kMdns, ExposedData::kDisplayName},
      {ProtocolLabel::kMdns, ExposedData::kUuid},
      {ProtocolLabel::kSsdp, ExposedData::kMac},
      {ProtocolLabel::kSsdp, ExposedData::kDeviceModel},
      {ProtocolLabel::kSsdp, ExposedData::kOsVersion},
      {ProtocolLabel::kSsdp, ExposedData::kUuid},
      {ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware},
      {ProtocolLabel::kTuyaLp, ExposedData::kGwId},
      {ProtocolLabel::kTuyaLp, ExposedData::kProductKey},
      {ProtocolLabel::kTplinkShp, ExposedData::kMac},
      {ProtocolLabel::kTplinkShp, ExposedData::kDeviceModel},
      {ProtocolLabel::kTplinkShp, ExposedData::kOemId},
      {ProtocolLabel::kTplinkShp, ExposedData::kGeolocation},
  };

  std::printf("\ncells: '#N' = measured, N devices exposing; '.' = not "
              "observed; '!' = deviation from paper\n\n%-12s", "");
  for (const ExposedData data : exposure_data_types())
    std::printf("%-11.10s", to_string(data).c_str());
  std::printf("\n");

  int matches = 0, deviations = 0;
  for (const ProtocolLabel protocol : exposure_protocols()) {
    std::printf("%-12s", to_string(protocol).c_str());
    for (const ExposedData data : exposure_data_types()) {
      const std::size_t count = matrix.device_count(protocol, data);
      const bool in_paper = paper_cells.count({protocol, data}) != 0;
      const bool measured = count > 0;
      char cell[32];
      if (measured)
        std::snprintf(cell, sizeof cell, "#%zu%s", count, in_paper ? "" : "!");
      else
        std::snprintf(cell, sizeof cell, "%s", in_paper ? ".!" : ".");
      std::printf("%-11s", cell);
      scalar("cell_" + to_string(protocol) + "_" + to_string(data),
             static_cast<double>(count));
      matches += measured == in_paper;
      deviations += measured != in_paper;
    }
    std::printf("\n");
  }
  std::printf("\ncell agreement with paper: %d/%d (deviations marked '!')\n",
              matches, matches + deviations);
  scalar("cell_agreement", matches);
  scalar("cells", matches + deviations);
  return 0;
}
