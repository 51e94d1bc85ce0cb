// Information-exposure analysis (Table 1): which sensitive data types each
// discovery protocol leaks, extracted from the actual payload bytes of a
// capture — MAC addresses in mDNS hostnames, models and display names in
// DHCP hostnames, UUIDs and UPnP versions in SSDP, GWid/product keys in
// TuyaLP, OEM IDs and geolocation in TPLINK-SHP sysinfo.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "capture/capture_store.hpp"
#include "classify/label.hpp"
#include "netcore/packet.hpp"
#include "netcore/time.hpp"

namespace roomnet {

struct DnsMessage;
struct SsdpMessage;

enum class ExposedData {
  kMac,
  kDeviceModel,
  kOsVersion,
  kDisplayName,
  kUuid,
  kGwId,
  kProductKey,
  kOemId,
  kGeolocation,
  kOutdatedSoftware,
};

std::string to_string(ExposedData data);

struct ExposureMatrix {
  /// (protocol, data type) -> devices (source MACs) observed exposing it.
  std::map<std::pair<ProtocolLabel, ExposedData>, std::set<MacAddress>> cells;

  [[nodiscard]] bool exposed(ProtocolLabel protocol, ExposedData data) const {
    return cells.count({protocol, data}) != 0;
  }
  [[nodiscard]] std::size_t device_count(ProtocolLabel protocol,
                                         ExposedData data) const {
    const auto it = cells.find({protocol, data});
    return it == cells.end() ? 0 : it->second.size();
  }
};

/// Incremental fold behind analyze_exposure(): each packet marks
/// (protocol, data type, device) cells in a map of sets, so the matrix is
/// independent of packet order. The UDP-discovery and TCP-serialNumber
/// extractions are disjoint per packet; the builder applies both in one
/// pass.
class ExposureBuilder {
 public:
  void on_packet(const PacketView& packet);
  [[nodiscard]] ExposureMatrix finish() { return std::move(matrix_); }

 private:
  ExposureMatrix matrix_;
};

/// The builder over stored frames: reads payload slices straight out of the
/// arena. Detection is payload-based: nothing is taken from simulator
/// ground truth.
ExposureMatrix analyze_exposure(const CaptureStore& capture);

/// The §6.3 response text the exposure analysis scans and the fleet
/// harvests: an mDNS response's record names, TXT strings and PTR/SRV
/// targets; an SSDP message's USN, SERVER and LOCATION.
std::string response_text(const DnsMessage& response);
std::string response_text(const SsdpMessage& message);

/// The protocols Table 1 rows cover, in paper order.
const std::vector<ProtocolLabel>& exposure_protocols();
/// The data types Table 1 columns cover, in paper order.
const std::vector<ExposedData>& exposure_data_types();

}  // namespace roomnet
