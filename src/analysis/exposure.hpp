// Information-exposure analysis (Table 1): which sensitive data types each
// discovery protocol leaks, extracted from the actual payload bytes of a
// capture — MAC addresses in mDNS hostnames, models and display names in
// DHCP hostnames, UUIDs and UPnP versions in SSDP, GWid/product keys in
// TuyaLP, OEM IDs and geolocation in TPLINK-SHP sysinfo. The same fold
// harvests each device's §6.3 identifiers (Table 2) from its mDNS responses
// and SSDP messages: one scan of each payload serves both.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/identifiers.hpp"
#include "classify/label.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/time.hpp"

namespace roomnet {

struct DnsView;
struct SsdpView;

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
  /// Source MAC -> the §6.3 identifiers (harvest_identifiers) found in its
  /// mDNS responses and SSDP messages. Only sources with one are listed.
  std::map<MacAddress, std::set<ExtractedIdentifier>> identifiers;

  [[nodiscard]] bool exposed(ProtocolLabel protocol, ExposedData data) const {
    return cells.count({protocol, data}) != 0;
  }
  [[nodiscard]] std::size_t device_count(ProtocolLabel protocol,
                                         ExposedData data) const {
    const auto it = cells.find({protocol, data});
    return it == cells.end() ? 0 : it->second.size();
  }
};

/// The (source, payload) pairs a fold has already read, keyed on the payload
/// bytes themselves: the payloads are untrusted input, so two distinct
/// pairs must never share an entry, as they could under a hash. Memory is
/// O(distinct pairs), bytes included. A repeat costs one hash and one
/// comparison and allocates nothing.
class PayloadMemo {
 public:
  /// True when (src, payload) is new (it is recorded), false on a repeat.
  bool insert(MacAddress src, BytesView payload);

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t offset = 0;  // into bytes_
    std::size_t size = 0;    // 0 marks an empty slot
  };
  [[nodiscard]] bool holds(const Slot& slot, MacAddress src,
                           BytesView payload) const;
  void grow();

  /// Every recorded pair back to back: the source's octets, then the payload.
  std::vector<std::uint8_t> bytes_;
  /// Open addressing with linear probing; a power-of-two size, at most half
  /// full.
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// Per-packet fold: each packet marks (protocol, data type, device) cells in
/// a map of sets, so the matrix is independent of packet order. The
/// UDP-discovery and TCP-serialNumber extractions are disjoint per packet;
/// the builder applies both in one pass. Detection is payload-based:
/// nothing is taken from simulator ground truth. Each distinct mDNS
/// response or SSDP message (source, payload) is scanned once: its
/// response_text is built and harvested for identifiers, and the UUID,
/// display-name and MAC cells read that harvest. A repeat is not scanned:
/// cells and identifier sets are only ever added to, so its first scan
/// already marked all it can. `roomnet_exposure_scans_total{proto}` counts
/// the scans.
class ExposureBuilder {
 public:
  void on_packet(const PacketView& packet);
  [[nodiscard]] ExposureMatrix finish() { return std::move(matrix_); }

 private:
  ExposureMatrix matrix_;
  PayloadMemo mdns_scanned_;
  PayloadMemo ssdp_scanned_;
};

/// The §6.3 response text the exposure analysis scans (and the app runtime
/// reads): an mDNS response's record names, TXT strings and PTR/SRV
/// targets; an SSDP message's USN, SERVER and LOCATION.
std::string response_text(const DnsView& response);
std::string response_text(const SsdpView& message);

/// The protocols Table 1 rows cover, in paper order.
const std::vector<ProtocolLabel>& exposure_protocols();
/// The data types Table 1 columns cover, in paper order.
const std::vector<ExposedData>& exposure_data_types();

}  // namespace roomnet
