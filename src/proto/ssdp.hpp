// SSDP (Simple Service Discovery Protocol, the UPnP discovery layer) and the
// UPnP device-description document. §5.1: 32% of lab devices use SSDP; 26/30
// send M-SEARCH, 7/30 send NOTIFY, 9 respond to multicast queries; device
// descriptions expose UUIDs, OS versions, UPnP stack versions, friendly
// names, and serial numbers that equal MAC addresses (Table 5).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"
#include "netcore/uuid.hpp"
#include "proto/http.hpp"

namespace roomnet {

inline constexpr std::uint16_t kSsdpPort = 1900;
inline constexpr Ipv4Address kSsdpGroupV4 = Ipv4Address(239, 255, 255, 250);

enum class SsdpKind { kMSearch, kNotify, kResponse };

struct SsdpMessage {
  SsdpKind kind = SsdpKind::kMSearch;
  /// Search target (ST for M-SEARCH/response, NT for NOTIFY), e.g.
  /// "ssdp:all", "upnp:rootdevice", "urn:dial-multiscreen-org:service:dial:1".
  std::string search_target;
  /// USN header: unique service name, typically "uuid:<uuid>::<st>".
  std::string usn;
  /// SERVER (NOTIFY/response) or USER-AGENT (M-SEARCH): exposes OS and UPnP
  /// stack versions, e.g. "Linux, UPnP/1.0, Private UPnP SDK".
  std::string server;
  /// LOCATION: URL of the device-description XML.
  std::string location;
  /// NTS for NOTIFY: "ssdp:alive" or "ssdp:byebye".
  std::string nts;
  int mx = 2;
  /// Extra verbatim headers (vendor extensions like BOOTID.UPNP.ORG).
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// An SSDP message read in place by view_ssdp: each field is a slice of the
/// payload, valid while those bytes are (for a frame's payload, one
/// delivery). Copy what you keep; to_message makes the owning copy.
struct SsdpView {
  SsdpKind kind = SsdpKind::kMSearch;
  std::string_view search_target;
  std::string_view usn;
  std::string_view server;
  std::string_view location;
  std::string_view nts;
  int mx = 2;

  [[nodiscard]] SsdpMessage to_message() const;
};

/// Writes the message's head straight into `w` (appending).
void append_ssdp(const SsdpMessage& msg, ByteWriter& w);
Bytes encode_ssdp(const SsdpMessage& msg);
/// Reads the HTTP head once and keeps the first value of each header the
/// message kind carries. Counts one decode in
/// roomnet_proto_decodes_total{proto="ssdp"}. Vendor headers are not read.
std::optional<SsdpView> view_ssdp(BytesView raw);
/// view_ssdp, then an owning copy of the message.
std::optional<SsdpMessage> decode_ssdp(BytesView raw);

/// UPnP device description document (the XML at LOCATION). Field set mirrors
/// what the paper extracts: friendlyName, manufacturer, model, serialNumber
/// (observed to be a MAC address on Amcrest cameras), UDN (uuid), services.
struct UpnpDeviceDescription {
  std::string device_type;     // "urn:schemas-upnp-org:device:MediaRenderer:1"
  std::string friendly_name;   // "AMC020SC43PJ749D66", "Roku 3 - Jane's Room"
  std::string manufacturer;
  std::string model_name;
  std::string serial_number;   // often the MAC address in the wild
  std::string udn;             // "uuid:device_3_0-AMC..."
  std::vector<std::string> service_types;

  [[nodiscard]] std::string to_xml() const;
  static std::optional<UpnpDeviceDescription> from_xml(std::string_view xml);
};

}  // namespace roomnet
