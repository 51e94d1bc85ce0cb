#include "analysis/exposure.hpp"

#include "analysis/identifiers.hpp"
#include "classify/classifier.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"

namespace roomnet {

std::string to_string(ExposedData data) {
  switch (data) {
    case ExposedData::kMac: return "MAC";
    case ExposedData::kDeviceModel: return "Device/Model";
    case ExposedData::kOsVersion: return "OS Version";
    case ExposedData::kDisplayName: return "Display name";
    case ExposedData::kUuid: return "UUIDs";
    case ExposedData::kGwId: return "GWid";
    case ExposedData::kProductKey: return "Prod.Key";
    case ExposedData::kOemId: return "OEMid";
    case ExposedData::kGeolocation: return "Geolocation";
    case ExposedData::kOutdatedSoftware: return "Outdated OS/SW";
  }
  return "?";
}

const std::vector<ProtocolLabel>& exposure_protocols() {
  static const std::vector<ProtocolLabel> protocols = {
      ProtocolLabel::kArp,    ProtocolLabel::kDhcp, ProtocolLabel::kMdns,
      ProtocolLabel::kSsdp,   ProtocolLabel::kTuyaLp,
      ProtocolLabel::kTplinkShp};
  return protocols;
}

const std::vector<ExposedData>& exposure_data_types() {
  static const std::vector<ExposedData> types = {
      ExposedData::kMac,        ExposedData::kDeviceModel,
      ExposedData::kOsVersion,  ExposedData::kDisplayName,
      ExposedData::kUuid,       ExposedData::kGwId,
      ExposedData::kProductKey, ExposedData::kOemId,
      ExposedData::kGeolocation, ExposedData::kOutdatedSoftware};
  return types;
}

namespace {

/// Vendor model names we recognize in hostname strings (the analyst's
/// lexicon; real analysts grep for catalog model names the same way).
bool looks_like_model_name(const std::string& text) {
  static const char* kVendors[] = {
      "Echo",   "Nest",  "Ring",  "Hue",     "Kasa",   "Roku",  "WeMo",
      "Camera", "Plug",  "Bulb",  "TV",      "Hub",    "Fridge", "Doorbell",
      "Chime",  "HomePod", "Portal", "Switch", "Scale", "Sensor"};
  for (const char* v : kVendors)
    if (text.find(v) != std::string::npos) return true;
  return false;
}

bool contains_mac_like(const std::string& text) {
  if (!extract_macs(text).empty()) return true;
  // Bare-hex tails (e.g. "Tuya-BBCC12", "Philips Hue - 685F61"): 6+ hex
  // chars directly appended to a name.
  int run = 0;
  for (char c : text) {
    if (std::isxdigit(static_cast<unsigned char>(c))) {
      if (++run >= 6) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

bool old_dhcp_client(const std::string& vendor_class) {
  // Old or custom clients (§5.1: 37 devices incl. Amazon/Google).
  return vendor_class.find("udhcp 0.") != std::string::npos ||
         vendor_class.find("udhcp 1.14") != std::string::npos ||
         vendor_class.find("dhcpcd-5") != std::string::npos ||
         vendor_class.find("Google-Dhcp") != std::string::npos ||
         vendor_class.find("RTOS") != std::string::npos;
}

}  // namespace

std::string response_text(const DnsMessage& response) {
  std::string text;
  for (const auto& record : response.answers) {
    text += record.name.to_string() + " ";
    for (const auto& txt : record.txt()) text += txt + " ";
    if (const auto ptr = record.ptr()) text += ptr->to_string() + " ";
    if (const auto srv = record.srv()) text += srv->target.to_string() + " ";
  }
  for (const auto& record : response.additional)
    text += record.name.to_string() + " ";
  return text;
}

std::string response_text(const SsdpMessage& message) {
  return message.usn + " " + message.server + " " + message.location;
}

void ExposureBuilder::on_packet(const PacketView& packet) {
  const MacAddress src = packet.eth.src;
  const auto mark = [&](ProtocolLabel protocol, ExposedData data,
                        MacAddress device) {
    matrix_.cells[{protocol, data}].insert(device);
  };

  // ----- ARP: every request/reply broadcasts sender MAC/IP bindings.
  if (packet.arp) {
    mark(ProtocolLabel::kArp, ExposedData::kMac, src);
    return;
  }

  // ----- SSDP's linked UPnP description exposes MAC/model via serialNumber
  // in the XML (fetched over HTTP — TCP flows). Historically a second scan
  // over the capture; TCP and the UDP extractions below are disjoint per
  // packet, so one pass marks the same cells.
  if (packet.tcp) {
    const std::string text = string_of(packet.app_payload());
    if (text.find("<serialNumber>") == std::string::npos) return;
    const auto desc_start = text.find("<?xml");
    const auto desc = UpnpDeviceDescription::from_xml(
        desc_start == std::string::npos ? text : text.substr(desc_start));
    if (!desc) return;
    if (!extract_macs(desc->serial_number).empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kMac, src);
    if (!desc->model_name.empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kDeviceModel, src);
    return;
  }

  if (!packet.udp) return;
  const BytesView payload = packet.app_payload();
  const std::uint16_t dport = value(*packet.dst_port());
  const std::uint16_t sport = value(*packet.src_port());

  // ----- DHCP
  if (dport == kDhcpServerPort || dport == kDhcpClientPort) {
    const auto msg = decode_dhcp(payload);
    if (!msg || !msg->is_request) return;
    mark(ProtocolLabel::kDhcp, ExposedData::kMac, src);  // chaddr on wire
    if (const auto hostname = msg->hostname()) {
      if (looks_like_model_name(*hostname))
        mark(ProtocolLabel::kDhcp, ExposedData::kDeviceModel, src);
      if (hostname->find("Jane") != std::string::npos ||
          !extract_possessive_names(*hostname).empty())
        mark(ProtocolLabel::kDhcp, ExposedData::kDisplayName, src);
    }
    if (const auto vc = msg->vendor_class()) {
      mark(ProtocolLabel::kDhcp, ExposedData::kOsVersion, src);
      if (old_dhcp_client(*vc))
        mark(ProtocolLabel::kDhcp, ExposedData::kOutdatedSoftware, src);
    }
    return;
  }

  // ----- mDNS
  if (dport == kMdnsPort || sport == kMdnsPort) {
    const auto msg = decode_dns(payload);
    if (!msg || !msg->is_response) return;
    const std::string text = response_text(*msg);
    if (contains_mac_like(text))
      mark(ProtocolLabel::kMdns, ExposedData::kMac, src);
    if (!extract_uuids(text).empty())
      mark(ProtocolLabel::kMdns, ExposedData::kUuid, src);
    if (!extract_possessive_names(text).empty() ||
        text.find("Jane") != std::string::npos)
      mark(ProtocolLabel::kMdns, ExposedData::kDisplayName, src);
    if (looks_like_model_name(text))
      mark(ProtocolLabel::kMdns, ExposedData::kDeviceModel, src);
    return;
  }

  // ----- SSDP (and the UPnP description it links to)
  if (dport == kSsdpPort || sport == kSsdpPort) {
    const auto msg = decode_ssdp(payload);
    if (!msg) return;
    if (!extract_uuids(response_text(*msg)).empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kUuid, src);
    if (!msg->server.empty()) {
      mark(ProtocolLabel::kSsdp, ExposedData::kOsVersion, src);
      if (msg->server.find("UPnP/1.0") != std::string::npos)
        mark(ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware, src);
    }
    return;
  }

  // ----- TuyaLP
  if (dport == kTuyaPortPlain || dport == kTuyaPortEncrypted) {
    const auto d = decode_tuya_discovery(payload);
    if (!d) return;
    if (!d->gw_id.empty()) mark(ProtocolLabel::kTuyaLp, ExposedData::kGwId, src);
    if (!d->product_key.empty())
      mark(ProtocolLabel::kTuyaLp, ExposedData::kProductKey, src);
    return;
  }

  // ----- TPLINK-SHP
  if (dport == kTplinkPort || sport == kTplinkPort) {
    const auto body = decode_tplink_udp(payload);
    if (!body) return;
    const auto info = TplinkSysinfo::from_json(*body);
    if (!info) return;
    if (!info->mac.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kMac, src);
    if (!info->model.empty() || !info->dev_name.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kDeviceModel, src);
    if (!info->oem_id.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kOemId, src);
    if (info->latitude != 0 || info->longitude != 0)
      mark(ProtocolLabel::kTplinkShp, ExposedData::kGeolocation, src);
    return;
  }
}

ExposureMatrix analyze_exposure(const CaptureStore& capture) {
  ExposureBuilder builder;
  for (std::size_t i = 0; i < capture.size(); ++i)
    builder.on_packet(capture.packet(i));
  return builder.finish();
}

}  // namespace roomnet
