#include "analysis/exposure.hpp"

#include <algorithm>
#include <functional>
#include <string_view>

#include "classify/classifier.hpp"
#include "proto/app.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "telemetry/metrics.hpp"

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

/// Bare-hex tails (e.g. "Tuya-BBCC12", "Philips Hue - 685F61"): 6+ hex
/// chars directly appended to a name. With a harvested MAC, the mDNS MAC
/// cell's test.
bool has_hex_tail(std::string_view text) {
  int run = 0;
  for (char c : text) {
    if (is_hex_char(c)) {
      if (++run >= 6) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

/// The §6.3 scan of one response text from `src`: its identifiers join the
/// source's set in `matrix`, and the types found are returned for the cells.
ExposureClass harvest(ExposureMatrix& matrix, MacAddress src,
                      const std::string& text) {
  std::set<ExtractedIdentifier> found;
  harvest_identifiers(text, src.oui(), found);
  const ExposureClass kinds = exposure_class(found);
  if (!found.empty()) matrix.identifiers[src].merge(found);
  return kinds;
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

std::string response_text(const DnsView& response) {
  std::string text;
  const auto append = [&](const DnsNameView& name) {
    bool first = true;
    name.for_each_label([&](std::string_view label) {
      if (!first) text += '.';
      first = false;
      text += label;
    });
    text += ' ';
  };
  for (const DnsRecordView& record : response.answers) {
    append(record.name);
    record.for_each_txt([&](std::string_view txt) {
      text += txt;
      text += ' ';
    });
    if (const auto ptr = record.ptr()) append(*ptr);
    if (const auto srv = record.srv()) append(srv->target);
  }
  for (const DnsRecordView& record : response.additional) append(record.name);
  return text;
}

std::string response_text(const SsdpView& message) {
  std::string text;
  text.reserve(message.usn.size() + message.server.size() +
               message.location.size() + 2);
  text.append(message.usn).append(" ").append(message.server).append(" ");
  return text.append(message.location);
}

bool PayloadMemo::holds(const Slot& slot, MacAddress src,
                        BytesView payload) const {
  const auto& octets = src.octets();
  const auto* at = bytes_.data() + slot.offset;
  return slot.size == octets.size() + payload.size() &&
         std::equal(octets.begin(), octets.end(), at) &&
         std::equal(payload.begin(), payload.end(), at + octets.size());
}

void PayloadMemo::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.size == 0) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].size != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

bool PayloadMemo::insert(MacAddress src, BytesView payload) {
  const std::uint64_t hash =
      std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(payload.data()), payload.size())) ^
      (src.to_u64() * 0x9e3779b97f4a7c15ull);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; !slots_.empty() && slots_[i].size != 0; i = (i + 1) & mask) {
    if (slots_[i].hash == hash && holds(slots_[i], src, payload)) return false;
  }
  if (2 * (used_ + 1) > slots_.size()) {
    grow();
    mask = slots_.size() - 1;
    for (i = hash & mask; slots_[i].size != 0; i = (i + 1) & mask) {
    }
  }
  const auto& octets = src.octets();
  slots_[i] = Slot{hash, bytes_.size(), octets.size() + payload.size()};
  bytes_.insert(bytes_.end(), octets.begin(), octets.end());
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  ++used_;
  return true;
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
    const BytesView payload = packet.app_payload();
    const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                                payload.size());
    if (text.find("<serialNumber>") == std::string_view::npos) return;
    const auto desc_start = text.find("<?xml");
    const auto desc = UpnpDeviceDescription::from_xml(
        desc_start == std::string_view::npos ? text : text.substr(desc_start));
    if (!desc) return;
    if (!extract_macs(desc->serial_number).empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kMac, src);
    if (!desc->model_name.empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kDeviceModel, src);
    return;
  }

  if (!packet.udp) return;
  const AppScope app(packet);
  const BytesView payload = packet.app_payload();
  const std::uint16_t dport = value(*packet.dst_port());
  const std::uint16_t sport = value(*packet.src_port());

  // ----- DHCP
  if (dport == kDhcpServerPort || dport == kDhcpClientPort) {
    const DhcpMessage* msg = dhcp_of(packet);
    if (msg == nullptr || !msg->is_request) return;
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
    const DnsView* msg = dns_of(packet);
    if (msg == nullptr || !msg->is_response ||
        !mdns_scanned_.insert(src, payload))
      return;
    static telemetry::Counter& scans = telemetry::Registry::global().counter(
        "roomnet_exposure_scans_total", {{"proto", "mdns"}});
    scans.inc();
    const std::string text = response_text(*msg);
    const ExposureClass found = harvest(matrix_, src, text);
    if (found.mac || has_hex_tail(text))
      mark(ProtocolLabel::kMdns, ExposedData::kMac, src);
    if (found.uuid) mark(ProtocolLabel::kMdns, ExposedData::kUuid, src);
    if (found.name || text.find("Jane") != std::string::npos)
      mark(ProtocolLabel::kMdns, ExposedData::kDisplayName, src);
    if (looks_like_model_name(text))
      mark(ProtocolLabel::kMdns, ExposedData::kDeviceModel, src);
    return;
  }

  // ----- SSDP (and the UPnP description it links to)
  if (dport == kSsdpPort || sport == kSsdpPort) {
    const SsdpView* msg = ssdp_of(packet);
    if (msg == nullptr) return;
    if (ssdp_scanned_.insert(src, payload)) {
      static telemetry::Counter& scans = telemetry::Registry::global().counter(
          "roomnet_exposure_scans_total", {{"proto", "ssdp"}});
      scans.inc();
      if (harvest(matrix_, src, response_text(*msg)).uuid)
        mark(ProtocolLabel::kSsdp, ExposedData::kUuid, src);
    }
    if (!msg->server.empty()) {
      mark(ProtocolLabel::kSsdp, ExposedData::kOsVersion, src);
      if (msg->server.find("UPnP/1.0") != std::string_view::npos)
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

}  // namespace roomnet
