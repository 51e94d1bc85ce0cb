#include "proto/ssdp.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace roomnet {

void append_ssdp(const SsdpMessage& msg, ByteWriter& w) {
  static telemetry::Counter& encodes = telemetry::Registry::global().counter(
      "roomnet_proto_encodes_total", {{"proto", "ssdp"}});
  encodes.inc();
  const auto header = [&w](std::string_view name, std::string_view value) {
    w.str(name).str(": ").str(value).str("\r\n");
  };
  const auto header_if = [&](std::string_view name, std::string_view value) {
    if (!value.empty()) header(name, value);
  };
  switch (msg.kind) {
    case SsdpKind::kMSearch: {
      w.str("M-SEARCH * HTTP/1.1\r\n");
      header("HOST", "239.255.255.250:1900");
      header("MAN", "\"ssdp:discover\"");
      char mx[16];
      const auto end = std::to_chars(mx, mx + sizeof mx, msg.mx).ptr;
      header("MX", std::string_view(mx, static_cast<std::size_t>(end - mx)));
      header("ST", msg.search_target);
      header_if("USER-AGENT", msg.server);
      break;
    }
    case SsdpKind::kNotify:
      w.str("NOTIFY * HTTP/1.1\r\n");
      header("HOST", "239.255.255.250:1900");
      header("NT", msg.search_target);
      header("NTS", msg.nts.empty() ? std::string_view("ssdp:alive")
                                    : std::string_view(msg.nts));
      header_if("USN", msg.usn);
      header_if("SERVER", msg.server);
      header_if("LOCATION", msg.location);
      break;
    case SsdpKind::kResponse:
      w.str("HTTP/1.1 200 OK\r\n");
      header("CACHE-CONTROL", "max-age=1800");
      header("EXT", "");
      header_if("LOCATION", msg.location);
      header_if("SERVER", msg.server);
      header("ST", msg.search_target);
      header_if("USN", msg.usn);
      break;
  }
  for (const auto& [k, v] : msg.extra_headers) header(k, v);
  w.str("\r\n");
}

Bytes encode_ssdp(const SsdpMessage& msg) {
  // Fixed text is under 160 bytes; each header line adds its name, ": " and
  // CRLF around the value.
  std::size_t size = 160 + msg.search_target.size() + msg.usn.size() +
                     msg.server.size() + msg.location.size() + msg.nts.size();
  for (const auto& [k, v] : msg.extra_headers) size += k.size() + v.size() + 4;
  ByteWriter w;
  w.reserve(size);
  append_ssdp(msg, w);
  return w.take();
}

namespace {
/// MX by atoi's rules (leading whitespace, a sign, digits up to the first
/// non-digit, 0 without digits), saturating at the int range where atoi's
/// result is undefined.
int parse_mx(std::string_view s) {
  constexpr std::int64_t kLimit = std::int64_t{INT_MAX} + 1;
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || (s[i] >= '\t' && s[i] <= '\r'))) ++i;
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) negative = s[i++] == '-';
  std::int64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i)
    v = std::min(v * 10 + (s[i] - '0'), kLimit);
  return static_cast<int>(negative ? -v : std::min(v, kLimit - 1));
}
}  // namespace

SsdpMessage SsdpView::to_message() const {
  SsdpMessage msg;
  msg.kind = kind;
  msg.search_target = search_target;
  msg.usn = usn;
  msg.server = server;
  msg.location = location;
  msg.nts = nts;
  msg.mx = mx;
  return msg;
}

std::optional<SsdpView> view_ssdp(BytesView raw) {
  static telemetry::Counter& decodes = telemetry::Registry::global().counter(
      "roomnet_proto_decodes_total", {{"proto", "ssdp"}});
  decodes.inc();
  // One scan of the head keeps the first value of each header SSDP reads.
  enum Field { kSt, kNt, kNts, kUsn, kServer, kUserAgent, kLocation, kMx, kFields };
  static constexpr std::string_view kNames[kFields] = {
      "ST", "NT", "NTS", "USN", "SERVER", "USER-AGENT", "LOCATION", "MX"};
  std::array<std::optional<std::string_view>, kFields> found;
  const auto head = scan_http_head(
      std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()),
      [&](std::string_view name, std::string_view value) {
        for (int f = 0; f < kFields; ++f) {
          if (iequals(name, kNames[f])) {
            if (!found[f]) found[f] = value;
            return;
          }
        }
      });
  if (!head) return std::nullopt;
  const auto field = [&](Field f) { return found[f].value_or(""); };
  SsdpView msg;
  if (head->start_parts == 3 && head->start[2].starts_with("HTTP/")) {
    const std::string_view method = head->start[0];
    if (method == "M-SEARCH") {
      msg.kind = SsdpKind::kMSearch;
      msg.search_target = field(kSt);
      msg.server = field(kUserAgent);
      if (found[kMx]) msg.mx = parse_mx(*found[kMx]);
    } else if (method == "NOTIFY") {
      msg.kind = SsdpKind::kNotify;
      msg.search_target = field(kNt);
      msg.nts = field(kNts);
      msg.usn = field(kUsn);
      msg.server = field(kServer);
      msg.location = field(kLocation);
    } else {
      return std::nullopt;
    }
    return msg;
  }
  if (head->start_parts < 2 || !head->start[0].starts_with("HTTP/") ||
      parse_http_status(head->start[1]) != 200 || !found[kSt])
    return std::nullopt;
  msg.kind = SsdpKind::kResponse;
  msg.search_target = field(kSt);
  msg.usn = field(kUsn);
  msg.server = field(kServer);
  msg.location = field(kLocation);
  return msg;
}

std::optional<SsdpMessage> decode_ssdp(BytesView raw) {
  const auto view = view_ssdp(raw);
  if (!view) return std::nullopt;
  return view->to_message();
}

namespace {
std::string xml_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string xml_unescape(std::string_view s) {
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '&') {
      if (s.substr(i, 5) == "&amp;") {
        out += '&';
        i += 5;
        continue;
      }
      if (s.substr(i, 4) == "&lt;") {
        out += '<';
        i += 4;
        continue;
      }
      if (s.substr(i, 4) == "&gt;") {
        out += '>';
        i += 4;
        continue;
      }
    }
    out += s[i++];
  }
  return out;
}

/// Returns the text between <tag> and </tag>, first occurrence.
std::optional<std::string> tag_text(std::string_view xml, std::string_view tag) {
  const std::string open = "<" + std::string(tag) + ">";
  const std::string close = "</" + std::string(tag) + ">";
  const auto a = xml.find(open);
  if (a == std::string_view::npos) return std::nullopt;
  const auto b = xml.find(close, a + open.size());
  if (b == std::string_view::npos) return std::nullopt;
  return xml_unescape(xml.substr(a + open.size(), b - a - open.size()));
}
}  // namespace

std::string UpnpDeviceDescription::to_xml() const {
  std::string xml = "<?xml version=\"1.0\"?>\n";
  xml += "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n";
  xml += "<specVersion><major>1</major><minor>0</minor></specVersion>\n";
  xml += "<device>\n";
  xml += "<deviceType>" + xml_escape(device_type) + "</deviceType>\n";
  xml += "<friendlyName>" + xml_escape(friendly_name) + "</friendlyName>\n";
  xml += "<manufacturer>" + xml_escape(manufacturer) + "</manufacturer>\n";
  xml += "<modelName>" + xml_escape(model_name) + "</modelName>\n";
  xml += "<serialNumber>" + xml_escape(serial_number) + "</serialNumber>\n";
  xml += "<UDN>" + xml_escape(udn) + "</UDN>\n";
  xml += "<serviceList>\n";
  for (const auto& s : service_types)
    xml += "<service><serviceType>" + xml_escape(s) + "</serviceType></service>\n";
  xml += "</serviceList>\n</device>\n</root>\n";
  return xml;
}

std::optional<UpnpDeviceDescription> UpnpDeviceDescription::from_xml(
    std::string_view xml) {
  if (xml.find("<device>") == std::string_view::npos) return std::nullopt;
  UpnpDeviceDescription d;
  d.device_type = tag_text(xml, "deviceType").value_or("");
  d.friendly_name = tag_text(xml, "friendlyName").value_or("");
  d.manufacturer = tag_text(xml, "manufacturer").value_or("");
  d.model_name = tag_text(xml, "modelName").value_or("");
  d.serial_number = tag_text(xml, "serialNumber").value_or("");
  d.udn = tag_text(xml, "UDN").value_or("");
  std::string_view rest = xml;
  for (;;) {
    const auto a = rest.find("<serviceType>");
    if (a == std::string_view::npos) break;
    const auto b = rest.find("</serviceType>", a);
    if (b == std::string_view::npos) break;
    d.service_types.push_back(
        xml_unescape(rest.substr(a + 13, b - a - 13)));
    rest.remove_prefix(b + 14);
  }
  return d;
}

}  // namespace roomnet
