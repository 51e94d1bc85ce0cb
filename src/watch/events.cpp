#include "watch/events.hpp"

#include <fstream>
#include <sstream>

#include "netcore/text_file.hpp"
#include "obs/manifest.hpp"
#include "proto/json.hpp"

namespace roomnet::watch {

namespace {

constexpr const char* kTypeNames[kNetEventTypeCount] = {
    "dhcp_lease", "dns_query",     "discovery_burst",
    "scan_probe", "new_peer",      "tls_handshake",
    "churn",      "fault",         "alert",
};

constexpr const char* kSeverityNames[4] = {"info", "notice", "warning",
                                           "critical"};

}  // namespace

const char* to_string(NetEventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kNetEventTypeCount ? kTypeNames[i] : "unknown";
}

std::optional<NetEventType> parse_event_type(std::string_view name) {
  for (std::size_t i = 0; i < kNetEventTypeCount; ++i)
    if (name == kTypeNames[i]) return static_cast<NetEventType>(i);
  return std::nullopt;
}

const char* to_string(Severity severity) {
  const auto i = static_cast<std::size_t>(severity);
  return i < 4 ? kSeverityNames[i] : "unknown";
}

std::optional<Severity> parse_severity(std::string_view name) {
  for (std::size_t i = 0; i < 4; ++i)
    if (name == kSeverityNames[i]) return static_cast<Severity>(i);
  return std::nullopt;
}

namespace {

/// Appends `to_json(event)` to `out`, so a caller can write many lines into
/// one buffer.
void append_json(std::string& out, const NetEvent& event) {
  out += "{\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"t_us\":";
  out += std::to_string(event.at.us());
  out += ",\"type\":\"";
  out += to_string(event.type);
  out += "\",\"severity\":\"";
  out += to_string(event.severity);
  out += "\",\"device\":\"";
  out += event.device.to_string();
  out += "\",\"label\":\"";
  out += escape_json(event.device_label);
  out += '"';
  if (!event.flow.empty()) {
    out += ",\"flow\":\"";
    out += escape_json(event.flow);
    out += '"';
  }
  if (!event.fields.empty()) {
    out += ",\"fields\":{";
    bool first = true;
    for (const auto& [k, v] : event.fields) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += escape_json(k);
      out += "\":\"";
      out += escape_json(v);
      out += '"';
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string to_json(const NetEvent& event) {
  std::string out;
  append_json(out, event);
  return out;
}

std::string events_to_jsonl(const std::vector<NetEvent>& events) {
  std::string out;
  for (const NetEvent& event : events) {
    append_json(out, event);
    out += '\n';
  }
  return out;
}

std::optional<NetEvent> parse_event(std::string_view json_line) {
  const auto value = json::parse(json_line);
  if (!value || !value->is_object()) return std::nullopt;
  NetEvent event;
  const json::Value* seq = value->find("seq");
  const json::Value* t_us = value->find("t_us");
  const json::Value* type = value->find("type");
  const json::Value* severity = value->find("severity");
  const json::Value* device = value->find("device");
  const json::Value* label = value->find("label");
  if (!seq || !seq->is_number() || !t_us || !t_us->is_number() || !type ||
      !type->is_string() || !severity || !severity->is_string() || !device ||
      !device->is_string() || !label || !label->is_string())
    return std::nullopt;
  event.seq = static_cast<std::uint64_t>(seq->as_number());
  event.at = SimTime::from_us(static_cast<std::int64_t>(t_us->as_number()));
  const auto parsed_type = parse_event_type(type->as_string());
  const auto parsed_severity = parse_severity(severity->as_string());
  const auto parsed_mac = MacAddress::parse(device->as_string());
  if (!parsed_type || !parsed_severity || !parsed_mac) return std::nullopt;
  event.type = *parsed_type;
  event.severity = *parsed_severity;
  event.device = *parsed_mac;
  event.device_label = label->as_string();
  if (const json::Value* flow = value->find("flow")) {
    if (!flow->is_string()) return std::nullopt;
    event.flow = flow->as_string();
  }
  if (const json::Value* fields = value->find("fields")) {
    if (!fields->is_object()) return std::nullopt;
    for (const auto& [k, v] : fields->as_object()) {
      if (!v.is_string()) return std::nullopt;
      event.fields.emplace_back(k, v.as_string());
    }
  }
  return event;
}

std::optional<std::vector<NetEvent>> parse_events_jsonl(std::string_view text) {
  std::vector<NetEvent> events;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    auto event = parse_event(line);
    if (!event) return std::nullopt;
    events.push_back(std::move(*event));
  }
  return events;
}

std::optional<std::vector<NetEvent>> load_events(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_events_jsonl(buffer.str());
}

std::string hash_events(const std::vector<NetEvent>& events) {
  // Hashes events_to_jsonl() line by line without building it: a run's
  // text is most of a megabyte, and its one doubling string would set the
  // process's peak memory. The first pass sums the line lengths for the
  // length prefix str() would fold in.
  std::string line;
  std::uint64_t size = 0;
  for (const NetEvent& event : events) {
    line.clear();
    append_json(line, event);
    size += line.size() + 1;
  }
  obs::CanonicalHasher hasher;
  hasher.str("roomnet-watch-events-v1");
  hasher.u64(size);
  for (const NetEvent& event : events) {
    line.clear();
    append_json(line, event);
    line += '\n';
    hasher.raw(line);
  }
  return hasher.hex();
}

EventDiff diff_events(const std::vector<NetEvent>& a,
                      const std::vector<NetEvent>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    std::string detail = "event " + std::to_string(i) + " differs:\n  a: " +
                         to_json(a[i]) + "\n  b: " + to_json(b[i]);
    return {false, i, std::move(detail)};
  }
  if (a.size() != b.size()) {
    const auto& longer = a.size() > b.size() ? a : b;
    std::string detail =
        "stream sizes differ (" + std::to_string(a.size()) + " vs " +
        std::to_string(b.size()) + "); first extra event:\n  " +
        to_json(longer[common]);
    return {false, common, std::move(detail)};
  }
  return {};
}

}  // namespace roomnet::watch
