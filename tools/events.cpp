// roomnet events: query verbs over the watch layer's event timelines
// (the events.jsonl that `roomnet run` writes).
//
//   roomnet events query <events.jsonl> [filters]
//                                           print matching events, one JSON
//                                           line each (same bytes as the file)
//   roomnet events timeline <events.jsonl> --device <mac|label>
//                                           human-readable per-device timeline
//   roomnet events summary <events.jsonl>   event counts by type/severity and
//                                           the alert-rule lifecycle table
//   roomnet events diff <events_a> <events_b>
//                                           compare two timelines and name the
//                                           first divergent event
//
// `diff` exits 0 when the timelines agree, 1 on divergence, 2 on usage or
// I/O errors — the events.jsonl twin of `roomnet audit diff`, for CI to
// assert that thread counts never change what the watch layer saw.
//
// query filters:
//   --device M        MAC ("02:a0:..") or a device-label substring
//   --type T          event type name (dhcp_lease, dns_query, ...)
//   --min-severity S  info|notice|warning|critical (default info)
//   --since S         sim-seconds lower bound (inclusive)
//   --until S         sim-seconds upper bound (inclusive)
//   --limit N         print at most N events
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "watch/events.hpp"

namespace roomnet::cli {

namespace {

using watch::NetEvent;
using watch::NetEventType;
using watch::Severity;

std::vector<NetEvent> load(const char* path) {
  return loaded(watch::load_events(path), path);
}

/// `--device` accepts either an exact MAC or a case-sensitive label
/// substring ("Echo" matches every Echo in the lab).
bool device_matches(const NetEvent& event, const std::string& needle) {
  if (const auto mac = MacAddress::parse(needle)) return event.device == *mac;
  return event.device_label.find(needle) != std::string::npos;
}

std::string format_time(SimTime at) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%lld.%06llds",
                static_cast<long long>(at.us() / 1'000'000),
                static_cast<long long>(at.us() % 1'000'000));
  return buffer;
}

}  // namespace

int events_query_main(int argc, char** argv) {
  if (argc < 1) throw UsageError("events query takes an events.jsonl");
  const std::vector<NetEvent> events = load(argv[0]);
  std::string device;
  std::optional<NetEventType> type;
  Severity min_severity = Severity::kInfo;
  std::int64_t since_us = 0;
  std::int64_t until_us = -1;
  std::int64_t limit = -1;
  Flags flags(argc - 1, argv + 1);
  while (flags.next()) {
    if (flags.is("--device")) {
      device = flags.value();
    } else if (flags.is("--type")) {
      const char* name = flags.value();
      type = watch::parse_event_type(name);
      if (!type) throw UsageError(std::string("unknown event type: ") + name);
    } else if (flags.is("--min-severity")) {
      const char* name = flags.value();
      const auto severity = watch::parse_severity(name);
      if (!severity) throw UsageError(std::string("unknown severity: ") + name);
      min_severity = *severity;
    } else if (flags.is("--since")) {
      since_us = flags.seconds().us();
    } else if (flags.is("--until")) {
      until_us = flags.seconds().us();
    } else if (flags.is("--limit")) {
      limit = flags.integer();
    } else {
      flags.unknown();
    }
  }
  std::int64_t printed = 0;
  for (const NetEvent& event : events) {
    if (limit >= 0 && printed >= limit) break;
    if (!device.empty() && !device_matches(event, device)) continue;
    if (type && event.type != *type) continue;
    if (event.severity < min_severity) continue;
    if (event.at.us() < since_us) continue;
    if (until_us >= 0 && event.at.us() > until_us) continue;
    std::printf("%s\n", watch::to_json(event).c_str());
    ++printed;
  }
  return 0;
}

int events_timeline_main(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[1], "--device") != 0)
    throw UsageError("events timeline takes an events.jsonl and --device");
  const std::vector<NetEvent> events = load(argv[0]);
  const std::string device = argv[2];
  std::size_t matched = 0;
  for (const NetEvent& event : events) {
    if (!device_matches(event, device)) continue;
    if (matched++ == 0)
      std::printf("timeline for %s (%s)\n", event.device.to_string().c_str(),
                  event.device_label.c_str());
    std::string details;
    for (const auto& [key, value] : event.fields) {
      if (!details.empty()) details += " ";
      details += key + "=" + value;
    }
    std::printf("  %14s  %-8s %-15s %s%s%s\n", format_time(event.at).c_str(),
                to_string(event.severity), to_string(event.type),
                details.c_str(), event.flow.empty() ? "" : "  on ",
                event.flow.c_str());
  }
  if (matched == 0) {
    std::fprintf(stderr, "roomnet: no events for device %s\n",
                 device.c_str());
    return 1;
  }
  std::printf("%zu events\n", matched);
  return 0;
}

int events_summary_main(int argc, char** argv) {
  if (argc != 1) throw UsageError("events summary takes one events.jsonl");
  const std::vector<NetEvent> events = load(argv[0]);
  std::size_t by_type[watch::kNetEventTypeCount] = {};
  std::size_t by_severity[4] = {};
  // rule name -> {fired, resolved}, built back out of the alert events.
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
      rules;
  for (const NetEvent& event : events) {
    ++by_type[static_cast<std::size_t>(event.type)];
    ++by_severity[static_cast<std::size_t>(event.severity)];
    if (event.type != NetEventType::kAlert) continue;
    std::string rule, state;
    for (const auto& [key, value] : event.fields) {
      if (key == "rule") rule = value;
      if (key == "state") state = value;
    }
    auto it = rules.begin();
    for (; it != rules.end(); ++it)
      if (it->first == rule) break;
    if (it == rules.end()) it = rules.insert(rules.end(), {rule, {0, 0}});
    if (state == "firing") ++it->second.first;
    if (state == "resolved") ++it->second.second;
  }
  std::printf("%zu events\n", events.size());
  for (std::size_t i = 0; i < watch::kNetEventTypeCount; ++i)
    if (by_type[i] != 0)
      std::printf("  %-15s %zu\n", to_string(static_cast<NetEventType>(i)),
                  by_type[i]);
  std::printf("by severity:\n");
  for (std::size_t i = 0; i < 4; ++i)
    if (by_severity[i] != 0)
      std::printf("  %-15s %zu\n", to_string(static_cast<Severity>(i)),
                  by_severity[i]);
  if (!rules.empty()) {
    std::printf("alerts (in-timeline):\n");
    for (const auto& [rule, counts] : rules)
      std::printf("  %-20s firing=%zu resolved=%zu\n", rule.c_str(),
                  counts.first, counts.second);
  }
  std::printf("timeline hash: %s\n", watch::hash_events(events).c_str());
  return 0;
}

int events_diff_main(int argc, char** argv) {
  if (argc != 2) throw UsageError("events diff takes two events.jsonl files");
  const std::vector<NetEvent> a = load(argv[0]);
  const std::vector<NetEvent> b = load(argv[1]);
  const watch::EventDiff diff = watch::diff_events(a, b);
  if (diff.equal) {
    std::printf("identical: %zu events, hash %s\n", a.size(),
                watch::hash_events(a).c_str());
    return 0;
  }
  std::printf("DIVERGED at event %zu:\n%s\n", diff.index, diff.detail.c_str());
  return 1;
}

}  // namespace roomnet::cli
