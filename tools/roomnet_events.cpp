// roomnet-events: query CLI over the watch layer's event timelines.
//
//   roomnet-events run <out_dir> [options]  run the pipeline and write
//                                           events.jsonl (plus the usual
//                                           telemetry artifacts) into out_dir
//   roomnet-events query <events.jsonl> [filters]
//                                           print matching events, one JSON
//                                           line each (same bytes as the file)
//   roomnet-events timeline <events.jsonl> --device <mac|label>
//                                           human-readable per-device timeline
//   roomnet-events summary <events.jsonl>   event counts by type/severity and
//                                           the alert-rule lifecycle table
//   roomnet-events diff <events_a> <events_b>
//                                           compare two timelines and name the
//                                           first divergent event
//
// `diff` exits 0 when the timelines agree, 1 on divergence, 2 on usage or
// I/O errors — the events.jsonl twin of `roomnet-audit diff`, for CI to
// assert that thread counts never change what the watch layer saw.
//
// query filters:
//   --device M        MAC ("02:a0:..") or a device-label substring
//   --type T          event type name (dhcp_lease, dns_query, ...)
//   --min-severity S  info|notice|warning|critical (default info)
//   --since S         sim-seconds lower bound (inclusive)
//   --until S         sim-seconds upper bound (inclusive)
//   --limit N         print at most N events
//
// run options mirror roomnet-audit (`--seed`, `--threads`, `--idle-minutes`,
// `--interactions`, `--app-sample`, `--loss`, `--churn`, `--no-scan`,
// `--no-crowd`) plus `--rules <file>` to load an alert-rule file instead of
// the built-in default set. `--loss` and `--churn` are probabilities in
// [0, 1]; a value that does not parse or falls outside is a usage error
// (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "watch/events.hpp"
#include "watch/rules.hpp"

namespace {

using roomnet::MacAddress;
using roomnet::SimTime;
using roomnet::watch::NetEvent;
using roomnet::watch::NetEventType;
using roomnet::watch::Severity;

int usage() {
  std::fprintf(
      stderr,
      "usage: roomnet-events run <out_dir> [--seed N] [--threads N]\n"
      "                         [--idle-minutes N] [--interactions N]\n"
      "                         [--app-sample N] [--loss P] [--churn P]\n"
      "                         [--no-scan] [--no-crowd] [--rules <file>]\n"
      "       roomnet-events query <events.jsonl> [--device M] [--type T]\n"
      "                         [--min-severity S] [--since S] [--until S]\n"
      "                         [--limit N]\n"
      "       roomnet-events timeline <events.jsonl> --device <mac|label>\n"
      "       roomnet-events summary <events.jsonl>\n"
      "       roomnet-events diff <events_a> <events_b>\n");
  return 2;
}

std::int64_t parse_int(const char* text, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "roomnet-events: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

double parse_probability(const char* text, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0 && v <= 1.0)) {
    std::fprintf(stderr, "roomnet-events: bad probability for %s: %s\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

std::optional<std::vector<NetEvent>> load_or_complain(const char* path) {
  auto events = roomnet::watch::load_events(path);
  if (!events)
    std::fprintf(stderr, "roomnet-events: cannot load %s\n", path);
  return events;
}

/// `--device` accepts either an exact MAC or a case-sensitive label
/// substring ("Echo" matches every Echo in the lab).
bool device_matches(const NetEvent& event, const std::string& needle) {
  if (const auto mac = MacAddress::parse(needle))
    return event.device == *mac;
  return event.device_label.find(needle) != std::string::npos;
}

std::string format_time(SimTime at) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%lld.%06llds",
                static_cast<long long>(at.us() / 1'000'000),
                static_cast<long long>(at.us() % 1'000'000));
  return buffer;
}

int run_command(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string out_dir = argv[0];
  roomnet::PipelineConfig config;
  config.telemetry_out = out_dir;
  config.seed = 42;
  config.threads = 1;
  config.idle_duration = roomnet::SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "roomnet-events: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--seed") == 0)
      config.seed = static_cast<std::uint64_t>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--threads") == 0)
      config.threads = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--idle-minutes") == 0)
      config.idle_duration =
          roomnet::SimTime::from_minutes(parse_int(value(), arg));
    else if (std::strcmp(arg, "--interactions") == 0)
      config.interactions = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--app-sample") == 0)
      config.app_sample = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--loss") == 0)
      config.faults.loss = parse_probability(value(), arg);
    else if (std::strcmp(arg, "--churn") == 0)
      config.faults.churn = parse_probability(value(), arg);
    else if (std::strcmp(arg, "--no-scan") == 0)
      config.run_scan = false;
    else if (std::strcmp(arg, "--no-crowd") == 0)
      config.run_crowd = false;
    else if (std::strcmp(arg, "--rules") == 0) {
      const char* path = value();
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "roomnet-events: cannot read %s\n", path);
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      config.watch.rules = text.str();
      const roomnet::watch::RuleParse parsed =
          roomnet::watch::parse_rules(config.watch.rules);
      if (!parsed.error.empty()) {
        std::fprintf(stderr, "roomnet-events: %s: %s\n", path,
                     parsed.error.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }

  roomnet::Pipeline pipeline(config);
  const roomnet::PipelineResults results = pipeline.run();
  const roomnet::watch::WatchReport& watch = results.watch;
  std::printf("watch: events=%llu (dropped=%llu) devices=%llu packets=%llu\n",
              static_cast<unsigned long long>(watch.events_emitted),
              static_cast<unsigned long long>(watch.events_dropped),
              static_cast<unsigned long long>(watch.devices_tracked),
              static_cast<unsigned long long>(watch.packets_seen));
  for (const roomnet::watch::AlertRuleSummary& rule : watch.alerts)
    std::printf("  %-20s %-8s fired=%llu resolved=%llu firing=%llu\n",
                rule.name.c_str(), to_string(rule.severity),
                static_cast<unsigned long long>(rule.fired),
                static_cast<unsigned long long>(rule.resolved),
                static_cast<unsigned long long>(rule.firing));
  std::printf("timeline hash: %s\n",
              roomnet::watch::hash_events(watch.events).c_str());
  std::printf("wrote %s/events.jsonl\n", out_dir.c_str());
  return 0;
}

int query_command(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto events = load_or_complain(argv[0]);
  if (!events) return 2;
  std::string device;
  std::optional<NetEventType> type;
  Severity min_severity = Severity::kInfo;
  std::int64_t since_us = 0;
  std::int64_t until_us = -1;
  std::int64_t limit = -1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "roomnet-events: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--device") == 0)
      device = value();
    else if (std::strcmp(arg, "--type") == 0) {
      const char* name = value();
      type = roomnet::watch::parse_event_type(name);
      if (!type) {
        std::fprintf(stderr, "roomnet-events: unknown event type: %s\n", name);
        return 2;
      }
    } else if (std::strcmp(arg, "--min-severity") == 0) {
      const char* name = value();
      const auto severity = roomnet::watch::parse_severity(name);
      if (!severity) {
        std::fprintf(stderr, "roomnet-events: unknown severity: %s\n", name);
        return 2;
      }
      min_severity = *severity;
    } else if (std::strcmp(arg, "--since") == 0)
      since_us = parse_int(value(), arg) * 1'000'000;
    else if (std::strcmp(arg, "--until") == 0)
      until_us = parse_int(value(), arg) * 1'000'000;
    else if (std::strcmp(arg, "--limit") == 0)
      limit = parse_int(value(), arg);
    else
      return usage();
  }
  std::int64_t printed = 0;
  for (const NetEvent& event : *events) {
    if (limit >= 0 && printed >= limit) break;
    if (!device.empty() && !device_matches(event, device)) continue;
    if (type && event.type != *type) continue;
    if (event.severity < min_severity) continue;
    if (event.at.us() < since_us) continue;
    if (until_us >= 0 && event.at.us() > until_us) continue;
    std::printf("%s\n", roomnet::watch::to_json(event).c_str());
    ++printed;
  }
  return 0;
}

int timeline_command(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[1], "--device") != 0) return usage();
  const auto events = load_or_complain(argv[0]);
  if (!events) return 2;
  const std::string device = argv[2];
  std::size_t matched = 0;
  for (const NetEvent& event : *events) {
    if (!device_matches(event, device)) continue;
    if (matched++ == 0)
      std::printf("timeline for %s (%s)\n", event.device.to_string().c_str(),
                  event.device_label.c_str());
    std::string details;
    for (const auto& [key, value] : event.fields) {
      if (!details.empty()) details += " ";
      details += key + "=" + value;
    }
    std::printf("  %14s  %-8s %-15s %s%s%s\n",
                format_time(event.at).c_str(), to_string(event.severity),
                to_string(event.type), details.c_str(),
                event.flow.empty() ? "" : "  on ", event.flow.c_str());
  }
  if (matched == 0) {
    std::fprintf(stderr, "roomnet-events: no events for device %s\n",
                 device.c_str());
    return 1;
  }
  std::printf("%zu events\n", matched);
  return 0;
}

int summary_command(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto events = load_or_complain(argv[0]);
  if (!events) return 2;
  std::size_t by_type[roomnet::watch::kNetEventTypeCount] = {};
  std::size_t by_severity[4] = {};
  // rule name -> {fired, resolved}, built back out of the alert events.
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
      rules;
  for (const NetEvent& event : *events) {
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
    if (it == rules.end())
      it = rules.insert(rules.end(), {rule, {0, 0}});
    if (state == "firing") ++it->second.first;
    if (state == "resolved") ++it->second.second;
  }
  std::printf("%zu events\n", events->size());
  for (std::size_t i = 0; i < roomnet::watch::kNetEventTypeCount; ++i)
    if (by_type[i] != 0)
      std::printf("  %-15s %zu\n",
                  to_string(static_cast<NetEventType>(i)), by_type[i]);
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
  std::printf("timeline hash: %s\n",
              roomnet::watch::hash_events(*events).c_str());
  return 0;
}

int diff_command(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto a = load_or_complain(argv[0]);
  if (!a) return 2;
  const auto b = load_or_complain(argv[1]);
  if (!b) return 2;
  const roomnet::watch::EventDiff diff = roomnet::watch::diff_events(*a, *b);
  if (diff.equal) {
    std::printf("identical: %zu events, hash %s\n", a->size(),
                roomnet::watch::hash_events(*a).c_str());
    return 0;
  }
  std::printf("DIVERGED at event %zu:\n%s\n", diff.index, diff.detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "run") == 0)
    return run_command(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "query") == 0)
    return query_command(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "timeline") == 0)
    return timeline_command(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "summary") == 0)
    return summary_command(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "diff") == 0)
    return diff_command(argc - 2, argv + 2);
  return usage();
}
