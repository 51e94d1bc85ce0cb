#include "prof/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "proto/json.hpp"

namespace roomnet::prof {

namespace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void stage_fields_json(std::string& out, const StageProfile& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"wall_us\": %" PRId64 ", \"user_us\": %" PRId64
      ", \"sys_us\": %" PRId64 ", \"minor_faults\": %" PRId64
      ", \"major_faults\": %" PRId64 ", \"rss_delta_kb\": %" PRId64
      ", \"rss_kb\": %" PRId64 ", \"peak_rss_kb\": %" PRId64
      ", \"arena_allocs\": %" PRIu64 ", \"arena_bytes\": %" PRIu64
      ", \"pool_tasks\": %" PRIu64 ", \"heap_allocs\": %" PRIu64
      ", \"heap_bytes\": %" PRIu64 ", \"heap_peak_live_bytes\": %" PRId64,
      s.wall_us, s.user_us, s.sys_us, s.minor_faults, s.major_faults,
      s.rss_delta_kb, s.rss_kb, s.peak_rss_kb, s.arena_allocs, s.arena_bytes,
      s.pool_tasks, s.heap_allocs, s.heap_bytes, s.heap_peak_live_bytes);
  out += buf;
}

std::int64_t get_i64(const json::Value& obj, std::string_view key,
                     bool& ok) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    ok = false;
    return 0;
  }
  return static_cast<std::int64_t>(v->as_number());
}

std::uint64_t get_u64(const json::Value& obj, std::string_view key,
                      bool& ok) {
  return static_cast<std::uint64_t>(get_i64(obj, key, ok));
}

bool parse_stage(const json::Value& obj, StageProfile& s) {
  const json::Value* name = obj.find("name");
  if (name == nullptr || !name->is_string()) return false;
  s.name = name->as_string();
  bool ok = true;
  s.wall_us = get_i64(obj, "wall_us", ok);
  s.user_us = get_i64(obj, "user_us", ok);
  s.sys_us = get_i64(obj, "sys_us", ok);
  s.minor_faults = get_i64(obj, "minor_faults", ok);
  s.major_faults = get_i64(obj, "major_faults", ok);
  s.rss_delta_kb = get_i64(obj, "rss_delta_kb", ok);
  s.rss_kb = get_i64(obj, "rss_kb", ok);
  s.peak_rss_kb = get_i64(obj, "peak_rss_kb", ok);
  s.arena_allocs = get_u64(obj, "arena_allocs", ok);
  s.arena_bytes = get_u64(obj, "arena_bytes", ok);
  s.pool_tasks = get_u64(obj, "pool_tasks", ok);
  s.heap_allocs = get_u64(obj, "heap_allocs", ok);
  s.heap_bytes = get_u64(obj, "heap_bytes", ok);
  s.heap_peak_live_bytes = get_i64(obj, "heap_peak_live_bytes", ok);
  return ok;
}

std::string format_bytes(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0)
    std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  else if (bytes >= 1024.0)
    std::snprintf(buf, sizeof(buf), "%.1fKiB", bytes / 1024.0);
  else
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  return buf;
}

}  // namespace

std::string to_json(const ProfReport& report) {
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(report.schema) + ",\n";
  out += "  \"tool\": \"" + escape_json(report.tool) + "\",\n";
  out += "  \"compiler\": \"" + escape_json(report.compiler) + "\",\n";
  out += std::string("  \"profile_heap\": ") +
         (report.profile_heap ? "true" : "false") + ",\n";
  out += "  \"threads\": " + std::to_string(report.threads) + ",\n";
  out += "  \"hardware_threads\": " + std::to_string(report.hardware_threads) +
         ",\n";
  out += "  \"page_size\": " + std::to_string(report.page_size) + ",\n";
  out += "  \"stages\": [";
  bool first = true;
  for (const StageProfile& s : report.stages) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": \"" + escape_json(s.name) + "\", ";
    stage_fields_json(out, s);
    out += "}";
  }
  out += report.stages.empty() ? "],\n" : "\n  ],\n";
  out += "  \"totals\": {\"name\": \"" + escape_json(report.totals.name) +
         "\", ";
  stage_fields_json(out, report.totals);
  out += "}\n}\n";
  return out;
}

std::optional<ProfReport> parse_report(std::string_view text) {
  const std::optional<json::Value> doc = json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;

  ProfReport report;
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_number()) return std::nullopt;
  report.schema = static_cast<int>(schema->as_number());
  const json::Value* tool = doc->find("tool");
  if (tool == nullptr || !tool->is_string()) return std::nullopt;
  report.tool = tool->as_string();
  if (const json::Value* compiler = doc->find("compiler");
      compiler != nullptr && compiler->is_string())
    report.compiler = compiler->as_string();
  if (const json::Value* heap = doc->find("profile_heap");
      heap != nullptr && heap->is_bool())
    report.profile_heap = heap->as_bool();
  bool ok = true;
  report.threads = static_cast<int>(get_i64(*doc, "threads", ok));
  report.hardware_threads = get_i64(*doc, "hardware_threads", ok);
  report.page_size = get_i64(*doc, "page_size", ok);
  if (!ok) return std::nullopt;

  const json::Value* stages = doc->find("stages");
  if (stages == nullptr || !stages->is_array()) return std::nullopt;
  for (const json::Value& entry : stages->as_array()) {
    StageProfile s;
    if (!entry.is_object() || !parse_stage(entry, s)) return std::nullopt;
    report.stages.push_back(std::move(s));
  }
  const json::Value* totals = doc->find("totals");
  if (totals == nullptr || !totals->is_object() ||
      !parse_stage(*totals, report.totals))
    return std::nullopt;
  return report;
}

std::optional<ProfReport> load_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_report(buffer.str());
}

std::string deterministic_fingerprint(const ProfReport& report) {
  std::string out;
  char buf[160];
  for (const StageProfile& s : report.stages) {
    std::snprintf(buf, sizeof(buf),
                  " arena_allocs=%" PRIu64 " arena_bytes=%" PRIu64 "\n",
                  s.arena_allocs, s.arena_bytes);
    out += "stage=" + s.name + buf;
  }
  return out;
}

ProfDiff diff_reports(const ProfReport& current, const ProfReport& baseline,
                      const DiffThresholds& thresholds) {
  ProfDiff diff;
  char buf[256];

  const bool same_hardware =
      current.hardware_threads == baseline.hardware_threads;
  const bool heap_comparable = current.profile_heap && baseline.profile_heap &&
                               current.compiler == baseline.compiler;
  if (!same_hardware) {
    std::snprintf(buf, sizeof(buf),
                  "SKIP time+rss gates: hardware_threads %" PRId64
                  " vs baseline %" PRId64 " — wall/RSS comparison would be "
                  "noise",
                  current.hardware_threads, baseline.hardware_threads);
    diff.lines.emplace_back(buf);
  }
  if (!heap_comparable) {
    diff.lines.emplace_back(
        (current.profile_heap && baseline.profile_heap)
            ? "SKIP heap gates: reports built by different compilers"
            : "SKIP heap gates: heap hooks off (build with "
              "-DROOMNET_PROFILE=ON to gate heap metrics)");
  }

  // Stage lists must agree before per-stage ratios mean anything.
  const std::size_t common =
      std::min(current.stages.size(), baseline.stages.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (current.stages[i].name != baseline.stages[i].name) {
      diff.ok = false;
      diff.stage = current.stages[i].name;
      diff.metric = "stage_list";
      diff.detail = "stage " + std::to_string(i) + " named \"" +
                    current.stages[i].name + "\" vs baseline \"" +
                    baseline.stages[i].name + "\"";
      return diff;
    }
  }
  if (current.stages.size() != baseline.stages.size()) {
    diff.ok = false;
    diff.metric = "stage_list";
    diff.detail = "stage counts differ: " +
                  std::to_string(current.stages.size()) + " vs baseline " +
                  std::to_string(baseline.stages.size());
    return diff;
  }

  struct Gate {
    const char* metric;
    double ratio;
    bool over;
    bool skipped;
    std::string line;
  };

  // A baseline under its floor is noise for the host-dependent metrics, so
  // those gates skip. The deterministic arena gates must not: a stage whose
  // baseline is 0 (the scan stage's capture arena) would otherwise let any
  // new leak through. They fail once the current value clears the floor,
  // with growth measured against the floor.
  const auto ratio_gate = [&](const char* metric, double cur, double base,
                              double floor_value, double limit, bool enabled,
                              bool deterministic) -> Gate {
    Gate g{metric, 0.0, false, false, {}};
    if (!enabled) {
      g.skipped = true;
      return g;
    }
    if (base < floor_value || base <= 0.0) {
      if (!deterministic || cur <= floor_value) {
        g.skipped = true;
        ++diff.skipped;
        return g;
      }
      g.ratio = (cur - base) / floor_value;
      g.over = true;
      ++diff.compared;
      return g;
    }
    g.ratio = (cur - base) / base;
    g.over = g.ratio > limit;
    ++diff.compared;
    return g;
  };

  const auto check_stage = [&](const StageProfile& cur,
                               const StageProfile& base)
      -> std::optional<Gate> {
    std::vector<Gate> gates;
    gates.push_back(ratio_gate(
        "wall_us", static_cast<double>(cur.wall_us),
        static_cast<double>(base.wall_us),
        static_cast<double>(thresholds.min_wall_us),
        thresholds.max_time_regression, same_hardware, false));
    gates.push_back(ratio_gate(
        "arena_allocs", static_cast<double>(cur.arena_allocs),
        static_cast<double>(base.arena_allocs),
        static_cast<double>(thresholds.min_allocs) / 100.0,
        thresholds.max_alloc_regression, true, true));
    gates.push_back(ratio_gate(
        "arena_bytes", static_cast<double>(cur.arena_bytes),
        static_cast<double>(base.arena_bytes),
        static_cast<double>(thresholds.min_alloc_bytes),
        thresholds.max_alloc_regression, true, true));
    gates.push_back(ratio_gate(
        "heap_allocs", static_cast<double>(cur.heap_allocs),
        static_cast<double>(base.heap_allocs),
        static_cast<double>(thresholds.min_allocs),
        thresholds.max_alloc_regression, heap_comparable, false));
    gates.push_back(ratio_gate(
        "heap_bytes", static_cast<double>(cur.heap_bytes),
        static_cast<double>(base.heap_bytes),
        static_cast<double>(thresholds.min_alloc_bytes),
        thresholds.max_alloc_regression, heap_comparable, false));
    gates.push_back(ratio_gate(
        "peak_rss_kb", static_cast<double>(cur.peak_rss_kb),
        static_cast<double>(base.peak_rss_kb),
        static_cast<double>(thresholds.min_rss_kb),
        thresholds.max_rss_regression, same_hardware, false));

    for (const Gate& g : gates) {
      if (g.skipped) continue;
      std::snprintf(buf, sizeof(buf),
                    "stage %s: %s %+.1f%% vs baseline (limit +%.0f%%)%s",
                    cur.name.c_str(), g.metric, g.ratio * 100.0,
                    (std::string(g.metric) == "wall_us"
                         ? thresholds.max_time_regression
                         : std::string(g.metric) == "peak_rss_kb"
                               ? thresholds.max_rss_regression
                               : thresholds.max_alloc_regression) *
                        100.0,
                    g.over ? "  REGRESSED" : "");
      diff.lines.emplace_back(buf);
    }
    for (const Gate& g : gates)
      if (g.over) return g;
    return std::nullopt;
  };

  for (std::size_t i = 0; i < current.stages.size(); ++i) {
    const std::optional<Gate> tripped =
        check_stage(current.stages[i], baseline.stages[i]);
    if (tripped && diff.ok) {
      // Keep walking (the lines are a full report) but remember the FIRST
      // regressing stage — the one that introduced the cost.
      const std::string metric = tripped->metric;
      diff.ok = false;
      diff.stage = current.stages[i].name;
      diff.metric = metric;
      diff.ratio = tripped->ratio;
      const StageProfile& cur = current.stages[i];
      const StageProfile& base = baseline.stages[i];
      std::string shown_cur;
      std::string shown_base;
      if (metric == "wall_us") {
        shown_cur = std::to_string(cur.wall_us / 1000) + "ms";
        shown_base = std::to_string(base.wall_us / 1000) + "ms";
      } else if (metric == "arena_allocs") {
        shown_cur = std::to_string(cur.arena_allocs);
        shown_base = std::to_string(base.arena_allocs);
      } else if (metric == "arena_bytes") {
        shown_cur = format_bytes(static_cast<double>(cur.arena_bytes));
        shown_base = format_bytes(static_cast<double>(base.arena_bytes));
      } else if (metric == "heap_allocs") {
        shown_cur = std::to_string(cur.heap_allocs);
        shown_base = std::to_string(base.heap_allocs);
      } else if (metric == "heap_bytes") {
        shown_cur = format_bytes(static_cast<double>(cur.heap_bytes));
        shown_base = format_bytes(static_cast<double>(base.heap_bytes));
      } else {  // peak_rss_kb
        shown_cur = std::to_string(cur.peak_rss_kb) + "kB";
        shown_base = std::to_string(base.peak_rss_kb) + "kB";
      }
      std::snprintf(buf, sizeof(buf),
                    "first regressing stage: \"%s\" — %s %s vs baseline %s "
                    "(%+.1f%%)",
                    diff.stage.c_str(), metric.c_str(), shown_cur.c_str(),
                    shown_base.c_str(), diff.ratio * 100.0);
      diff.detail = buf;
    }
  }
  if (diff.ok)
    diff.detail = "no stage regressed past the thresholds (" +
                  std::to_string(diff.compared) + " gates compared, " +
                  std::to_string(diff.skipped) + " under noise floor)";
  return diff;
}

}  // namespace roomnet::prof
