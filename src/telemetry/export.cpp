#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "netcore/text_file.hpp"

namespace roomnet::telemetry {

namespace {

std::string escape_json(const std::string& s) {
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

/// Prometheus text format escapes exactly backslash, double-quote, and
/// newline inside label values (exposition-format spec); every other byte
/// passes through verbatim.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_label_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prom_escape(v) + "\"";
  }
  out += "}";
  return out;
}

/// `le` label appended to existing labels for histogram buckets.
std::string prom_bucket_labels(const Labels& labels, const std::string& le) {
  Labels with = labels;
  with.emplace_back("le", le);
  return prom_label_block(with);
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape_json(k) + "\":\"" + escape_json(v) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::uint64_t histogram_quantile(const MetricSnapshot& snapshot, double q) {
  if (snapshot.kind != MetricKind::kHistogram || snapshot.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(snapshot.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
    if (snapshot.buckets[i] == 0) continue;
    const std::uint64_t next = cumulative + snapshot.buckets[i];
    if (static_cast<double>(next) >= target) {
      // Bucket i holds values with bit_width == i: [2^(i-1), 2^i - 1]
      // (bucket 0 is exactly 0). The overflow bucket has no finite upper
      // bound, so it reports its lower edge.
      if (i == 0) return 0;
      const std::uint64_t lower = std::uint64_t{1} << (i - 1);
      if (i + 1 == snapshot.buckets.size()) return lower;
      const std::uint64_t upper = Histogram::bucket_upper_bound(i);
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(snapshot.buckets[i]);
      return lower + static_cast<std::uint64_t>(
                         fraction * static_cast<double>(upper - lower));
    }
    cumulative = next;
  }
  return Histogram::bucket_upper_bound(snapshot.buckets.size() - 1);
}

std::string to_prometheus(const Registry& registry) {
  std::string out;
  // Derived quantile families, one buffer per level so every `<name>_pXX`
  // family's samples stay contiguous; appended after the primaries.
  const std::pair<const char*, double> kLevels[] = {
      {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
  std::string quantiles[3];
  std::string last_quantile_typed;
  std::string last_typed;  // emit each family's # TYPE line once
  for (const MetricSnapshot& m : registry.snapshot()) {
    if (m.name != last_typed) {
      out += "# TYPE " + m.name + " " + kind_name(m.kind) + "\n";
      last_typed = m.name;
    }
    char buf[64];
    switch (m.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", m.counter);
        out += m.name + prom_label_block(m.labels) + buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", m.gauge);
        out += m.name + prom_label_block(m.labels) + buf;
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cumulative += m.buckets[i];
          std::snprintf(buf, sizeof(buf), "%" PRIu64,
                        Histogram::bucket_upper_bound(i));
          const std::string le =
              i + 1 == m.buckets.size() ? "+Inf" : std::string(buf);
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
          out += m.name + "_bucket" + prom_bucket_labels(m.labels, le) + buf;
        }
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", m.sum);
        out += m.name + "_sum" + prom_label_block(m.labels) + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", m.count);
        out += m.name + "_count" + prom_label_block(m.labels) + buf;
        for (std::size_t level = 0; level < 3; ++level) {
          if (m.name != last_quantile_typed)
            quantiles[level] +=
                "# TYPE " + m.name + kLevels[level].first + " gauge\n";
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n",
                        histogram_quantile(m, kLevels[level].second));
          quantiles[level] +=
              m.name + kLevels[level].first + prom_label_block(m.labels) + buf;
        }
        last_quantile_typed = m.name;
        break;
      }
    }
  }
  for (const std::string& block : quantiles) out += block;
  return out;
}

std::string to_json(const Registry& registry) {
  std::string out = "[";
  bool first = true;
  char buf[64];
  for (const MetricSnapshot& m : registry.snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\":\"" + escape_json(m.name) + "\",\"labels\":" +
           json_labels(m.labels) + ",\"kind\":\"" + kind_name(m.kind) + "\"";
    switch (m.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), ",\"value\":%" PRIu64, m.counter);
        out += buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64, m.gauge);
        out += buf;
        break;
      case MetricKind::kHistogram: {
        std::snprintf(buf, sizeof(buf), ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64,
                      m.count, m.sum);
        out += buf;
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i ? "," : "",
                        m.buckets[i]);
          out += buf;
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string trace_to_chrome_json(const Tracer& tracer) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  // Per-thread tracks: name each registered thread via `thread_name`
  // metadata events so Perfetto labels the main thread and pool workers.
  for (const auto& [tid, name] : tracer.thread_names()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  tid, escape_json(name).c_str());
    out += buf;
  }
  for (const TraceEvent& e : tracer.snapshot()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\",\"pid\":1,\"tid\":%d", e.tid);
    out += "\n  {\"name\":\"" + escape_json(e.name) + "\",\"cat\":\"" +
           escape_json(e.category) + "\",\"ph\":\"" + e.phase + buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf),
                    ",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64, e.wall_start_us,
                    e.wall_dur_us);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf), ",\"ts\":%" PRIu64 ",\"s\":\"t\"",
                    e.wall_start_us);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"sim_start_us\":%" PRId64
                  ",\"sim_end_us\":%" PRId64 ",\"alloc_count\":%" PRIu64
                  ",\"alloc_bytes\":%" PRIu64 ",\"arena_bytes\":%" PRIu64
                  "}}",
                  e.sim_start_us, e.sim_end_us, e.alloc_count, e.alloc_bytes,
                  e.arena_bytes);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace roomnet::telemetry

namespace roomnet {

std::string roomnet_telemetry_report(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return dir;
  std::string failed;
  const auto write = [&](const char* file, const std::string& text) {
    if (failed.empty() && !write_text_file(dir + "/" + file, text))
      failed = dir + "/" + file;
  };
  write("metrics.prom",
        telemetry::to_prometheus(telemetry::Registry::global()));
  write("metrics.json", telemetry::to_json(telemetry::Registry::global()));
  write("trace.json",
        telemetry::trace_to_chrome_json(telemetry::Tracer::global()));
  return failed;
}

}  // namespace roomnet
