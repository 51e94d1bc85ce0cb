#include "obs/log.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace roomnet::obs {

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

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kOff: return "off";
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "off";
}

LogLevel parse_log_level(std::string_view text) {
  if (text == "error" || text == "1") return LogLevel::kError;
  if (text == "warn" || text == "warning" || text == "2") return LogLevel::kWarn;
  if (text == "info" || text == "3") return LogLevel::kInfo;
  if (text == "debug" || text == "trace" || text == "4") return LogLevel::kDebug;
  return LogLevel::kOff;
}

LogField kv(std::string key, std::string value) {
  return {std::move(key), std::move(value)};
}

LogField kv(std::string key, const char* value) {
  return {std::move(key), std::string(value)};
}

LogField kv(std::string key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  return {std::move(key), buf};
}

LogField kv(std::string key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return {std::move(key), buf};
}

LogField kv(std::string key, int value) {
  return kv(std::move(key), static_cast<std::int64_t>(value));
}

LogField kv(std::string key, unsigned value) {
  return kv(std::move(key), static_cast<std::uint64_t>(value));
}

LogField kv(std::string key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return {std::move(key), buf};
}

LogField kv(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false"};
}

void Ledger::log(LogLevel level, std::string stage, std::string event,
                 std::vector<LogField> fields) {
  if (!should_log(level)) return;
  const auto wall = std::chrono::steady_clock::now() - epoch_;
  LogRecord record{
      .seq = 0,
      .level = level,
      .stage = std::move(stage),
      .event = std::move(event),
      .sim_us = 0,
      .wall_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(wall).count()),
      .fields = std::move(fields)};
  std::lock_guard lock(mutex_);
  if (sim_clock_) record.sim_us = sim_clock_().us();
  record.seq = recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[recorded_ % capacity_] = std::move(record);
  }
  ++recorded_;
}

void Ledger::set_sim_clock(std::function<SimTime()> clock) {
  std::lock_guard lock(mutex_);
  sim_clock_ = std::move(clock);
}

void Ledger::reset(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  recorded_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<LogRecord> Ledger::records() const {
  std::lock_guard lock(mutex_);
  if (recorded_ <= ring_.size()) return ring_;
  // The ring wrapped: oldest surviving record sits at the write cursor.
  std::vector<LogRecord> out;
  out.reserve(ring_.size());
  const std::size_t cursor = recorded_ % capacity_;
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(cursor + i) % capacity_]);
  return out;
}

std::uint64_t Ledger::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

Ledger& Ledger::global() {
  static Ledger* instance = [] {
    auto* ledger = new Ledger;  // leaked: outlives all users
    if (const char* env = std::getenv("ROOMNET_LOG_LEVEL");
        env != nullptr && *env != '\0')
      ledger->set_level(parse_log_level(env));
    return ledger;
  }();
  return *instance;
}

std::string to_jsonl(const std::vector<LogRecord>& records) {
  std::string out;
  char buf[96];
  for (const LogRecord& r : records) {
    out += "{\"seq\":";
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 ",\"level\":\"%s\",\"stage\":\"", r.seq,
                  to_string(r.level));
    out += buf;
    out += escape_json(r.stage) + "\",\"event\":\"" + escape_json(r.event);
    std::snprintf(buf, sizeof(buf),
                  "\",\"sim_us\":%" PRId64 ",\"wall_us\":%" PRIu64
                  ",\"fields\":{",
                  r.sim_us, r.wall_us);
    out += buf;
    bool first = true;
    for (const LogField& f : r.fields) {
      if (!first) out += ",";
      first = false;
      out += "\"" + escape_json(f.key) + "\":\"" + escape_json(f.value) + "\"";
    }
    out += "}}\n";
  }
  return out;
}

}  // namespace roomnet::obs
