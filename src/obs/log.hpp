// roomnet::obs — structured logging for the study stack.
//
// Leveled, key-value log records ("flight recorder" style): every record
// names the subsystem that emitted it (`stage`), an event, and a list of
// key=value fields, stamped with both sim-time (from the run's event loop)
// and wall-time (since the ledger's epoch). Records land in a deterministic
// per-run ledger — a fixed-capacity ring like the tracer's, appended under a
// mutex in emission order — and export as JSONL (one record per line).
//
// Determinism contract, same as telemetry's: logging observes, never
// participates. The default level is OFF (override: ROOMNET_LOG_LEVEL env
// var), a disabled ledger costs one relaxed atomic load per ROOMNET_LOG
// site, and enabling any level reproduces the disabled run's results
// bit-for-bit — the run manifest hashes stage outputs, never log records,
// so the determinism auditor proves this on every CI run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/time.hpp"

namespace roomnet::obs {

/// Severity, ordered: a ledger at level L keeps records with level <= L.
enum class LogLevel : int {
  kOff = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
};

[[nodiscard]] const char* to_string(LogLevel level);
/// Parses "off"/"error"/"warn"/"info"/"debug" (or the numeric value);
/// anything unrecognized maps to kOff.
[[nodiscard]] LogLevel parse_log_level(std::string_view text);

struct LogField {
  std::string key;
  std::string value;

  friend bool operator==(const LogField&, const LogField&) = default;
};

/// kv() overloads render values deterministically (integers exactly,
/// doubles via %.17g so the shortest round-trippable form is stable).
[[nodiscard]] LogField kv(std::string key, std::string value);
[[nodiscard]] LogField kv(std::string key, const char* value);
[[nodiscard]] LogField kv(std::string key, std::int64_t value);
[[nodiscard]] LogField kv(std::string key, std::uint64_t value);
[[nodiscard]] LogField kv(std::string key, int value);
[[nodiscard]] LogField kv(std::string key, unsigned value);
[[nodiscard]] LogField kv(std::string key, double value);
[[nodiscard]] LogField kv(std::string key, bool value);

struct LogRecord {
  std::uint64_t seq = 0;  // emission order, 0-based since reset
  LogLevel level = LogLevel::kInfo;
  std::string stage;  // emitting subsystem: "pipeline", "scan", "faults", ...
  std::string event;  // what happened: "stage_end", "frame_dropped", ...
  std::int64_t sim_us = 0;     // SimTime when the record was emitted
  std::uint64_t wall_us = 0;   // wall clock since the ledger's epoch
  std::vector<LogField> fields;
};

/// The per-run record buffer. One process-wide instance (global()); tests
/// may construct private ones. Thread-safe: records are appended under a
/// mutex, which only matters for diagnostics of the parallel analysis
/// stages — all determinism-relevant emission happens on the sim thread in
/// event order.
class Ledger {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  Ledger() = default;

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  /// The one check every ROOMNET_LOG site pays when logging is off.
  [[nodiscard]] bool should_log(LogLevel level) const {
    return static_cast<int>(level) <= level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kOff;
  }

  void log(LogLevel level, std::string stage, std::string event,
           std::vector<LogField> fields = {});

  /// Source of sim time stamped onto records (e.g. the lab's event loop).
  /// Cleared with nullptr; records then carry sim time 0.
  void set_sim_clock(std::function<SimTime()> clock);

  /// Drops every record, re-zeroes seq and the wall epoch, and sets the
  /// ring capacity. The level is left alone.
  void reset(std::size_t capacity = kDefaultCapacity);

  /// Records in emission order (oldest surviving first). The ring keeps the
  /// newest `capacity` records; older ones are overwritten.
  [[nodiscard]] std::vector<LogRecord> records() const;
  /// Total records ever kept since reset() (>= records().size()).
  [[nodiscard]] std::uint64_t recorded() const;

  /// The process-wide ledger. Its level is initialized from the
  /// ROOMNET_LOG_LEVEL env var on first use (default: off).
  static Ledger& global();

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kOff)};
  mutable std::mutex mutex_;
  std::vector<LogRecord> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t recorded_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::function<SimTime()> sim_clock_;
};

/// One JSON object per line:
/// {"seq":0,"level":"info","stage":"pipeline","event":"stage_end",
///  "sim_us":0,"wall_us":12,"fields":{"stage":"idle"}}
[[nodiscard]] std::string to_jsonl(const std::vector<LogRecord>& records);

}  // namespace roomnet::obs

/// Emission macro: fields are only evaluated when `level` is enabled, so a
/// disabled ledger costs one relaxed atomic load per site. Bare kv() and
/// level names resolve inside roomnet::obs regardless of the caller's
/// namespace:
///   ROOMNET_LOG(kDebug, "scan", "probe_retry", kv("port", p), kv("n", n));
#define ROOMNET_LOG(level_, stage_, event_, ...)                          \
  do {                                                                    \
    ::roomnet::obs::Ledger& roomnet_log_ledger =                          \
        ::roomnet::obs::Ledger::global();                                 \
    if (roomnet_log_ledger.should_log(::roomnet::obs::LogLevel::level_))  \
      roomnet_log_ledger.log(::roomnet::obs::LogLevel::level_, stage_,    \
                             event_, [&] {                                \
                               using namespace ::roomnet::obs;            \
                               return std::vector<LogField>{__VA_ARGS__}; \
                             }());                                        \
  } while (0)
