// roomnet::telemetry — metrics substrate for the whole study stack.
//
// A small Prometheus-shaped registry: Counter / Gauge / Histogram instances
// grouped into labeled families. Instrument sites fetch a metric once (the
// returned reference is stable for the registry's lifetime) and then touch
// only a relaxed atomic on the hot path, so the single-threaded simulator
// stays deterministic while future parallel backends can share the same
// counters safely.
//
// Naming convention: `roomnet_<layer>_<name>`, e.g.
// `roomnet_switch_frames_total`, `roomnet_sim_events_fired`.
//
// Per-stage cost (wall, CPU, RSS, allocations) is not a metric: it lives in
// the profiler's perf.json (prof::ProfReport), the run's one cost record.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace roomnet::telemetry {

/// Sorted (key, value) pairs identifying one member of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  /// High-water mark: keeps the maximum of every recorded value.
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-2 bucket histogram for non-negative integer observations
/// (latencies in µs, sizes in bytes). Bucket i counts values whose bit width
/// is i — i.e. value 0 lands in bucket 0, 1 in bucket 1, 2..3 in bucket 2,
/// 4..7 in bucket 3, … — so bucket i spans [2^(i-1), 2^i). Values past the
/// last bucket saturate into it.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Inclusive upper bound of bucket i: 2^i - 1.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper_bound(
      std::size_t i) {
    return (std::uint64_t{1} << i) - 1;
  }
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) {
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  void observe(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one metric, used by the exporters.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  std::vector<std::uint64_t> buckets;  // per-bucket counts (histograms)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// Owns every metric. Lookup takes a mutex; returned references are stable,
/// so hot paths resolve their metrics once and never look up again.
class Registry {
 public:
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Deterministically ordered (by name, then labels) copy of every metric.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Zeroes every registered metric (tests; per-run deltas).
  void reset_all();

  /// The process-wide registry all built-in instrumentation reports to.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, Labels>;

  Entry& find_or_create(const std::string& name, Labels&& labels,
                        MetricKind kind);

  mutable std::mutex mutex_;
  std::map<Key, Entry> metrics_;
};

}  // namespace roomnet::telemetry
