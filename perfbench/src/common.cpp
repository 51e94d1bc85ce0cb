#include "common.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory_resource>
#include <stdexcept>
#include <thread>

#include "obs/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(roomnet::obs::peak_rss_kb()) / 1024.0;
}

std::uint64_t counter_value(const std::string& name) {
  return roomnet::telemetry::Registry::global().counter(name).value();
}

std::int64_t gauge_value(const std::string& name) {
  return roomnet::telemetry::Registry::global().gauge(name).value();
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    q.p25 = q.median = q.p75 = values.front();
    return q;
  }
  // statistics.quantiles(n=4, method="exclusive"), term for term.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  };
  q.p25 = cut(1);
  q.median = cut(2);
  q.p75 = cut(3);
  return q;
}

double median(std::vector<double> values) {
  return quartiles(std::move(values)).median;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

/// A fixed amount of dependent integer work (~20 ms on a 2020s core).
std::uint64_t spin() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i)
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

volatile std::uint64_t g_spin_sink = 0;

double timed_spin_ms() {
  const double start = wall_now();
  g_spin_sink = g_spin_sink + spin();
  return (wall_now() - start) * 1e3;
}

/// The reference_s() kernel, in `arena`: its strings never touch the heap.
std::uint64_t reference_kernel(void* arena, std::size_t bytes) {
  std::pmr::monotonic_buffer_resource pool(arena, bytes,
                                           std::pmr::null_memory_resource());
  std::pmr::vector<std::pmr::string> strings(&pool);
  constexpr int kStrings = 100'000;
  strings.reserve(kStrings);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  char text[32];
  for (int i = 0; i < kStrings; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int n = std::snprintf(text, sizeof(text), "device-%llu",
                                static_cast<unsigned long long>(x >> 24));
    strings.emplace_back(text, static_cast<std::size_t>(n));
  }
  std::sort(strings.begin(), strings.end());
  return strings.front().size() + strings[kStrings / 2].back();
}

void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  const bool closed = f != nullptr && std::fclose(f) == 0;
  if (!ok || !closed)
    throw std::runtime_error(
        "cannot reset VmHWM through /proc/self/clear_refs");
}

}  // namespace

double reference_s() {
  // The arena is mapped with its pages faulted in, and unmapped after the
  // kernel, so neither the page faults nor the memory count.
  constexpr std::size_t kArenaBytes = 8u << 20;
  void* arena = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (arena == MAP_FAILED)
    throw std::runtime_error("cannot map the reference arena");
  const double start = wall_now();
  g_spin_sink = g_spin_sink + reference_kernel(arena, kArenaBytes);
  const double seconds = wall_now() - start;
  munmap(arena, kArenaBytes);
  return seconds;
}

void RepSamples::time_reference() {
  // VmHWM since the last reset covers the set-up and rep just done; the
  // reset after the reference keeps its arena out of the next reading.
  if (!wall_s.empty())
    peak_rss_mb = std::max(peak_rss_mb, perfbench::peak_rss_mb());
  reference_s.push_back(perfbench::reference_s());
  reset_peak_rss();
}

Calibration calibrate() {
  Calibration c;
  c.spin_ms = std::min(timed_spin_ms(), timed_spin_ms());
  c.threads = std::max(1u, std::thread::hardware_concurrency());
  const double start = wall_now();
  std::vector<std::thread> threads;
  threads.reserve(c.threads);
  for (unsigned i = 0; i < c.threads; ++i)
    threads.emplace_back([] { g_spin_sink = g_spin_sink + spin(); });
  for (auto& t : threads) t.join();
  const double parallel_ms = (wall_now() - start) * 1e3;
  c.parallelism = parallel_ms > 0
                      ? static_cast<double>(c.threads) * c.spin_ms / parallel_ms
                      : 0;
  return c;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::attempt(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fail_check(const std::string& what) {
  check_failures_.push_back(what);
}

void Report::print() const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  for (const auto& what : check_failures_)
    std::printf("check failed: %s\n", what.c_str());
  for (const auto& m : metrics_)
    std::printf("metric %-40s %16s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            format_number(metrics_[i].value) + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_end_to_end(const RepSamples& samples, Report& report) {
  RepSamples scaled;
  for (std::size_t i = 0; i < samples.wall_s.size(); ++i) {
    const double scale = 2 * kReferenceS / (samples.reference_s[i] +
                                            samples.reference_s[i + 1]);
    scaled.setup_s.push_back(samples.setup_s[i] * scale);
    scaled.wall_s.push_back(samples.wall_s[i] * scale);
    scaled.cpu_s.push_back(samples.cpu_s[i] * scale);
    scaled.frames.push_back(samples.frames[i] / scaled.wall_s.back());
    scaled.households.push_back(samples.households[i] / scaled.wall_s.back());
  }
  char line[256];
  for (const auto& [name, values] :
       {std::pair{"raw wall_s", &samples.wall_s},
        std::pair{"reference_s", &samples.reference_s},
        std::pair{"wall_s", &std::as_const(scaled.wall_s)}}) {
    const Quartiles q = quartiles(*values);
    std::snprintf(line, sizeof(line), "%s: p25=%.6f median=%.6f p75=%.6f n=%zu",
                  name, q.p25, q.median, q.p75, q.n);
    report.note(line);
  }
  for (const auto& [name, values] :
       {std::pair{"raw setup_s", &samples.setup_s},
        std::pair{"raw wall_s", &samples.wall_s},
        std::pair{"reference_s", &samples.reference_s}}) {
    std::string samples_line = std::string(name) + " samples:";
    for (const double v : *values) samples_line += " " + format_number(v);
    report.note(samples_line);
  }
  const double failed_frac =
      report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 1.0;
  std::snprintf(line, sizeof(line),
                "failed_frac: %s ratio (%llu of %llu operations)",
                format_number(failed_frac).c_str(),
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
  report.note(line);
  report.metric("setup_s", median(scaled.setup_s), "s");
  report.metric("wall_s", median(scaled.wall_s), "s");
  report.metric("cpu_s", median(scaled.cpu_s), "s");
  report.metric("peak_rss_mb", samples.peak_rss_mb, "MB");
  report.metric("frames_per_s", median(scaled.frames), "frames/s");
  report.metric("households_per_s", median(scaled.households), "households/s");
}

SimCounters::SimCounters()
    : events_(counter_value("roomnet_sim_events_fired")),
      frames_(counter_value("roomnet_switch_frames_total")),
      bytes_(counter_value("roomnet_switch_bytes_total")) {
  // The queue high-water gauge only rises: restart it for this headline.
  roomnet::telemetry::Registry::global()
      .gauge("roomnet_sim_queue_depth_highwater")
      .reset();
}

double SimCounters::events() const {
  return static_cast<double>(counter_value("roomnet_sim_events_fired") -
                             events_);
}

double SimCounters::frames() const {
  return static_cast<double>(counter_value("roomnet_switch_frames_total") -
                             frames_);
}

void SimCounters::report(Report& report) const {
  const double events = this->events();
  const double frames = this->frames();
  const auto bytes = static_cast<double>(
      counter_value("roomnet_switch_bytes_total") - bytes_);
  report.metric("sim.events", events, "count");
  report.metric("sim.events_per_frame", frames > 0 ? events / frames : 0,
                "ratio");
  report.metric(
      "sim.queue_depth_max",
      static_cast<double>(gauge_value("roomnet_sim_queue_depth_highwater")),
      "count");
  report.metric("sim.switch.frames", frames, "count");
  report.metric("sim.switch.bytes", bytes, "bytes");
}

}  // namespace perfbench
