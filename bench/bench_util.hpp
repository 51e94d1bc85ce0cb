// Shared helpers for the reproduction benches: each bench binary rebuilds
// one table or figure from the paper and prints paper-vs-measured rows.
//
// Alongside the human-readable output, every bench that calls header()
// writes a machine-readable `BENCH_<name>.json` at exit — name, wall_ms,
// any scalars registered via bench::scalar(), build provenance (git SHA,
// build type, compiler, heap-hook state, hardware threads), and a snapshot
// of the global telemetry registry — so the perf trajectory is trackable
// across PRs and a report always names the machine and build that measured
// it. The git SHA comes from the ROOMNET_GIT_SHA env var (scripts/bench.sh
// exports it); reports written outside the script say "unknown".
#pragma once

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/roomnet.hpp"
#include "exec/task_pool.hpp"
#include "prof/counters.hpp"
#include "stream/stream.hpp"
#include "telemetry/export.hpp"

#ifndef ROOMNET_BUILD_TYPE
#define ROOMNET_BUILD_TYPE "unknown"
#endif

namespace roomnet::bench {

namespace detail {
inline std::string report_name;                                   // NOLINT
inline std::chrono::steady_clock::time_point report_start;        // NOLINT
inline std::vector<std::pair<std::string, double>> report_scalars;  // NOLINT

inline std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    else if (!out.empty() && out.back() != '_')
      out += '_';
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

inline void write_report() {
  if (report_name.empty()) return;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - report_start)
          .count();
  const std::string path = "BENCH_" + report_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"name\": \"%s\",\n  \"wall_ms\": %.3f,\n"
               "  \"wall_s\": %.6f,\n  \"threads\": %zu,\n",
               report_name.c_str(), wall_ms, wall_ms / 1000.0,
               exec::TaskPool::default_threads());
  // Provenance: which commit, build, and machine produced these numbers.
  const char* sha = std::getenv("ROOMNET_GIT_SHA");
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f,
               "  \"git_sha\": \"%s\",\n  \"build_type\": \"%s\",\n"
               "  \"compiler\": \"%s\",\n  \"profile_heap\": %s,\n"
               "  \"hardware_threads\": %u,\n",
               (sha != nullptr && *sha != '\0') ? sha : "unknown",
               ROOMNET_BUILD_TYPE, __VERSION__,
               prof::heap_hooks_active() ? "true" : "false",
               hw == 0 ? 1 : hw);
  // bench_guard keys its machine-shape skip off this scalar; guarantee it
  // even for benches that did not register it themselves.
  bool has_hardware_threads = false;
  for (const auto& [key, value] : report_scalars)
    if (key == "hardware_threads") has_hardware_threads = true;
  if (!has_hardware_threads)
    report_scalars.emplace_back("hardware_threads",
                                static_cast<double>(hw == 0 ? 1 : hw));
  std::fprintf(f, "  \"scalars\": {");
  bool first = true;
  for (const auto& [key, value] : report_scalars) {
    std::fprintf(f, "%s\n    \"%s\": %.10g", first ? "" : ",", key.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "%s},\n", first ? "" : "\n  ");
  const std::string telemetry =
      telemetry::to_json(telemetry::Registry::global());
  std::fprintf(f, "  \"telemetry\": %s}\n", telemetry.c_str());
  std::fclose(f);
  std::printf("\n[bench] wrote %s\n", path.c_str());
}
}  // namespace detail

/// Registers one key result scalar for the BENCH_<name>.json report. The
/// key is sanitized like the report name (lowercase alphanumerics joined by
/// '_'), so labels such as "TPLINK_SHP" or "TLSv1.2" can be spliced in.
inline void scalar(const std::string& key, double value) {
  detail::report_scalars.emplace_back(detail::sanitize(key), value);
}

inline void header(const std::string& artifact, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), title.c_str());
  std::printf("(roomnet reproduction; 'paper' columns quote IMC'23 values)\n");
  std::printf("==============================================================\n");
  detail::report_name = detail::sanitize(artifact);
  detail::report_start = std::chrono::steady_clock::now();
  static const int registered = std::atexit(detail::write_report);
  (void)registered;
}

/// A Lab whose local traffic folds at the tap into the one stage-3 path: a
/// non-evicting StreamAnalyzer over the lab's device population, fed
/// through LocalFilter. The capture sink is never attached — the fold is
/// the only capture. finish() hands back the results and stops the tap
/// feeding the analyzer (as Pipeline releases its stage-3 capture), so
/// traffic a bench drives afterwards, such as a scan, is not folded.
/// Wall-clock cost scales with run(): 2 h idle ≈ 10 s on a laptop core.
class StreamedLab {
 public:
  explicit StreamedLab(LabConfig config = {})
      : lab(disable_recording(config)),
        population(device_macs(lab)),
        analyzer_(std::in_place, stream::StreamConfig{}, population) {
    lab.network().add_packet_tap(
        [this, filter = LocalFilter{}](SimTime at, const PacketView& packet,
                                       BytesView) {
          if (analyzer_ && filter.matches(packet))
            analyzer_->on_packet(at, packet);
        });
  }

  /// Boots every device, idles for `idle`, then runs `interactions`.
  void run(SimTime idle, int interactions = 0) {
    lab.start_all();
    lab.run_idle(idle);
    if (interactions > 0) lab.run_interactions(interactions);
  }

  /// Flushes the flow cache and returns every analysis; call once.
  [[nodiscard]] stream::StreamResults finish() {
    stream::StreamResults results = analyzer_->finish();
    analyzer_.reset();
    return results;
  }

  Lab lab;
  std::set<MacAddress> population;

 private:
  static LabConfig disable_recording(LabConfig config) {
    config.record_frames = false;
    return config;
  }
  static std::set<MacAddress> device_macs(const Lab& lab) {
    std::set<MacAddress> macs;
    for (const auto& device : lab.devices()) macs.insert(device->mac());
    return macs;
  }

  std::optional<stream::StreamAnalyzer> analyzer_;
};

}  // namespace roomnet::bench
