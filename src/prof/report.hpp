// perf.json: the resource twin of manifest.json. One ProfReport records,
// for every pipeline stage the run manifest names, where the wall/user/sys
// time went, how many page faults and resident bytes it cost, and what it
// allocated — split into the deterministic core (stage set + arena counters,
// identical across thread counts and hosts for a fixed seed) and the
// host-dependent remainder (timings, RSS, faults, heap counters). The
// roomnet-prof CLI diffs two reports and names the FIRST regressing stage,
// exactly as roomnet-audit names the first divergent one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace roomnet::prof {

struct StageProfile {
  std::string name;
  // -- host-dependent: time ---------------------------------------------
  std::int64_t wall_us = 0;
  std::int64_t user_us = 0;
  std::int64_t sys_us = 0;
  // -- host-dependent: memory pressure ----------------------------------
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
  std::int64_t rss_delta_kb = 0;  // VmRSS movement across the stage
  std::int64_t rss_kb = 0;        // VmRSS at stage end
  std::int64_t peak_rss_kb = 0;   // process high-water at stage end
  // -- deterministic core: arena accounting (sim-thread, event order) ----
  std::uint64_t arena_allocs = 0;  // chunk reservations
  std::uint64_t arena_bytes = 0;   // bytes reserved by those chunks
  // -- host/thread-count dependent: pool + heap --------------------------
  std::uint64_t pool_tasks = 0;  // tasks submitted to exec::TaskPool
  std::uint64_t heap_allocs = 0;  // operator new calls (ROOMNET_PROFILE=ON)
  std::uint64_t heap_bytes = 0;
  std::int64_t heap_peak_live_bytes = 0;  // peak live heap during the stage
};

struct ProfReport {
  int schema = 1;
  std::string tool = "roomnet-prof";
  std::string compiler;     // __VERSION__ at build time
  bool profile_heap = false;  // heap hooks compiled in (ROOMNET_PROFILE=ON)
  int threads = 0;
  std::int64_t hardware_threads = 0;
  std::int64_t page_size = 0;
  std::vector<StageProfile> stages;
  /// Whole-run totals: cumulative fields summed, rss/peak absolute at run
  /// end, heap_peak_live the max over stages.
  StageProfile totals;  // name == "total"
};

/// Canonical JSON (fixed field order, no whitespace variance).
[[nodiscard]] std::string to_json(const ProfReport& report);
/// Strict parse of to_json() output; nullopt on malformed input.
[[nodiscard]] std::optional<ProfReport> parse_report(std::string_view text);
/// Reads and parses a perf.json file.
[[nodiscard]] std::optional<ProfReport> load_report(const std::string& path);

/// The deterministic fields only — stage names in order plus arena
/// allocation counters. Two runs of one seed must produce byte-identical
/// fingerprints at every thread count; timings and heap fields are excluded
/// by contract (DESIGN.md §11).
[[nodiscard]] std::string deterministic_fingerprint(const ProfReport& report);

/// Regression gates for diff_reports. A wall/RSS/heap ratio gate only fires
/// when the baseline side also clears the matching noise floor — a stage
/// that took 2ms and now takes 3ms is not a finding. The deterministic arena
/// gates also fire when the baseline is under the floor but the current
/// value is over it, so a stage whose baseline arena is 0 cannot start
/// allocating unseen.
struct DiffThresholds {
  double max_time_regression = 0.25;   // wall_us
  double max_alloc_regression = 0.10;  // arena_allocs/arena_bytes/heap_*
  double max_rss_regression = 0.10;    // peak_rss_kb
  std::int64_t min_wall_us = 20000;        // time floor per stage
  std::uint64_t min_allocs = 1000;         // count floor
  std::uint64_t min_alloc_bytes = 1 << 20;  // bytes floor
  std::int64_t min_rss_kb = 16 * 1024;     // RSS floor
};

struct ProfDiff {
  bool ok = true;
  /// First regressing stage + the metric that tripped, when !ok.
  std::string stage;
  std::string metric;
  /// (current - baseline) / baseline of that metric; for an arena gate
  /// tripped over an under-floor baseline, (current - baseline) / floor.
  double ratio = 0.0;
  std::string detail;
  /// One line per (stage, metric family) comparison, in stage order —
  /// "stage classify: wall 812ms vs 790ms (+2.8%, limit +25%)" — including
  /// SKIP lines for gates disabled by hardware/compiler mismatch.
  std::vector<std::string> lines;
  int compared = 0;
  int skipped = 0;
};

/// Compares `current` against `baseline` stage-by-stage in run order and
/// reports the FIRST stage whose time, allocations, or peak RSS regressed
/// past the thresholds. Wall-time and RSS gates are skipped when the two
/// reports disagree on hardware_threads (the baseline records the machine
/// shape it was measured on); heap gates are skipped when the compilers
/// differ or either side was built without heap hooks. Arena gates always
/// compare — they are deterministic by contract.
[[nodiscard]] ProfDiff diff_reports(const ProfReport& current,
                                    const ProfReport& baseline,
                                    const DiffThresholds& thresholds = {});

}  // namespace roomnet::prof
