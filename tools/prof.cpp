// roomnet prof: the perf-regression ledger over perf.json, the resource
// twin of `roomnet audit`.
//
//   roomnet prof show <perf.json>          print a report's stage table and
//                                          its deterministic fingerprint
//   roomnet prof diff <current> <baseline> [gates]
//                                          compare two perf.json files and
//                                          name the FIRST regressing stage
//
// `diff` exits 0 when every gate passes, 1 on a regression (naming the first
// regressing stage and metric), 2 on usage or I/O errors — so CI can gate a
// PR on "no stage got slower or hungrier than the committed baseline".
// Wall-time and RSS gates auto-skip when the two reports disagree on
// hardware_threads; heap gates skip across compilers or unhooked builds; the
// arena gates always compare (deterministic by contract, DESIGN.md §11).
//
// diff gate options (fractions, e.g. 0.25 = +25%):
//   --max-time P       wall-time regression limit (default 0.25)
//   --max-alloc P      allocation regression limit (default 0.10)
//   --max-rss P        peak-RSS regression limit (default 0.10)
#include <cstdio>

#include "cli.hpp"
#include "prof/report.hpp"

namespace roomnet::cli {

namespace {

void print_stage_table(const prof::ProfReport& report) {
  std::printf("%-14s %10s %10s %10s %8s %9s %12s %12s\n", "stage", "wall_ms",
              "user_ms", "sys_ms", "faults", "peak_rss", "arena_bytes",
              "heap_bytes");
  const auto row = [](const prof::StageProfile& s) {
    std::printf("%-14s %10lld %10lld %10lld %8lld %8lldK %12llu %12llu\n",
                s.name.c_str(), static_cast<long long>(s.wall_us / 1000),
                static_cast<long long>(s.user_us / 1000),
                static_cast<long long>(s.sys_us / 1000),
                static_cast<long long>(s.minor_faults + s.major_faults),
                static_cast<long long>(s.peak_rss_kb),
                static_cast<unsigned long long>(s.arena_bytes),
                static_cast<unsigned long long>(s.heap_bytes));
  };
  for (const auto& stage : report.stages) row(stage);
  row(report.totals);
  std::printf("threads=%d hardware_threads=%lld heap_hooks=%s compiler=%s\n",
              report.threads, static_cast<long long>(report.hardware_threads),
              report.profile_heap ? "on" : "off", report.compiler.c_str());
}

}  // namespace

int prof_show_main(int argc, char** argv) {
  if (argc != 1) throw UsageError("prof show takes one perf.json");
  const prof::ProfReport report = loaded(prof::load_report(argv[0]), argv[0]);
  print_stage_table(report);
  std::printf("deterministic fingerprint:\n%s",
              prof::deterministic_fingerprint(report).c_str());
  return 0;
}

int prof_diff_main(int argc, char** argv) {
  if (argc < 2) throw UsageError("prof diff takes two perf.json files");
  prof::DiffThresholds thresholds;
  Flags flags(argc - 2, argv + 2);
  while (flags.next()) {
    if (flags.is("--max-time"))
      thresholds.max_time_regression = flags.fraction();
    else if (flags.is("--max-alloc"))
      thresholds.max_alloc_regression = flags.fraction();
    else if (flags.is("--max-rss"))
      thresholds.max_rss_regression = flags.fraction();
    else
      flags.unknown();
  }
  const prof::ProfReport current = loaded(prof::load_report(argv[0]), argv[0]);
  const prof::ProfReport baseline =
      loaded(prof::load_report(argv[1]), argv[1]);
  const prof::ProfDiff diff =
      prof::diff_reports(current, baseline, thresholds);
  for (const auto& line : diff.lines) std::printf("%s\n", line.c_str());
  std::printf("%d gates compared, %d skipped\n", diff.compared, diff.skipped);
  if (diff.ok) {
    std::printf("ok: no stage regressed past the thresholds\n");
    return 0;
  }
  std::printf("REGRESSED at stage %s [%s]: %s\n", diff.stage.c_str(),
              diff.metric.c_str(), diff.detail.c_str());
  return 1;
}

}  // namespace roomnet::cli
