// The per-stage resource profiler. One Profiler instance follows a pipeline
// run: begin_run() snapshots the OS resource and allocation baselines,
// begin_stage()/end_stage() bracket each stage with getrusage +
// /proc/self/statm + allocation-counter deltas, and finish() folds the
// accumulated StageProfiles into a ProfReport (perf.json) keyed to the SAME
// stage names the RunManifest hashes — so "the first divergent stage" from
// `roomnet audit diff` and "the first regressing stage" from
// `roomnet prof diff` name the same place in the pipeline.
//
// Sampling happens ONLY at stage boundaries (a handful of syscalls per
// stage), never per event or per packet: with ROOMNET_PROFILE=OFF the only
// always-on cost anywhere is the explicit arena/pool counter hooks — a few
// relaxed atomic adds per 256KiB chunk — which is how the profiler stays
// inside the ≤5% overhead budget while still making every run self-
// measuring.
//
// The report is the run's only cost record: nothing mirrors it into the
// metrics registry, and trace.folded is rendered from it (folded.hpp).
#pragma once

#include <string>
#include <vector>

#include "prof/counters.hpp"
#include "prof/report.hpp"
#include "prof/rusage.hpp"

namespace roomnet::prof {

class Profiler {
 public:
  /// Clears prior stages and snapshots the run baselines. `threads` is the
  /// resolved pipeline parallelism recorded into the report.
  void begin_run(int threads);

  /// Brackets one named stage. Stages are serial (pipeline stages run on
  /// the driving thread); nested begin_stage calls are a caller bug.
  void begin_stage(std::string name);
  void end_stage();
  [[nodiscard]] bool in_stage() const { return in_stage_; }

  /// Finalizes totals and returns the report. The profiler is reusable:
  /// the next begin_run() starts fresh.
  [[nodiscard]] ProfReport finish();

  /// The process-wide profiler the pipeline drives. Like the telemetry
  /// registry, it assumes one pipeline run at a time.
  static Profiler& global();

 private:
  bool in_stage_ = false;
  std::string stage_name_;
  ResourceSample run_start_{};
  ResourceSample stage_start_{};
  AllocSnapshot run_alloc_start_{};
  AllocSnapshot stage_alloc_start_{};
  int threads_ = 0;
  std::int64_t heap_peak_live_max_ = 0;
  std::vector<StageProfile> stages_;
};

/// RAII stage bracket for the pipeline's stage scopes.
class StageScope {
 public:
  explicit StageScope(std::string name,
                      Profiler& profiler = Profiler::global())
      : profiler_(&profiler) {
    profiler_->begin_stage(std::move(name));
  }
  ~StageScope() { profiler_->end_stage(); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Profiler* profiler_;
};

}  // namespace roomnet::prof
