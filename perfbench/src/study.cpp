// The `study` workload: the paper's end-to-end study, Pipeline::run() with
// scan, apps and crowd on, single-threaded. Set-up is the Pipeline (Lab)
// construction before each rep; a rep fails when run() throws or its
// manifest result digest differs from the first rep's.
#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "capture/filter.hpp"
#include "common.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

constexpr std::size_t kMinReps = 3;
constexpr int kSetupsPerRep = 5;
constexpr double kMiB = 1024.0 * 1024.0;

PipelineConfig study_config(const Options& options, bool full) {
  PipelineConfig config;
  config.seed = options.seed;
  config.threads = 1;
  config.run_scan = true;
  config.run_crowd = true;
  if (full && !options.tiny) {
    config.idle_duration = SimTime::from_minutes(20);
    config.interactions = 50;
    config.app_sample = 20;
  } else {
    config.idle_duration = SimTime::from_minutes(2);
    config.interactions = 5;
    config.app_sample = 2;
  }
  return config;
}

/// The stages whose profile the per-layer metrics read; a full study must
/// record each of them.
constexpr const char* kStages[] = {"idle",     "interactions", "classify",
                                   "scan",     "apps",         "crowd",
                                   "watch"};

/// Output checks beyond digest agreement: every reported stage ran, the
/// testbed population exists, and the scan stage produced reports.
bool results_sane(const PipelineResults& results, Report& report) {
  bool ok = !results.manifest.result_digest.empty() &&
            !results.population.empty() && !results.scan_reports.empty();
  for (const char* stage : kStages) {
    const auto& stages = results.manifest.stages;
    ok = ok && std::any_of(stages.begin(), stages.end(),
                           [&](const auto& s) { return s.name == stage; });
  }
  if (!ok) report.fail_check("study results missing stages or outputs");
  return ok;
}

RepSamples study_reps(const PipelineConfig& config, double budget_s,
                      Report& report) {
  RepSamples samples;
  std::string reference;
  const double start = wall_now();
  while (samples.wall_s.size() < kMinReps || !budget_spent(start, budget_s)) {
    samples.time_reference();
    // Lab construction takes well under a millisecond: the rep's set-up
    // sample is the median of several constructions.
    std::optional<Pipeline> pipeline;
    std::vector<double> setups;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      pipeline.reset();
      const double setup_start = wall_now();
      pipeline.emplace(config);
      setups.push_back(wall_now() - setup_start);
    }
    samples.setup_s.push_back(median(setups));

    const std::uint64_t frames0 = counter_value("roomnet_switch_frames_total");
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    bool failed = true;
    try {
      const PipelineResults results = pipeline->run();
      samples.wall_s.push_back(wall_now() - wall0);
      samples.cpu_s.push_back(cpu_now() - cpu0);
      samples.frames.push_back(static_cast<double>(
          counter_value("roomnet_switch_frames_total") - frames0));
      if (reference.empty()) reference = results.manifest.result_digest;
      failed = results.manifest.result_digest != reference ||
               !results_sane(results, report);
    } catch (const std::exception& e) {
      report.note(std::string("study rep threw: ") + e.what());
      samples.wall_s.push_back(wall_now() - wall0);
      samples.cpu_s.push_back(cpu_now() - cpu0);
      samples.frames.push_back(0);
    }
    samples.households.push_back(1);
    report.attempt(1, failed ? 1 : 0);
  }
  samples.time_reference();
  return samples;
}

const prof::StageProfile* find_stage(const prof::ProfReport& profile,
                                     const std::string& name) {
  for (const auto& stage : profile.stages)
    if (stage.name == name) return &stage;
  return nullptr;
}

}  // namespace

double probe_study(const Options& options, bool headline, Report& report) {
  const PipelineConfig config = study_config(options, headline);
  Pipeline pipeline(config);
  // Sim time of every frame the pipeline's own tap treats as local, to
  // bucket them by the stage boundaries the manifest records.
  const LocalFilter filter;
  std::vector<std::int64_t> tapped;
  pipeline.lab().network().add_packet_tap(
      [&](SimTime at, const PacketView& packet, BytesView) {
        if (filter.matches(packet)) tapped.push_back(at.us());
      });
  const std::uint64_t probes0 = counter_value("roomnet_scan_probes_sent_total");
  const std::uint64_t apps0 = counter_value("roomnet_apps_runs_total");
  const std::uint64_t tasks0 =
      counter_value("roomnet_exec_tasks_submitted_total");
  const SimCounters sim;
  const double wall0 = wall_now();
  const PipelineResults results = pipeline.run();
  const double traced_wall = wall_now() - wall0;
  if (headline) sim.report(report);
  report.attempt(1, results_sane(results, report) ? 0 : 1);

  const auto stage_value = [&](const char* stage, auto field) {
    const prof::StageProfile* profile = find_stage(results.profile, stage);
    if (profile == nullptr) {
      report.fail_check(std::string("no profile for stage ") + stage);
      return 0.0;
    }
    return field(*profile);
  };
  for (const char* stage : kStages)
    report.metric(std::string("core.stage.") + stage + ".wall_ms",
                  stage_value(stage,
                              [](const prof::StageProfile& s) {
                                return static_cast<double>(s.wall_us) / 1e3;
                              }),
                  "ms");
  for (const char* stage : {"classify", "scan", "apps"})
    report.metric(std::string("core.stage.") + stage + ".peak_rss_mb",
                  stage_value(stage,
                              [](const prof::StageProfile& s) {
                                return static_cast<double>(s.peak_rss_kb) /
                                       1024.0;
                              }),
                  "MB");
  for (const char* stage : {"idle", "interactions", "scan", "apps"})
    report.metric(std::string("core.stage.") + stage + ".arena_mb",
                  stage_value(stage,
                              [](const prof::StageProfile& s) {
                                return static_cast<double>(s.arena_bytes) /
                                       kMiB;
                              }),
                  "MB");
  report.metric("capture.arena_mb",
                static_cast<double>(results.profile.totals.arena_bytes) / kMiB,
                "MB");

  std::int64_t classify_end_us = -1;
  for (const auto& stage : results.manifest.stages)
    if (stage.name == "classify") classify_end_us = stage.sim_us;
  const auto before_classify_end = static_cast<double>(
      std::count_if(tapped.begin(), tapped.end(),
                    [&](std::int64_t at) { return at <= classify_end_us; }));
  report.metric("sim.tap.stage3_frac",
                tapped.empty() ? 0.0
                               : before_classify_end /
                                     static_cast<double>(tapped.size()),
                "ratio");
  report.metric("scan.probes_sent",
                static_cast<double>(
                    counter_value("roomnet_scan_probes_sent_total") - probes0),
                "count");
  report.metric(
      "apps.runs",
      static_cast<double>(counter_value("roomnet_apps_runs_total") - apps0),
      "count");
  report.metric("exec.tasks",
                static_cast<double>(
                    counter_value("roomnet_exec_tasks_submitted_total") -
                    tasks0),
                "count");
  return traced_wall;
}

void study_workload(const Options& options, Report& report) {
  const PipelineConfig config = study_config(options, true);
  if (!options.trace) {
    report_end_to_end(study_reps(config, options.seconds, report), report);
    return;
  }
  // The reported traced study runs first: VmHWM only rises, so the per-stage
  // peak RSS readings are the study's own only in a fresh process. The
  // overhead compares a second, warm traced run with the warm untraced reps.
  probe_study(options, true, report);
  const RepSamples untraced = study_reps(config, options.seconds / 2, report);
  Report warm;
  const double traced = probe_study(options, true, warm);
  report.attempt(warm.attempted(), warm.failed());
  if (!warm.correct()) report.fail_check("warm traced study");
  report.metric("trace.overhead_frac", traced / median(untraced.wall_s) - 1,
                "ratio");
  probe_fleet(options, false, report);
  probe_corpus(false, report);
}

}  // namespace perfbench
