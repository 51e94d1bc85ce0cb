// The `fleet` workload: fleet::run_fleet over many sampled households,
// single-threaded, on a warmed TaskPool, cycling through kFleetsPerRun
// fleets. Set-up is pool creation plus a warm-up fleet before each rep; a
// household fails when its row hash differs from its fleet's first rep's.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/task_pool.hpp"
#include "fleet/context.hpp"
#include "fleet/fleet.hpp"
#include "prof/profiler.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

/// Fleets a run cycles through, one per rep, each with its own seed derived
/// from the run's. The homes one seed samples vary in size, so one fleet's
/// work moves with the seed; the median over several fleets moves less.
constexpr std::uint64_t kFleetsPerRun = 8;
/// Every fleet runs at least twice, so each is checked against its first run.
constexpr std::size_t kMinReps = 2 * kFleetsPerRun;
/// Unspanned/spanned loop pairs behind the traced run's trace.overhead_frac.
constexpr std::size_t kMinOverheadPairs = 3;

fleet::FleetConfig fleet_config(const Options& options, bool full) {
  fleet::FleetConfig config;
  config.seed = options.seed;
  config.threads = 1;
  config.households = full && !options.tiny ? 1000 : 40;
  return config;
}

RepSamples fleet_reps(const fleet::FleetConfig& config, double budget_s,
                      Report& report) {
  RepSamples samples;
  fleet::FleetConfig warmup = config;
  warmup.households = std::min<std::uint64_t>(config.households, 200);
  std::vector<std::vector<std::string>> references(kFleetsPerRun);
  const double start = wall_now();
  // Whole cycles only, so every fleet weighs the same in the medians.
  while (samples.wall_s.size() < kMinReps ||
         samples.wall_s.size() % kFleetsPerRun != 0 ||
         !budget_spent(start, budget_s)) {
    const std::size_t which = samples.wall_s.size() % kFleetsPerRun;
    fleet::FleetConfig rep_config = config;
    rep_config.seed = config.seed * kFleetsPerRun + which;
    samples.time_reference();
    // Set-up before every rep: a fresh pool, warmed by a small fleet.
    const double setup_start = wall_now();
    exec::TaskPool pool(config.threads);
    (void)fleet::run_fleet(warmup, pool);
    samples.setup_s.push_back(wall_now() - setup_start);

    const std::uint64_t frames0 = counter_value("roomnet_switch_frames_total");
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    const fleet::FleetResults results = fleet::run_fleet(rep_config, pool);
    samples.wall_s.push_back(wall_now() - wall0);
    samples.cpu_s.push_back(cpu_now() - cpu0);
    samples.frames.push_back(static_cast<double>(
        counter_value("roomnet_switch_frames_total") - frames0));
    samples.households.push_back(static_cast<double>(config.households));

    std::vector<std::string>& reference = references[which];
    if (reference.empty()) reference = results.household_hashes;
    std::uint64_t failed = 0;
    if (results.household_hashes.size() != config.households ||
        results.aggregates.households != config.households) {
      failed = config.households;
    } else {
      for (std::size_t k = 0; k < reference.size(); ++k)
        if (results.household_hashes[k] != reference[k]) ++failed;
    }
    report.attempt(config.households, failed);
  }
  samples.time_reference();
  return samples;
}

}  // namespace

void probe_fleet(const Options& options, bool headline, Report& report) {
  const fleet::FleetConfig config = fleet_config(options, headline);
  const std::size_t n = config.households;

  // Every household through run_household on one recycled context, with a
  // span around each call when `household_ms` is given; returns the loop's
  // wall seconds.
  fleet::HouseholdContext context(config.household.cache);
  std::vector<std::string> rows(n);
  const auto household_loop = [&](std::vector<double>* household_ms) {
    const double wall0 = wall_now();
    for (std::uint64_t k = 0; k < n; ++k) {
      const double start = household_ms != nullptr ? wall_now() : 0;
      fleet::HouseholdResult row =
          fleet::run_household(config.household, config.seed, k, context);
      if (household_ms != nullptr)
        household_ms->push_back((wall_now() - start) * 1e3);
      rows[k] = std::move(row.sha256);
    }
    return wall_now() - wall0;
  };

  std::vector<double> household_ms;
  household_ms.reserve(n);
  const SimCounters sim;
  (void)household_loop(&household_ms);
  if (headline) sim.report(report);
  const double events = sim.events();
  const double frames = sim.frames();

  // One profiled fleet: the reduce phase and the context count, and the
  // reference rows the per-household spans must reproduce.
  exec::TaskPool pool(config.threads);
  prof::Profiler::global().begin_run(static_cast<int>(config.threads));
  const fleet::FleetResults results = fleet::run_fleet(config, pool);
  const prof::ProfReport profile = prof::Profiler::global().finish();
  double reduce_ms = 0;
  bool reduce_found = false;
  for (const auto& stage : profile.stages) {
    if (stage.name != "fleet_reduce") continue;
    reduce_ms = static_cast<double>(stage.wall_us) / 1e3;
    reduce_found = true;
  }
  if (!reduce_found) report.fail_check("no fleet_reduce profile stage");

  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (k >= results.household_hashes.size() ||
        results.household_hashes[k] != rows[k])
      ++failed;
  report.attempt(n, failed);

  const auto per_household = [&](double total) {
    return total / static_cast<double>(n);
  };
  report.metric("fleet.household_ms.p50", percentile(household_ms, 50), "ms");
  report.metric("fleet.household_ms.p99", percentile(household_ms, 99), "ms");
  report.metric("fleet.reduce_ms", reduce_ms, "ms");
  report.metric("fleet.events_per_household", per_household(events), "count");
  report.metric("fleet.frames_per_household", per_household(frames), "count");
  report.metric("fleet.contexts_created",
                static_cast<double>(results.stats.contexts_created), "count");
  if (!headline) return;

  // The cost of the spans alone: the same loop on the same warm context,
  // without and with them, alternated for half the run's budget.
  std::vector<double> plain;
  std::vector<double> spanned;
  const double start = wall_now();
  while (plain.size() < kMinOverheadPairs ||
         !budget_spent(start, options.seconds / 2)) {
    plain.push_back(household_loop(nullptr));
    household_ms.clear();
    spanned.push_back(household_loop(&household_ms));
  }
  report.metric("trace.overhead_frac", median(spanned) / median(plain) - 1,
                "ratio");
}

void fleet_workload(const Options& options, Report& report) {
  if (!options.trace) {
    report_end_to_end(
        fleet_reps(fleet_config(options, true), options.seconds, report),
        report);
    return;
  }
  probe_study(options, false, report);  // first: see study_workload
  probe_fleet(options, true, report);
  probe_corpus(false, report);
}

}  // namespace perfbench
