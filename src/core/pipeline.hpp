// Pipeline: the one-call driver running the full study — lab boot, idle
// capture, interactions, classification, active scan, vulnerability audit,
// app campaign, and the crowdsourced entropy analysis — and returning every
// result table the paper's evaluation reports.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "analysis/exposure.hpp"
#include "analysis/overview.hpp"
#include "apps/audit.hpp"
#include "apps/runtime.hpp"
#include "classify/crossval.hpp"
#include "classify/response.hpp"
#include "crowd/entropy.hpp"
#include "faults/churn.hpp"
#include "obs/manifest.hpp"
#include "prof/report.hpp"
#include "scan/vuln.hpp"
#include "stream/stream.hpp"
#include "testbed/lab.hpp"
#include "watch/watch.hpp"

namespace roomnet {

struct PipelineConfig {
  std::uint64_t seed = 42;
  /// When non-empty: enables tracing + timing for this run and dumps
  /// `metrics.prom`, `metrics.json`, and `trace.json` into this directory
  /// after the last stage. Telemetry never perturbs results — a run with
  /// telemetry enabled produces byte-identical tables to one without.
  std::string telemetry_out;
  /// Idle-capture window (the paper used 5 days; protocol prevalence
  /// saturates after every periodic behavior has fired at least once —
  /// 6 h covers the slowest 2.5 h cadence with margin).
  SimTime idle_duration = SimTime::from_hours(6);
  int interactions = 500;
  /// Worker parallelism for the analysis stages that run after the
  /// simulation (vulnerability auditing and household fingerprint
  /// extraction). Stage 3 folds on the sim thread at tap time and does not
  /// use the pool. 0 = auto: the ROOMNET_THREADS env var, else hardware
  /// concurrency. Results are byte-identical for every value — partial
  /// results always merge in input order, and threads=1 runs the historical
  /// sequential code.
  int threads = 0;
  /// Apps actually executed (the full 2,335 runs in the bench; smaller
  /// samples keep interactive use fast). 0 disables the campaign.
  int app_sample = 200;
  bool run_scan = true;
  bool run_crowd = true;
  /// Fault injection (packet loss/dup/reorder/jitter/corruption, device
  /// churn). The default all-off plan reproduces fault-free runs
  /// byte-for-byte; any enabled fault also arms retry budgets (DHCP,
  /// probe, and discovery retransmits) and graceful stage degradation.
  /// The fault RNG is seeded from `seed` (override: ROOMNET_FAULT_SEED),
  /// so faulty runs too are byte-identical at every thread count.
  faults::FaultConfig faults;
  /// Flow-cache bounds for stage 3, which folds every local packet from lab
  /// boot through the interactions into the analysis builders at tap time
  /// (stream::StreamAnalyzer). The default never evicts; arming a knob
  /// bounds memory at the cost of possibly different results, which the
  /// config digest then records (DESIGN.md §12).
  stream::StreamConfig stream;
  /// In-network observability (on by default): per-device event timelines
  /// and the streaming alert-rule engine, fed from the same tap as stage 3.
  /// The timeline is hashed into the manifest as the "watch" stage
  /// and spilled to `telemetry_out/events.jsonl` (DESIGN.md §14).
  watch::WatchConfig watch;
};

struct PipelineResults {
  // RQ1 artifacts.
  ProtocolUsage usage;
  CommGraph graph;
  CrossValidation crossval;
  ResponseStats responses;
  /// Local frames the stage-3 analyses read: everything the tap accepted
  /// from lab boot through the interactions, the same count the "classify"
  /// stage hash folds. Scan, app and crowd traffic is not counted.
  std::size_t local_packets = 0;
  std::size_t flows = 0;
  // RQ2 artifacts.
  ExposureMatrix exposure;
  std::vector<PortScanReport> scan_reports;
  std::vector<DeviceAudit> audits;
  std::vector<VulnFinding> vulnerabilities;
  // RQ3 artifacts.
  AppCampaignStats app_stats;
  std::vector<ExfiltrationFinding> exfiltration;
  FingerprintAnalysis fingerprints;
  /// The 93 testbed MACs (percentage denominators).
  std::set<MacAddress> population;
  /// Stage-3 flow-cache accounting: creation/prune counters by reason,
  /// occupancy and byte peaks. Not part of any stage hash — it describes
  /// the machinery, not the analysis.
  FlowCacheStats flow_cache;
  /// Graceful-degradation ledger (empty unless faults are enabled): inputs
  /// a stage lost to injected faults, recorded instead of failing the run.
  std::vector<faults::DegradedResult> degraded;
  /// Flight-recorder provenance: build + seeds + per-stage content hashes.
  /// Byte-identical (as obs::to_json) across thread counts for one seed;
  /// written to `telemetry_out/manifest.json` when telemetry is enabled.
  obs::RunManifest manifest;
  /// Resource twin of the manifest: per-stage wall/user/sys time, page
  /// faults, RSS, and allocation counters, keyed to the same stage names
  /// the manifest hashes. The arena counters and stage set are
  /// deterministic across thread counts; timings and heap counters are
  /// host-dependent (DESIGN.md §11). Written to `telemetry_out/perf.json`
  /// (plus trace.folded / alloc.folded) when telemetry is enabled.
  prof::ProfReport profile;
  /// The in-network event timeline + alert lifecycle (empty when
  /// config.watch.enabled is false). The merged event stream serializes to
  /// `telemetry_out/events.jsonl` and hashes into the manifest's "watch"
  /// stage — byte-identical across thread counts.
  watch::WatchReport watch;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {});

  /// Runs every stage and returns the results. Deterministic in the seed.
  /// Throws std::runtime_error naming the first path under `telemetry_out`
  /// that could not be created or written.
  PipelineResults run();

  /// The lab is exposed for callers wanting to poke at devices afterwards.
  [[nodiscard]] Lab& lab() { return *lab_; }

 private:
  PipelineConfig config_;
  std::unique_ptr<Lab> lab_;
  // Owned by the pipeline (not run()) so churn recovery events scheduled on
  // the lab's loop never outlive the driver that logs them.
  std::unique_ptr<faults::FaultPlan> fault_plan_;
  std::unique_ptr<faults::ChurnDriver> churn_;
};

}  // namespace roomnet
