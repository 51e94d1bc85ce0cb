// Shared plumbing for the roomnet benchmark: clocks, process resource reads,
// order statistics, the CPU-availability calibration, the host-speed
// reference, and the Report every workload fills and main() prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizing: every workload at a size that runs in a few seconds.
  bool tiny = false;
};

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double wall_now();
/// User + system CPU seconds consumed by this process (getrusage).
[[nodiscard]] double cpu_now();
/// This process's VmHWM in MiB.
[[nodiscard]] double peak_rss_mb();

/// Current value of an unlabeled counter / gauge in the global registry.
/// Registry counters are cumulative, so callers difference two reads.
[[nodiscard]] std::uint64_t counter_value(const std::string& name);
[[nodiscard]] std::int64_t gauge_value(const std::string& name);

struct Quartiles {
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  std::size_t n = 0;
};
/// Quartiles as Python's statistics.quantiles(values, n=4) gives them.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Fixed single-thread spin timed before and after a run, plus the
/// parallelism `threads` concurrent copies of it actually get. Recorded only:
/// it lets a contended run be recognised, it gates nothing.
struct Calibration {
  double spin_ms = 0;
  double parallelism = 0;
  unsigned threads = 0;
};
[[nodiscard]] Calibration calibrate();

/// The host-speed reference: seconds taken by a fixed kernel — formatting and
/// sorting 100,000 short strings in a private mapped arena, so the program's
/// heap does not touch it — timed between the reps. On a shared host the speed a
/// core gives this process drifts by a third or more over minutes; the
/// reference slows with it, so a rep's time over the reference's around it
/// cancels the drift while still moving with the program. It is fixed code:
/// a change to the program does not move it.
[[nodiscard]] double reference_s();
/// The scale timings are normalized to: about the reference's time on an
/// uncontended core of the bench host, so normalized values read as seconds.
inline constexpr double kReferenceS = 0.035;

/// Everything one invocation prints: free-form note lines, then one JSON
/// line with the contract keys (correct, attempted, failed, metrics).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  void attempt(std::uint64_t attempted, std::uint64_t failed);
  void fail_check(const std::string& what);

  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string format_number(double value);

/// Time elapsed in `seconds_budget` since `start` (wall_now() units) — the
/// rep loops run while this is false or fewer than their minimum reps ran.
[[nodiscard]] inline bool budget_spent(double start, double seconds_budget) {
  return wall_now() - start >= seconds_budget;
}

/// Raw samples of a run's timed reps, and the reference timed before every
/// rep and after the last (one more than the reps). Set-up samples are per
/// rep: the set-up done before that rep.
struct RepSamples {
  std::vector<double> reference_s;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  /// Work done per rep: switch frames (study, fleet) or frames read (replay),
  /// and homes processed.
  std::vector<double> frames;
  std::vector<double> households;

  /// Peak RSS of the process over the set-ups and reps, in MiB, with the
  /// reference's own memory left out.
  double peak_rss_mb = 0;

  /// Times the reference once; called before every rep and after the last.
  void time_reference();
};

/// The end-to-end metrics: medians over the reps of each timing scaled by
/// kReferenceS over the mean of the two references around its rep (rates
/// from the scaled wall time), and the peak RSS over the set-ups and reps. Note lines give
/// the raw and scaled wall-time quartiles, every sample, and the failure
/// ratio.
void report_end_to_end(const RepSamples& samples, Report& report);

/// The three workloads. Each fills `report` with its end-to-end metrics, or
/// with every per-layer metric when `options.trace` is set.
void study_workload(const Options& options, Report& report);
void fleet_workload(const Options& options, Report& report);
void replay_workload(const Options& options, Report& report);

/// Per-layer probes shared by the traced runs. Every traced run reports
/// every layer: the workload's own probe runs at full size as the traced
/// headline (it also reports the sim.* counters); the layers that headline
/// does not reach are probed at a small size with `headline` false. The
/// study and corpus probes return their traced wall seconds, which the
/// workload compares with its untraced reps; the fleet headline reports
/// trace.overhead_frac itself, from spanned and unspanned run_household loops.
double probe_study(const Options& options, bool headline, Report& report);
void probe_fleet(const Options& options, bool headline, Report& report);
double probe_corpus(bool headline, Report& report);

/// Deltas of the always-on simulator counters over one traced headline:
/// sim.events, sim.events_per_frame, sim.queue_depth_max, sim.switch.*.
class SimCounters {
 public:
  SimCounters();
  void report(Report& report) const;
  /// Events fired and switch frames since construction.
  [[nodiscard]] double events() const;
  [[nodiscard]] double frames() const;

 private:
  std::uint64_t events_;
  std::uint64_t frames_;
  std::uint64_t bytes_;
};

}  // namespace perfbench
