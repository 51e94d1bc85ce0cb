// roomnet_perfbench — the repository benchmark. One invocation runs one
// workload for a fixed measuring time and prints note lines followed by one
// JSON result line:
//
//   roomnet_perfbench --workload study|fleet|replay --seed N --seconds S
//                     --trace 0|1 [--tiny]
//
// --trace 0 reports the end-to-end metrics, --trace 1 every per-layer
// metric (perfbench/README.md lists both). Run it from the checkout root:
// the replay corpus path is relative to it. perfbench/run.py builds this
// binary and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload study|fleet|replay --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else {
      return usage(argv[0]);
    }
  }
  if (options.seconds <= 0) return usage(argv[0]);

  using Runner = void (*)(const perfbench::Options&, perfbench::Report&);
  Runner runner = nullptr;
  if (options.workload == "study") runner = perfbench::study_workload;
  if (options.workload == "fleet") runner = perfbench::fleet_workload;
  if (options.workload == "replay") runner = perfbench::replay_workload;
  if (runner == nullptr) return usage(argv[0]);

  perfbench::Report report;
  const perfbench::Calibration before = perfbench::calibrate();
  try {
    runner(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  const perfbench::Calibration after = perfbench::calibrate();
  char line[256];
  std::snprintf(line, sizeof(line),
                "calibration: spin_ms before=%.2f after=%.2f; parallelism "
                "before=%.2f after=%.2f of %u threads",
                before.spin_ms, after.spin_ms, before.parallelism,
                after.parallelism, before.threads);
  report.note(line);
  report.print();
  return 0;
}
