// roomnet fleet: the multi-household fleet driver.
//
//   roomnet fleet run <dir> [options]      sample and run a household fleet,
//                                          writing fleet_manifest.json,
//                                          fleet_aggregates.json, and
//                                          perf.json into dir
//   roomnet fleet summary <dir>            print the headline aggregates of
//                                          a previous run from its artifacts
//
// run options:
//   --households N    fleet size (default 1000)
//   --seed N          fleet seed (default 42); household k is reproducible
//                     from (seed, k) alone
//   --threads N       worker parallelism (default: ROOMNET_THREADS env var,
//                     else hardware concurrency)
//   --shard-size N    households per TaskPool chunk (default 64)
//   --idle-s N        per-household idle capture window, sim seconds
//                     (default 150)
//   --max-devices N   device-count ceiling per household, >= 1 (default 8)
//
// Determinism: fleet_manifest.json and fleet_aggregates.json are
// byte-identical for any --threads and any --shard-size (CI compares them
// with cmp across thread counts). perf.json is the volatile resource twin.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "cli.hpp"
#include "exec/task_pool.hpp"
#include "fleet/fleet.hpp"
#include "netcore/text_file.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace roomnet::cli {

namespace {

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

int fleet_run_main(int argc, char** argv) {
  if (argc < 1) throw UsageError("fleet run needs an output directory");
  const std::string out_dir = argv[0];
  fleet::FleetConfig config;
  Flags flags(argc - 1, argv + 1);
  while (flags.next()) {
    if (flags.is("--households"))
      config.households = flags.count();
    else if (flags.is("--seed"))
      config.seed = flags.count();
    else if (flags.is("--threads"))
      config.threads = static_cast<std::size_t>(flags.count());
    else if (flags.is("--shard-size"))
      config.shard_size = static_cast<std::size_t>(flags.count());
    else if (flags.is("--idle-s"))
      config.household.idle = flags.seconds();
    else if (flags.is("--max-devices"))
      config.household.max_devices = static_cast<std::size_t>(flags.count());
    else
      flags.unknown();
  }
  if (config.household.max_devices < config.household.min_devices)
    throw UsageError("--max-devices must be at least 1");

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "roomnet: cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  exec::TaskPool pool(config.threads);
  prof::Profiler::global().begin_run(static_cast<int>(pool.threads()));
  const fleet::FleetResults results = fleet::run_fleet(config, pool);
  const prof::ProfReport profile = prof::Profiler::global().finish();

  for (const auto& [file, text] :
       {std::pair{"fleet_manifest.json", to_json(results.manifest)},
        std::pair{"fleet_aggregates.json", to_json(results.aggregates)},
        std::pair{"perf.json", prof::to_json(profile)}}) {
    const std::string path = out_dir + "/" + file;
    if (!write_text_file(path, text)) {
      std::fprintf(stderr, "roomnet: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  const auto& agg = results.aggregates;
  const auto& stats = results.stats;
  std::printf("fleet: %llu households, %llu devices, %llu local packets, "
              "%llu flows\n",
              static_cast<unsigned long long>(agg.households),
              static_cast<unsigned long long>(agg.devices),
              static_cast<unsigned long long>(agg.packets),
              static_cast<unsigned long long>(agg.flows));
  std::printf("rate: %.1f households/s on %zu threads (%.2fs wall, "
              "%lld kB peak RSS)\n",
              stats.households_per_sec, stats.threads, stats.wall_s,
              static_cast<long long>(stats.peak_rss_kb));
  std::printf("contexts: %llu created, %llu reuses\n",
              static_cast<unsigned long long>(stats.contexts_created),
              static_cast<unsigned long long>(stats.context_reuses));
  std::printf("result_digest: %s\n", results.manifest.result_digest.c_str());
  std::printf("wrote %s/fleet_manifest.json, fleet_aggregates.json, "
              "perf.json\n", out_dir.c_str());
  return 0;
}

int fleet_summary_main(int argc, char** argv) {
  if (argc < 1) throw UsageError("fleet summary needs a run directory");
  const std::string out_dir = argv[0];
  const auto manifest = read_text_file(out_dir + "/fleet_manifest.json");
  const auto aggregates = read_text_file(out_dir + "/fleet_aggregates.json");
  if (!manifest || !aggregates) {
    std::fprintf(stderr,
                 "roomnet: no fleet artifacts under %s "
                 "(run `roomnet fleet run %s` first)\n",
                 out_dir.c_str(), out_dir.c_str());
    return 1;
  }
  std::printf("== %s/fleet_manifest.json ==\n%s", out_dir.c_str(),
              manifest->c_str());
  std::printf("== %s/fleet_aggregates.json ==\n%s", out_dir.c_str(),
              aggregates->c_str());
  return 0;
}

}  // namespace roomnet::cli
