// roomnet: the one command-line front end of the library.
//
//   roomnet run <dir> [options]            run the pipeline and write the run
//                                          directory: manifest.json,
//                                          perf.json, trace.folded (rendered
//                                          from perf.json), events.jsonl,
//                                          metrics.prom; print one
//                                          `degraded:` line per input a
//                                          faulty run lost
//   roomnet audit diff <manifest_a> <manifest_b>
//                                          name the first divergent stage
//   roomnet prof show|diff ...             the perf.json ledger (prof.cpp)
//   roomnet events query|timeline|summary|diff ...
//                                          the events.jsonl timeline
//                                          (events.cpp)
//   roomnet fleet run|summary ...          the household fleet (fleet.cpp)
//   roomnet corpus gen ...                 fuzz corpus seeding (corpus.cpp)
//
// Exit codes: every `diff` exits 0 when its inputs agree and 1 when they
// diverge, so CI can assert "threads=1 and threads=4 produced the same run"
// and fail with the stage that broke the determinism contract. Usage errors
// and unreadable inputs exit 2; a run that cannot write its directory exits
// 1.
//
// run options:
//   --seed N           sim seed (default 42)
//   --threads N        worker parallelism (default 1; 0 = auto)
//   --idle-minutes N   idle-capture window (default 10)
//   --interactions N   interaction count (default 20)
//   --app-sample N     apps executed (default 0: skip the campaign)
//   --loss P           frame-loss probability in [0, 1] (default 0; enables
//                      the fault layer, so ROOMNET_FAULT_SEED makes runs
//                      diverge and `audit diff` names the first stage the
//                      fault stream touched)
//   --churn P          device-churn probability in [0, 1] (default 0)
//   --no-scan          skip the active scan stage
//   --no-crowd         skip the crowd entropy stage
//   --memcap-bytes N   stage-3 flow-cache memcap (arms eviction)
//   --max-flows N      stage-3 flow-cache flow ceiling (arms eviction)
//   --idle-timeout-s N stage-3 flow idle timeout, seconds (arms eviction)
//   --rules <file>     alert-rule file instead of the built-in default set
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "core/pipeline.hpp"
#include "obs/manifest.hpp"
#include "watch/events.hpp"
#include "watch/rules.hpp"

namespace roomnet::cli {

namespace {

constexpr const char* kUsage =
    "usage: roomnet run <dir> [--seed N] [--threads N] [--idle-minutes N]\n"
    "                   [--interactions N] [--app-sample N] [--loss P]\n"
    "                   [--churn P] [--no-scan] [--no-crowd]\n"
    "                   [--memcap-bytes N] [--max-flows N]\n"
    "                   [--idle-timeout-s N] [--rules <file>]\n"
    "       roomnet audit diff <manifest_a> <manifest_b>\n"
    "       roomnet prof show <perf.json>\n"
    "       roomnet prof diff <current.json> <baseline.json>\n"
    "                   [--max-time P] [--max-alloc P] [--max-rss P]\n"
    "       roomnet events query <events.jsonl> [--device M] [--type T]\n"
    "                   [--min-severity S] [--since S] [--until S]\n"
    "                   [--limit N]\n"
    "       roomnet events timeline <events.jsonl> --device <mac|label>\n"
    "       roomnet events summary <events.jsonl>\n"
    "       roomnet events diff <events_a> <events_b>\n"
    "       roomnet fleet run <dir> [--households N] [--seed N]\n"
    "                   [--threads N] [--shard-size N] [--idle-s N]\n"
    "                   [--max-devices N]\n"
    "       roomnet fleet summary <dir>\n"
    "       roomnet corpus gen <dir> [--seed N] [--idle-seconds N]\n"
    "                   [--interactions N] [--pcap-dir DIR]\n"
    "                   [--max-per-category N]\n";

struct Verb {
  const char* name;
  const char* sub;  // nullptr: the verb takes no subcommand
  int (*main)(int, char**);
};

constexpr Verb kVerbs[] = {
    {"run", nullptr, run_main},
    {"audit", "diff", audit_diff_main},
    {"prof", "show", prof_show_main},
    {"prof", "diff", prof_diff_main},
    {"events", "query", events_query_main},
    {"events", "timeline", events_timeline_main},
    {"events", "summary", events_summary_main},
    {"events", "diff", events_diff_main},
    {"fleet", "run", fleet_run_main},
    {"fleet", "summary", fleet_summary_main},
    {"corpus", "gen", corpus_gen_main},
};

int dispatch(int argc, char** argv) {
  for (const Verb& verb : kVerbs) {
    if (argc < 2 || std::strcmp(argv[1], verb.name) != 0) continue;
    if (verb.sub == nullptr) return verb.main(argc - 2, argv + 2);
    if (argc >= 3 && std::strcmp(argv[2], verb.sub) == 0)
      return verb.main(argc - 3, argv + 3);
  }
  throw UsageError(argc < 2 ? "missing command" : "unknown command");
}

std::string read_rules(const char* path) {
  std::ifstream in(path);
  if (!in) throw InputError(std::string("cannot read ") + path);
  std::ostringstream text;
  text << in.rdbuf();
  const watch::RuleParse parsed = watch::parse_rules(text.str());
  if (!parsed.error.empty())
    throw InputError(std::string(path) + ": " + parsed.error);
  return text.str();
}

}  // namespace

int run_main(int argc, char** argv) {
  if (argc < 1) throw UsageError("run needs an output directory");
  const std::string out_dir = argv[0];
  PipelineConfig config;
  config.telemetry_out = out_dir;
  config.threads = 1;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  Flags flags(argc - 1, argv + 1);
  while (flags.next()) {
    if (flags.is("--seed"))
      config.seed = static_cast<std::uint64_t>(flags.integer());
    else if (flags.is("--threads"))
      config.threads = static_cast<int>(flags.count(kIntMax));
    else if (flags.is("--idle-minutes"))
      config.idle_duration = flags.seconds(60);
    else if (flags.is("--interactions"))
      config.interactions = static_cast<int>(flags.count(kIntMax));
    else if (flags.is("--app-sample"))
      config.app_sample = static_cast<int>(flags.count(kIntMax));
    else if (flags.is("--loss"))
      config.faults.loss = flags.probability();
    else if (flags.is("--churn"))
      config.faults.churn = flags.probability();
    else if (flags.is("--no-scan"))
      config.run_scan = false;
    else if (flags.is("--no-crowd"))
      config.run_crowd = false;
    else if (flags.is("--memcap-bytes"))
      config.stream.memcap_bytes = static_cast<std::size_t>(flags.count());
    else if (flags.is("--max-flows"))
      config.stream.max_flows = static_cast<std::size_t>(flags.count());
    else if (flags.is("--idle-timeout-s"))
      config.stream.idle_timeout = flags.seconds();
    else if (flags.is("--rules"))
      config.watch.rules = read_rules(flags.value());
    else
      flags.unknown();
  }

  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();
  const obs::RunManifest& m = results.manifest;
  std::printf("run: seed=%#llx fault_seed=%#llx threads=%d\n",
              static_cast<unsigned long long>(m.sim_seed),
              static_cast<unsigned long long>(m.fault_seed),
              results.profile.threads);
  const FlowCacheStats& fc = results.flow_cache;
  std::printf(
      "flow cache: created=%llu peak_flows=%zu peak_bytes=%zu "
      "prunes=%llu (idle=%llu est=%llu memcap=%llu excess=%llu "
      "flush=%llu)\n",
      static_cast<unsigned long long>(fc.flows_created), fc.peak_flows,
      fc.peak_bytes, static_cast<unsigned long long>(fc.prunes_total()),
      static_cast<unsigned long long>(fc.prunes[0]),
      static_cast<unsigned long long>(fc.prunes[1]),
      static_cast<unsigned long long>(fc.prunes[2]),
      static_cast<unsigned long long>(fc.prunes[3]),
      static_cast<unsigned long long>(fc.prunes[4]));
  std::printf("config digest: %s\n", m.config_digest.c_str());
  for (const obs::StageRecord& stage : m.stages)
    std::printf("  %-14s %s  sim_us=%lld\n", stage.name.c_str(),
                stage.sha256.c_str(), static_cast<long long>(stage.sim_us));
  std::printf("result digest: %s\n", m.result_digest.c_str());
  std::printf("wrote %s/manifest.json\n", out_dir.c_str());
  const watch::WatchReport& watch = results.watch;
  std::printf("watch: events=%llu (dropped=%llu) devices=%llu packets=%llu\n",
              static_cast<unsigned long long>(watch.events_emitted),
              static_cast<unsigned long long>(watch.events_dropped),
              static_cast<unsigned long long>(watch.devices_tracked),
              static_cast<unsigned long long>(watch.packets_seen));
  std::printf("timeline hash: %s\n", watch::hash_events(watch.events).c_str());
  for (const faults::DegradedResult& entry : results.degraded)
    std::printf("degraded: [%s] %s: %s\n", entry.stage.c_str(),
                entry.subject.c_str(), entry.reason.c_str());
  return 0;
}

int audit_diff_main(int argc, char** argv) {
  if (argc != 2) throw UsageError("audit diff takes two manifests");
  const obs::ManifestDiff diff =
      obs::diff_manifests(loaded(obs::load_manifest(argv[0]), argv[0]),
                          loaded(obs::load_manifest(argv[1]), argv[1]));
  if (diff.equal) {
    std::printf("identical: %s\n", diff.detail.c_str());
    return 0;
  }
  std::printf("DIVERGED [%s]%s%s: %s\n", diff.component.c_str(),
              diff.stage.empty() ? "" : " at stage ", diff.stage.c_str(),
              diff.detail.c_str());
  return 1;
}

}  // namespace roomnet::cli

int main(int argc, char** argv) {
  using roomnet::cli::UsageError;
  try {
    return roomnet::cli::dispatch(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "roomnet: %s\n%s", e.what(),
                 roomnet::cli::kUsage);
    return 2;
  } catch (const roomnet::cli::InputError& e) {
    std::fprintf(stderr, "roomnet: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roomnet: %s\n", e.what());
    return 1;
  }
}
