// roomnet::prof tests: counter substrate, rusage sampling, the per-stage
// profiler, perf.json round-trips, the regression differ, folded-stack
// export, the pipeline-level determinism contract (perf.json's
// deterministic core is identical across thread counts), the run
// directory's artifact set, and the heap cost of the simulator's frame path.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "obs/schema.hpp"
#include "prof/counters.hpp"
#include "prof/folded.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "prof/rusage.hpp"
#include "sim/host.hpp"
#include "sim/mdns.hpp"
#include "sim/ssdp.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

TEST(ResourceSampleTest, SamplesAreSane) {
  const prof::ResourceSample a = prof::ResourceSample::now();
  // Burn a little CPU so the second sample can only move forward.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  const prof::ResourceSample b = prof::ResourceSample::now();

  EXPECT_GE(b.wall_us, a.wall_us);
  EXPECT_GE(b.user_us, a.user_us);
  EXPECT_GE(b.sys_us, a.sys_us);
  // rss_kb (statm) and peak_rss_kb (ru_maxrss) come from different kernel
  // accounting and are not mutually ordered — only sanity-check each alone.
  EXPECT_GT(a.rss_kb, 0);
  EXPECT_GT(a.peak_rss_kb, 0);
  EXPECT_GE(prof::page_size_bytes(), 4096);

  const prof::ResourceDelta d = prof::delta(a, b);
  EXPECT_GE(d.wall_us, 0);
  EXPECT_EQ(d.rss_kb, b.rss_kb);
}

TEST(CountersTest, HeapCountersMatchBuildConfiguration) {
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  auto* block = new std::uint8_t[4096];
  // Escape the pointer so the compiler cannot elide the new/delete pair
  // (C++14 allocation elision would otherwise skip the hooks entirely).
  asm volatile("" : : "g"(block) : "memory");
  const prof::AllocSnapshot mid = prof::snapshot_alloc_counters();
  delete[] block;
  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();

  if (prof::heap_hooks_active()) {
    EXPECT_GE(mid.heap_allocs - before.heap_allocs, 1u);
    EXPECT_GE(mid.heap_bytes - before.heap_bytes, 4096u);
    EXPECT_GE(after.heap_frees - mid.heap_frees, 1u);
  } else {
    EXPECT_EQ(mid.heap_allocs, before.heap_allocs);
    EXPECT_EQ(after.heap_bytes, before.heap_bytes);
  }
}

prof::ProfReport make_report() {
  prof::ProfReport report;
  report.compiler = "test-cc 1.0";
  report.profile_heap = false;
  report.threads = 2;
  report.hardware_threads = 8;
  report.page_size = 4096;
  const auto stage = [](const char* name, std::int64_t wall,
                        std::uint64_t arena_bytes) {
    prof::StageProfile s;
    s.name = name;
    s.wall_us = wall;
    s.user_us = wall / 2;
    s.sys_us = wall / 10;
    s.minor_faults = 100;
    s.major_faults = 1;
    s.rss_delta_kb = 256;
    s.rss_kb = 100 * 1024;
    s.peak_rss_kb = 120 * 1024;
    s.arena_allocs = 2000;
    s.arena_bytes = arena_bytes;
    s.pool_tasks = 7;
    s.heap_allocs = 0;
    s.heap_bytes = 0;
    s.heap_peak_live_bytes = 1 << 20;
    return s;
  };
  report.stages.push_back(stage("lab_boot", 50000, 8 << 20));
  report.stages.push_back(stage("idle", 900000, 16 << 20));
  report.stages.push_back(stage("classify", 700000, 8 << 20));
  report.totals = stage("total", 1650000, 32 << 20);
  return report;
}

TEST(ReportTest, JsonRoundTripIsLossless) {
  const prof::ProfReport report = make_report();
  const std::string text = prof::to_json(report);
  const auto parsed = prof::parse_report(text);
  ASSERT_TRUE(parsed.has_value());
  // Canonical serialization: parse(to_json(x)) re-serializes byte-identical.
  EXPECT_EQ(prof::to_json(*parsed), text);
  EXPECT_EQ(parsed->compiler, "test-cc 1.0");
  EXPECT_EQ(parsed->threads, 2);
  ASSERT_EQ(parsed->stages.size(), 3u);
  EXPECT_EQ(parsed->stages[1].name, "idle");
  EXPECT_EQ(parsed->stages[1].wall_us, 900000);
  EXPECT_EQ(parsed->stages[1].arena_bytes, 16u << 20);
  EXPECT_EQ(parsed->totals.name, "total");

  EXPECT_FALSE(prof::parse_report("not json").has_value());
  EXPECT_FALSE(prof::parse_report("{\"schema\": 1}").has_value());

  // perf.json shares manifest.json's format version; a report of another
  // version, or of none, is rejected rather than misread.
  EXPECT_EQ(report.schema, obs::kRunRecordSchema);
  const std::string schema_line = "  \"schema\": 1,\n";
  const std::size_t at = text.find(schema_line);
  ASSERT_NE(at, std::string::npos) << text;
  std::string other = text;
  other.replace(at, schema_line.size(), "  \"schema\": 2,\n");
  EXPECT_FALSE(prof::parse_report(other).has_value());
  std::string missing = text;
  missing.erase(at, schema_line.size());
  EXPECT_FALSE(prof::parse_report(missing).has_value());
}

TEST(ReportTest, LoadReportReadsFile) {
  const std::filesystem::path path = "prof_test_report.json";
  {
    std::ofstream out(path);
    out << prof::to_json(make_report());
  }
  const auto loaded = prof::load_report(path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stages.size(), 3u);
  std::filesystem::remove(path);
  EXPECT_FALSE(prof::load_report(path.string()).has_value());
}

TEST(ReportTest, FingerprintCoversOnlyDeterministicFields) {
  const prof::ProfReport a = make_report();
  prof::ProfReport b = make_report();
  // Host-dependent noise: not part of the fingerprint.
  b.stages[0].wall_us *= 3;
  b.stages[1].peak_rss_kb += 4096;
  b.stages[2].heap_allocs = 12345;
  b.stages[2].pool_tasks = 99;
  b.hardware_threads = 2;
  EXPECT_EQ(prof::deterministic_fingerprint(a),
            prof::deterministic_fingerprint(b));

  // The deterministic core: stage names and arena counters.
  b.stages[1].arena_bytes += 1;
  EXPECT_NE(prof::deterministic_fingerprint(a),
            prof::deterministic_fingerprint(b));
}

TEST(DiffTest, IdenticalReportsPass) {
  const prof::ProfReport report = make_report();
  const prof::ProfDiff diff = prof::diff_reports(report, report);
  EXPECT_TRUE(diff.ok);
  EXPECT_GT(diff.compared, 0);
  EXPECT_FALSE(diff.lines.empty());
}

TEST(DiffTest, NamesFirstRegressingStage) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  // Stage 1 ("idle") doubles its arena bytes; stage 2 ("classify") also
  // regresses on wall time. The differ must name the FIRST one.
  current.stages[1].arena_bytes *= 2;
  current.stages[2].wall_us *= 2;
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.stage, "idle");
  EXPECT_EQ(diff.metric, "arena_bytes");
  EXPECT_NEAR(diff.ratio, 1.0, 1e-9);
  EXPECT_NE(diff.detail.find("idle"), std::string::npos);
}

TEST(DiffTest, SmallRegressionsUnderThresholdPass) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.stages[1].arena_bytes += current.stages[1].arena_bytes / 20;  // +5%
  current.stages[1].wall_us += current.stages[1].wall_us / 10;         // +10%
  EXPECT_TRUE(prof::diff_reports(current, baseline).ok);
}

TEST(DiffTest, HardwareMismatchSkipsTimeAndRssGates) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.hardware_threads = baseline.hardware_threads + 8;
  current.stages[1].wall_us *= 10;       // would trip the time gate
  current.stages[1].peak_rss_kb *= 10;   // would trip the RSS gate
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_TRUE(diff.ok);
  ASSERT_FALSE(diff.lines.empty());
  EXPECT_NE(diff.lines[0].find("SKIP"), std::string::npos);

  // Arena gates still fire across hardware: they are deterministic.
  current.stages[0].arena_bytes *= 2;
  const prof::ProfDiff diff2 = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff2.ok);
  EXPECT_EQ(diff2.stage, "lab_boot");
  EXPECT_EQ(diff2.metric, "arena_bytes");
}

TEST(DiffTest, ArenaGrowthOverUnderFloorBaselineFails) {
  // A stage that reserves no arena at the baseline (the scan stage, once
  // the capture stops at classify) must not start leaking unseen.
  prof::ProfReport baseline = make_report();
  baseline.stages[2].arena_allocs = 0;
  baseline.stages[2].arena_bytes = 0;
  baseline.stages[0].wall_us = 1000;  // under the time floor
  prof::ProfReport current = baseline;
  EXPECT_TRUE(prof::diff_reports(current, baseline).ok);

  // Host-dependent gates still treat an under-floor baseline as noise, and
  // arena growth that stays under its floor is not a finding either.
  current.stages[0].wall_us = 50000;
  current.stages[2].arena_allocs = 1;
  current.stages[2].arena_bytes = 256 << 10;
  EXPECT_TRUE(prof::diff_reports(current, baseline).ok);

  current.stages[2].arena_bytes = 100 << 20;
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.stage, "classify");
  EXPECT_EQ(diff.metric, "arena_bytes");
  EXPECT_NEAR(diff.ratio, 100.0, 1e-9);  // growth in units of the 1 MiB floor
  EXPECT_NE(diff.detail.find("classify"), std::string::npos);
}

TEST(DiffTest, StageListMismatchFails) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.stages.pop_back();
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.metric, "stage_list");
}

TEST(ProfilerTest, AttributesArenaAllocsToTheOpenStage) {
  prof::Profiler profiler;
  profiler.begin_run(1);
  {
    prof::StageScope stage("alloc_stage", profiler);
    prof::note_arena_alloc(4096);
    prof::note_arena_alloc(4096);
  }
  {
    prof::StageScope stage("quiet_stage", profiler);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  const prof::ProfReport report = profiler.finish();

  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "alloc_stage");
  EXPECT_EQ(report.stages[0].arena_allocs, 2u);
  EXPECT_EQ(report.stages[0].arena_bytes, 8192u);
  EXPECT_EQ(report.stages[1].name, "quiet_stage");
  EXPECT_EQ(report.stages[1].arena_allocs, 0u);
  for (const prof::StageProfile& s : report.stages) {
    EXPECT_GE(s.wall_us, 0);
    EXPECT_GT(s.rss_kb, 0) << s.name;
    EXPECT_GT(s.peak_rss_kb, 0) << s.name;
  }
  EXPECT_EQ(report.totals.name, "total");
  EXPECT_EQ(report.totals.arena_allocs, 2u);
  EXPECT_EQ(report.threads, 1);
  EXPECT_GT(report.hardware_threads, 0);
  EXPECT_EQ(report.profile_heap, prof::heap_hooks_active());
  EXPECT_FALSE(report.compiler.empty());

  // The profiler is reusable: a new run starts from a clean slate.
  profiler.begin_run(2);
  const prof::ProfReport empty = profiler.finish();
  EXPECT_TRUE(empty.stages.empty());
  EXPECT_EQ(empty.threads, 2);
}

TEST(FramePathAllocTest, ClosedPortExchangesAllocateUnderOneBlockPer100Frames) {
  // Senders write each frame into a buffer the switch recycles, and the
  // delivery event fits std::function's inline storage: once the pool and
  // the event slab are warm, a probe and its answer cost no heap block.
  if (!prof::heap_hooks_active())
    GTEST_SKIP() << "needs heap hooks (configure with -DROOMNET_PROFILE=ON)";
  EventLoop loop;
  Switch net{loop};
  Host scanner(net, MacAddress::from_u64(0x02a0fc000001ull), "scanner");
  Host target(net, MacAddress::from_u64(0x02a000000002ull), "target");
  scanner.set_static_ip(Ipv4Address(192, 168, 10, 250));
  target.set_static_ip(Ipv4Address(192, 168, 10, 2));
  scanner.add_arp_entry(target.ip(), target.mac());
  target.add_arp_entry(scanner.ip(), scanner.mac());
  scanner.rst_on_closed_tcp = false;  // like PortScanner: no answer to answers
  const Bytes payload = bytes_of("probe");
  // One TCP SYN and one UDP datagram to a closed port: a RST and an ICMP
  // port-unreachable come back.
  const auto exchanges = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto port = static_cast<std::uint16_t>(1 + i % 1024);
      scanner.send_raw_tcp(target.ip(), 40000, port, TcpFlags{.syn = true}, 1, 0);
      scanner.send_udp(target.ip(), 40001, port, payload);
      loop.run_until(loop.now() + SimTime::from_ms(2));
    }
  };
  exchanges(100);  // warm-up
  const std::uint64_t frames_before = net.frames_transmitted();
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  exchanges(1000);
  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();
  const std::uint64_t frames = net.frames_transmitted() - frames_before;
  ASSERT_EQ(frames, 4000u);
  EXPECT_LT((after.heap_allocs - before.heap_allocs) * 100, frames)
      << after.heap_allocs - before.heap_allocs << " heap blocks";
}

TEST(DiscoveryAllocTest, AnsweredMdnsAndSsdpExchangesAllocateUnderOneBlockEach) {
  // Receivers read DNS/SSDP views of the frame, the mDNS endpoint sends an
  // answer it encoded once, and the SSDP endpoint writes its response into a
  // recycled buffer: once warm, a discovery exchange costs no heap block.
  if (!prof::heap_hooks_active())
    GTEST_SKIP() << "needs heap hooks (configure with -DROOMNET_PROFILE=ON)";
  EventLoop loop;
  Switch net{loop};
  Host phone(net, MacAddress::from_u64(0x02a0fc000001ull), "phone");
  Host hue(net, MacAddress::from_u64(0x02a000000002ull), "hue");
  Host tv(net, MacAddress::from_u64(0x02a000000003ull), "tv");
  phone.set_static_ip(Ipv4Address(192, 168, 10, 50));
  hue.set_static_ip(Ipv4Address(192, 168, 10, 2));
  tv.set_static_ip(Ipv4Address(192, 168, 10, 3));
  tv.add_arp_entry(phone.ip(), phone.mac());
  MdnsEndpoint hue_mdns(hue);
  hue_mdns.add_service({.instance = "Philips Hue - 685F61",
                        .service_type = "_hue._tcp.local",
                        .port = 443,
                        .txt = {"bridgeid=001788fffe685f61"}});
  SsdpEndpoint tv_ssdp(tv);
  tv_ssdp.respond_to_msearch = true;
  UpnpDeviceDescription desc;
  desc.udn = "uuid:296f0ed3-af44-4f44-8a7f-02a000000002";
  tv_ssdp.set_description(desc);
  // The phone's mDNS endpoint reads every answer and ignores it; its M-SEARCH
  // socket counts the SSDP responses.
  MdnsEndpoint phone_mdns(phone);
  int mdns_answers = 0, ssdp_answers = 0;
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
    mdns_answers += msg.is_response;
  };
  phone.open_udp(40000, [&](Host&, const PacketView&, const UdpDatagram&) {
    ++ssdp_answers;
  });
  DnsMessage query;
  query.questions.push_back(
      {DnsName::from_string("_hue._tcp.local"), DnsType::kPtr, false});
  const Bytes mdns_query = encode_dns(query);
  SsdpMessage search;
  search.search_target = "upnp:rootdevice";
  const Bytes msearch = encode_ssdp(search);
  const auto exchanges = [&](int n) {
    for (int i = 0; i < n; ++i) {
      phone.send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, mdns_query);
      phone.send_udp(kSsdpGroupV4, 40000, kSsdpPort, msearch);
      loop.run_until(loop.now() + SimTime::from_ms(2));
    }
  };
  exchanges(100);  // warm-up
  ASSERT_EQ(mdns_answers, 100);
  ASSERT_EQ(ssdp_answers, 100);
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  exchanges(1000);
  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();
  ASSERT_EQ(mdns_answers, 1100);
  ASSERT_EQ(ssdp_answers, 1100);
  EXPECT_LT(after.heap_allocs - before.heap_allocs, 2000u)
      << after.heap_allocs - before.heap_allocs << " heap blocks";
}

TEST(FoldedTest, ReconstructsNestingAndSelfWeights) {
  // make_report(): lab_boot 50ms, idle 900ms, classify 700ms. The run's
  // totals exceed the stage sum by 50ms: the root frame keeps that self time.
  prof::ProfReport report = make_report();
  report.totals.wall_us = 1700000;
  const std::string folded = prof::folded_stacks(report);
  EXPECT_EQ(folded,
            "main;pipeline 50000\n"
            "main;pipeline;classify 700000\n"
            "main;pipeline;idle 900000\n"
            "main;pipeline;lab_boot 50000\n");
  // Every line is "frame(;frame)* <weight>".
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(weight.empty()) << line;
    EXPECT_EQ(weight.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }

  // No time outside the stages (totals == stage sum): no root line.
  report.totals.wall_us = 1650000;
  EXPECT_EQ(prof::folded_stacks(report).find("main;pipeline "),
            std::string::npos);

  // Deterministic: folding the same report twice is byte-identical.
  EXPECT_EQ(prof::folded_stacks(report), prof::folded_stacks(report));
}

TEST(FoldedTest, SanitizesSeparatorsInSpanNames) {
  prof::ProfReport report;
  prof::StageProfile stage;
  stage.name = "bad;name with space";
  stage.wall_us = 50;
  report.stages.push_back(stage);
  report.totals.wall_us = 50;
  EXPECT_EQ(prof::folded_stacks(report),
            "main;pipeline;bad_name_with_space 50\n");
}

TEST(ProfPipelineTest, PerfReportIsDeterministicAcrossThreadCounts) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(5);
  config.interactions = 10;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;

  const std::filesystem::path dir1 = "prof_pipeline_t1";
  const std::filesystem::path dir2 = "prof_pipeline_t2";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);

  config.threads = 1;
  config.telemetry_out = dir1.string();
  Pipeline p1(config);
  const PipelineResults r1 = p1.run();

  config.threads = 2;
  config.telemetry_out = dir2.string();
  Pipeline p2(config);
  const PipelineResults r2 = p2.run();

  // The deterministic core (stage set + arena counters) must be
  // byte-identical across thread counts — the perf twin of the manifest's
  // determinism contract.
  EXPECT_EQ(prof::deterministic_fingerprint(r1.profile),
            prof::deterministic_fingerprint(r2.profile));
  EXPECT_EQ(r1.profile.threads, 1);
  EXPECT_EQ(r2.profile.threads, 2);

  // perf.json names exactly the stages the manifest hashes, in order.
  ASSERT_EQ(r1.profile.stages.size(), r1.manifest.stages.size());
  for (std::size_t i = 0; i < r1.profile.stages.size(); ++i)
    EXPECT_EQ(r1.profile.stages[i].name, r1.manifest.stages[i].name);

  // Stage 3 folds at the tap behind a flow cache: no stage reserves capture
  // arena, and the totals agree with the (all-zero) per-stage sum.
  std::uint64_t total_arena = 0;
  for (const prof::StageProfile& s : r1.profile.stages)
    total_arena += s.arena_bytes;
  EXPECT_EQ(total_arena, 0u);
  EXPECT_EQ(r1.profile.totals.arena_bytes, total_arena);

  // perf.json landed next to manifest.json and round-trips.
  const auto on_disk = prof::load_report((dir1 / "perf.json").string());
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(prof::to_json(*on_disk), prof::to_json(r1.profile));

  // Each run directory holds exactly the run record, no artifact empty.
  const auto run_directory = [](const std::filesystem::path& dir) {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.insert(entry.path().filename().string());
      EXPECT_GT(entry.file_size(), 0u) << entry.path();
    }
    return names;
  };
  const std::set<std::string> record = {"events.jsonl", "manifest.json",
                                        "metrics.prom", "perf.json",
                                        "trace.folded"};
  EXPECT_EQ(run_directory(dir1), record);
  EXPECT_EQ(run_directory(dir2), record);

  // trace.folded is perf.json's stage list, rendered.
  std::ifstream folded_file(dir1 / "trace.folded");
  std::stringstream folded;
  folded << folded_file.rdbuf();
  EXPECT_EQ(folded.str(), prof::folded_stacks(r1.profile));

  // Satellite telemetry: the flow-cache occupancy gauge was published
  // during the run.
  auto& registry = telemetry::Registry::global();
  EXPECT_GT(registry.gauge("roomnet_flow_cache_peak_flows").value(), 0);

  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);
}

}  // namespace
}  // namespace roomnet
