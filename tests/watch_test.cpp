// roomnet::watch tests: NetEvent jsonl round-trip + diff, the alert-rule
// grammar and engine lifecycle (rate / threshold / absence / new-label),
// flight-recorder ring bounds, and the headline determinism claims — the
// merged timeline is byte-identical across thread counts, on clean and
// faulty runs alike, and a seed change names the first divergent event.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stage_names.hpp"
#include "netcore/packet_view.hpp"
#include "obs/manifest.hpp"
#include "watch/events.hpp"
#include "watch/rules.hpp"
#include "watch/watch.hpp"
#include "wire_frame.hpp"

namespace roomnet::watch {
namespace {

MacAddress mac_n(std::uint64_t n) {
  return MacAddress::from_u64(0x02a000000000ull | n);
}

NetEvent sample_event(std::uint64_t seq) {
  NetEvent event;
  event.seq = seq;
  event.at = SimTime::from_ms(1234);
  event.type = NetEventType::kDnsQuery;
  event.severity = Severity::kNotice;
  event.device = mac_n(7);
  event.device_label = "Test Camera \"A\"";
  event.flow = "udp 192.168.10.5:5353>224.0.0.251:5353";
  event.fields = {{"name", "cam.local"}, {"resolver", "192.168.10.1"}};
  return event;
}

// ------------------------------------------------------------- WatchEvents

TEST(WatchEvents, JsonRoundTripPreservesEveryField) {
  const NetEvent event = sample_event(42);
  const auto parsed = parse_event(to_json(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(WatchEvents, JsonlRoundTripAndStableHash) {
  std::vector<NetEvent> events;
  for (std::uint64_t i = 0; i < 5; ++i) events.push_back(sample_event(i));
  const std::string jsonl = events_to_jsonl(events);
  const auto parsed = parse_events_jsonl(jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, events);
  // Hash is a pure function of the serialized bytes.
  EXPECT_EQ(hash_events(*parsed), hash_events(events));
}

TEST(WatchEvents, HashIsTheCanonicalHashOfTheJsonlText) {
  // hash_events streams the lines; it must equal str() over the whole text.
  const auto expected = [](const std::vector<NetEvent>& events) {
    obs::CanonicalHasher hasher;
    hasher.str("roomnet-watch-events-v1");
    hasher.str(events_to_jsonl(events));
    return hasher.hex();
  };
  std::vector<NetEvent> events;
  EXPECT_EQ(hash_events(events), expected(events));
  for (std::uint64_t i = 0; i < 300; ++i) {
    NetEvent event = sample_event(i);
    if (i % 3 == 0) event.flow.clear();
    if (i % 5 == 0) event.fields.clear();
    event.device_label += std::string(i % 40, '\\');
    events.push_back(std::move(event));
  }
  EXPECT_EQ(hash_events(events), expected(events));
  events.pop_back();
  EXPECT_EQ(hash_events(events), expected(events));
}

TEST(WatchEvents, ParseRejectsMalformedLines) {
  EXPECT_FALSE(parse_event("not json").has_value());
  EXPECT_FALSE(parse_event("{}").has_value());
  EXPECT_FALSE(parse_event(R"({"seq":0,"t_us":1,"type":"nope",)"
                           R"("severity":"info","device":"02:a0:00:00:00:01",)"
                           R"("label":"x"})")
                   .has_value());
  EXPECT_FALSE(
      parse_events_jsonl("{\"seq\":0}\ngarbage\n").has_value());
}

TEST(WatchEvents, DiffNamesFirstDivergentEvent) {
  std::vector<NetEvent> a, b;
  for (std::uint64_t i = 0; i < 4; ++i) {
    a.push_back(sample_event(i));
    b.push_back(sample_event(i));
  }
  EXPECT_TRUE(diff_events(a, b).equal);
  b[2].device_label = "Imposter";
  const EventDiff diff = diff_events(a, b);
  EXPECT_FALSE(diff.equal);
  EXPECT_EQ(diff.index, 2u);
  EXPECT_NE(diff.detail.find("Imposter"), std::string::npos);
}

TEST(WatchEvents, DiffHandlesPrefixStreams) {
  std::vector<NetEvent> a, b;
  for (std::uint64_t i = 0; i < 3; ++i) a.push_back(sample_event(i));
  b = a;
  b.pop_back();
  const EventDiff diff = diff_events(a, b);
  EXPECT_FALSE(diff.equal);
  EXPECT_EQ(diff.index, 2u);
}

// -------------------------------------------------------------- WatchRules

TEST(WatchRules, DefaultRulesParseClean) {
  const RuleParse parsed = parse_rules(default_rules());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_GE(parsed.rules.size(), 5u);
}

TEST(WatchRules, ParsesFullGrammar) {
  const RuleParse parsed = parse_rules(
      "# comment line\n"
      "alert scans: rate(event:scan_probe, 30s) > 20 severity critical\n"
      "alert uploads: threshold(flow:upload_ratio_pct) > 90 severity "
      "warning\n"
      "alert offline: threshold(metric:roomnet_faults_frames_offline_total) "
      "> 0 severity notice\n"
      "alert resolvers: new(event:dns_query, resolver) severity warning\n"
      "alert silent: absence(device_activity, 15m) severity info\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.rules.size(), 5u);
  EXPECT_EQ(parsed.rules[0].kind, RuleKind::kRate);
  EXPECT_EQ(parsed.rules[0].window, SimTime::from_seconds(30));
  EXPECT_EQ(parsed.rules[0].threshold, 20);
  EXPECT_EQ(parsed.rules[0].severity, Severity::kCritical);
  EXPECT_EQ(parsed.rules[1].kind, RuleKind::kThreshold);
  EXPECT_EQ(parsed.rules[1].source, "flow:upload_ratio_pct");
  EXPECT_EQ(parsed.rules[2].source,
            "metric:roomnet_faults_frames_offline_total");
  EXPECT_EQ(parsed.rules[3].kind, RuleKind::kNewLabel);
  EXPECT_EQ(parsed.rules[3].field, "resolver");
  EXPECT_EQ(parsed.rules[4].kind, RuleKind::kAbsence);
  EXPECT_EQ(parsed.rules[4].window, SimTime::from_minutes(15));
}

TEST(WatchRules, ErrorsNameTheOffendingLine) {
  EXPECT_NE(parse_rules("alert x: bogus(event:dns_query)\n")
                .error.find("line 1"),
            std::string::npos);
  EXPECT_NE(parse_rules("alert ok: absence(device_activity, 10s) severity "
                        "info\nalert y: rate(event:dns_query, 5s) > 1 "
                        "severity loud\n")
                .error.find("line 2"),
            std::string::npos);
  // Unknown event types are rejected up front, not silently never-matching.
  EXPECT_FALSE(
      parse_rules("alert z: rate(event:warp_core, 5s) > 1 severity info\n")
          .ok());
  // Duplicate rule names would make the summary table ambiguous.
  EXPECT_FALSE(parse_rules("alert a: absence(device_activity, 10s) severity "
                           "info\nalert a: absence(device_activity, 20s) "
                           "severity info\n")
                   .ok());
}

// ------------------------------------------------------------- WatchEngine

struct TransitionLog {
  struct Entry {
    SimTime at;
    std::string rule;
    MacAddress device;
    bool firing;
    std::int64_t value;
  };
  std::vector<Entry> entries;
  RuleEngine::Emit emit() {
    return [this](SimTime at, const RuleEngine::Transition& t) {
      entries.push_back({at, t.rule->name, t.device, t.firing, t.value});
    };
  }
};

NetEvent typed_event(SimTime at, NetEventType type, MacAddress device,
                     std::vector<std::pair<std::string, std::string>> fields =
                         {}) {
  NetEvent event;
  event.at = at;
  event.type = type;
  event.device = device;
  event.fields = std::move(fields);
  return event;
}

TEST(WatchEngine, RateRuleFiresAndResolvesWhenWindowDrains) {
  const RuleParse parsed = parse_rules(
      "alert scans: rate(event:scan_probe, 30s) > 2 severity critical\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TransitionLog log;
  RuleEngine engine(parsed.rules, SimTime::from_seconds(10), log.emit());
  const MacAddress dev = mac_n(1);
  for (int i = 1; i <= 3; ++i)
    engine.on_event(typed_event(SimTime::from_seconds(i),
                                NetEventType::kScanProbe, dev));
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_TRUE(log.entries[0].firing);
  EXPECT_EQ(log.entries[0].at, SimTime::from_seconds(3));
  EXPECT_EQ(log.entries[0].value, 3);
  // The window drains with sim time; the first tick past expiry resolves.
  engine.advance(SimTime::from_seconds(60));
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_FALSE(log.entries[1].firing);
  const auto summaries = engine.finish(SimTime::from_seconds(61));
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].fired, 1u);
  EXPECT_EQ(summaries[0].resolved, 1u);
  EXPECT_EQ(summaries[0].firing, 0u);
}

TEST(WatchEngine, FlowThresholdIsAPulseResolvedOneTickAfterOffense) {
  const RuleParse parsed = parse_rules(
      "alert uploads: threshold(flow:upload_ratio_pct) > 90 severity "
      "warning\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TransitionLog log;
  RuleEngine engine(parsed.rules, SimTime::from_seconds(10), log.emit());
  const MacAddress dev = mac_n(2);
  engine.on_flow_signal(SimTime::from_seconds(5), dev, "tcp a>b", 95);
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_TRUE(log.entries[0].firing);
  EXPECT_EQ(log.entries[0].value, 95);
  // Under-threshold flows never fire.
  engine.on_flow_signal(SimTime::from_seconds(6), mac_n(3), "tcp c>d", 50);
  ASSERT_EQ(log.entries.size(), 1u);
  // The first whole tick with no further offense resolves the pulse.
  engine.advance(SimTime::from_seconds(25));
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_FALSE(log.entries[1].firing);
  EXPECT_EQ(log.entries[1].at, SimTime::from_seconds(10));
  EXPECT_EQ(log.entries[1].device, dev);
}

TEST(WatchEngine, AbsenceFiresForSilentDeviceAndResolvesOnActivity) {
  const RuleParse parsed = parse_rules(
      "alert silent: absence(device_activity, 60s) severity notice\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TransitionLog log;
  RuleEngine engine(parsed.rules, SimTime::from_seconds(10), log.emit());
  const MacAddress quiet = mac_n(4), chatty = mac_n(5);
  engine.register_device(quiet);  // silent since t=0
  engine.on_activity(SimTime::from_seconds(55), chatty);
  engine.advance(SimTime::from_seconds(65));
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_TRUE(log.entries[0].firing);
  EXPECT_EQ(log.entries[0].device, quiet);
  // The device coming back resolves immediately, not at the next tick.
  engine.on_activity(SimTime::from_seconds(67), quiet);
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_FALSE(log.entries[1].firing);
  EXPECT_EQ(log.entries[1].at, SimTime::from_seconds(67));
  EXPECT_EQ(log.entries[1].device, quiet);
}

TEST(WatchEngine, NewLabelFiresOncePerValueAndHonorsSeeds) {
  const RuleParse parsed = parse_rules(
      "alert resolvers: new(event:dns_query, resolver) severity warning\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TransitionLog log;
  RuleEngine engine(parsed.rules, SimTime::from_seconds(10), log.emit());
  engine.seed_label("resolver", "192.168.10.1");
  const MacAddress dev = mac_n(6);
  // The seeded baseline value never fires.
  engine.on_event(typed_event(SimTime::from_seconds(1),
                              NetEventType::kDnsQuery, dev,
                              {{"resolver", "192.168.10.1"}}));
  EXPECT_TRUE(log.entries.empty());
  engine.on_event(typed_event(SimTime::from_seconds(2),
                              NetEventType::kDnsQuery, dev,
                              {{"resolver", "10.9.9.9"}}));
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_TRUE(log.entries[0].firing);
  // A repeat of the now-known value is not a second alert.
  engine.on_event(typed_event(SimTime::from_seconds(3),
                              NetEventType::kDnsQuery, dev,
                              {{"resolver", "10.9.9.9"}}));
  ASSERT_EQ(log.entries.size(), 1u);
  // Pulse semantics: resolved at the first quiet tick.
  engine.advance(SimTime::from_seconds(15));
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_FALSE(log.entries[1].firing);
}

TEST(WatchEngine, MetricThresholdAttributesToNetworkPseudoDevice) {
  const RuleParse parsed = parse_rules(
      "alert offline: threshold(metric:roomnet_test_metric) > 5 severity "
      "warning\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TransitionLog log;
  RuleEngine engine(parsed.rules, SimTime::from_seconds(10), log.emit());
  std::int64_t value = 0;
  engine.set_metric_reader(
      [&](const std::string& name) -> std::optional<std::int64_t> {
        return name == "roomnet_test_metric" ? std::optional(value)
                                             : std::nullopt;
      });
  engine.advance(SimTime::from_seconds(15));
  EXPECT_TRUE(log.entries.empty());  // 0 <= 5
  value = 9;
  engine.advance(SimTime::from_seconds(25));
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_TRUE(log.entries[0].firing);
  EXPECT_EQ(log.entries[0].device, MacAddress{});  // network-wide
  EXPECT_EQ(log.entries[0].value, 9);
  value = 2;
  engine.advance(SimTime::from_seconds(35));
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_FALSE(log.entries[1].firing);
}

// --------------------------------------------------------------- WatchRing

WireFrame syn_packet(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t dport) {
  return tcp_frame(src_mac, dst_mac, src, 40000, dst, dport, {.syn = true}, {});
}

TEST(WatchRing, BoundedRingDropsOldestAndCountsDrops) {
  WatchConfig config;
  config.ring_capacity = 4;
  Watcher watcher(config);
  EXPECT_EQ(watcher.rule_error(), "");
  const MacAddress scanner = mac_n(1), victim = mac_n(2);
  const Ipv4Address src(192, 168, 10, 5), dst(192, 168, 10, 6);
  // 10 distinct (ip, port) SYNs: one new_peer + 10 scan_probe events, all
  // owned by the scanner's ring.
  for (std::uint16_t i = 0; i < 10; ++i) {
    const WireFrame p = syn_packet(scanner, victim, src, dst,
                                   static_cast<std::uint16_t>(8000 + i));
    watcher.on_packet(SimTime::from_ms(i), p.view);
  }
  const WatchReport report = watcher.finish();
  EXPECT_EQ(report.events_emitted, 11u);
  EXPECT_EQ(report.events_dropped, 7u);
  ASSERT_EQ(report.events.size(), 4u);
  // Survivors are the newest four, still in seq order.
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    EXPECT_EQ(report.events[i].seq, 7u + i);
    EXPECT_EQ(report.events[i].type, NetEventType::kScanProbe);
  }
  // A repeated probe of a known (ip, port) is not a new event.
  EXPECT_EQ(report.packets_seen, 10u);
}

TEST(WatchRing, BrokenRuleConfigIsReportedNotFatal) {
  WatchConfig config;
  config.rules = "alert broken: rate(event:warp_core, 5s) > 1 severity info\n";
  Watcher watcher(config);
  EXPECT_NE(watcher.rule_error().find("line 1"), std::string::npos);
  const WatchReport report = watcher.finish();
  EXPECT_TRUE(report.alerts.empty());  // engine runs with no rules
}

TEST(WatchRing, BrokenRuleConfigFailsThePipelineBeforeAnyStage) {
  // A Watcher salvages what parses; a pipeline run must not, or a broken
  // rule file would look like a quiet network.
  PipelineConfig config;
  config.watch.rules =
      "alert broken: rate(event:warp_core, 5s) > 1 severity info\n";
  try {
    Pipeline pipeline(config);
    ADD_FAILURE() << "a broken rule set was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- WatchDeterminism

PipelineConfig small_config() {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  config.run_scan = true;
  config.run_crowd = false;
  return config;
}

TEST(WatchDeterminism, TimelineByteIdenticalAcrossThreadsAndModes) {
  const PipelineConfig config = small_config();
  Pipeline base_pipeline(config);
  const PipelineResults base = base_pipeline.run();
  ASSERT_FALSE(base.watch.events.empty());
  const std::string base_jsonl = events_to_jsonl(base.watch.events);

  // The manifest records the timeline as its own stage, hash matching.
  ASSERT_FALSE(base.manifest.stages.empty());
  bool found = false;
  for (const obs::StageRecord& stage : base.manifest.stages) {
    if (stage.name != stages::kWatch) continue;
    found = true;
    EXPECT_EQ(stage.sha256, hash_events(base.watch.events));
  }
  EXPECT_TRUE(found);

  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    const PipelineResults results = pipeline.run();
    EXPECT_EQ(events_to_jsonl(results.watch.events), base_jsonl);
    EXPECT_EQ(results.watch.alerts, base.watch.alerts);
    EXPECT_EQ(results.watch.events_emitted, base.watch.events_emitted);
    EXPECT_EQ(results.watch.events_dropped, base.watch.events_dropped);
  }
}

TEST(WatchDeterminism, FaultyRunIsDeterministicAndSurfacesFaultEvents) {
  PipelineConfig config = small_config();
  config.run_scan = false;
  config.faults.loss = 0.02;
  config.faults.churn = 0.3;

  Pipeline base_pipeline(config);
  const PipelineResults base = base_pipeline.run();
  std::size_t faults = 0, churns = 0;
  for (const NetEvent& event : base.watch.events) {
    faults += event.type == NetEventType::kFault;
    churns += event.type == NetEventType::kChurn;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(churns, 0u);
  // Churned frames push the offline-frames counter over the default rule's
  // threshold: the metric-sourced alert fires.
  bool offline_fired = false;
  for (const AlertRuleSummary& rule : base.watch.alerts)
    if (rule.name == "offline_frames") offline_fired = rule.fired > 0;
  EXPECT_TRUE(offline_fired);

  PipelineConfig c = config;
  c.threads = 4;
  Pipeline pipeline(c);
  const PipelineResults results = pipeline.run();
  EXPECT_TRUE(diff_events(base.watch.events, results.watch.events).equal);
  EXPECT_EQ(results.watch.alerts, base.watch.alerts);
}

TEST(WatchDeterminism, SeedChangeNamesFirstDivergentEvent) {
  PipelineConfig config = small_config();
  config.idle_duration = SimTime::from_minutes(5);
  config.interactions = 10;
  config.run_scan = false;
  Pipeline a_pipeline(config);
  const PipelineResults a = a_pipeline.run();
  config.seed = 43;
  Pipeline b_pipeline(config);
  const PipelineResults b = b_pipeline.run();
  const EventDiff diff = diff_events(a.watch.events, b.watch.events);
  EXPECT_FALSE(diff.equal);
  EXPECT_FALSE(diff.detail.empty());
}

TEST(WatchDeterminism, DisabledWatchOmitsStageAndArtifacts) {
  PipelineConfig config = small_config();
  config.idle_duration = SimTime::from_minutes(5);
  config.interactions = 5;
  config.run_scan = false;
  config.watch.enabled = false;
  const std::string dir = testing::TempDir() + "/roomnet_watch_disabled";
  std::filesystem::remove_all(dir);
  config.telemetry_out = dir;
  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();
  EXPECT_TRUE(results.watch.events.empty());
  EXPECT_EQ(results.watch.events_emitted, 0u);
  for (const obs::StageRecord& stage : results.manifest.stages)
    EXPECT_NE(stage.name, stages::kWatch);
  EXPECT_FALSE(std::filesystem::exists(dir + "/events.jsonl"));
}

TEST(WatchDeterminism, EventsJsonlArtifactRoundTripsThroughLoader) {
  PipelineConfig config = small_config();
  config.idle_duration = SimTime::from_minutes(5);
  config.interactions = 5;
  config.run_scan = false;
  const std::string dir = testing::TempDir() + "/roomnet_watch_artifact";
  std::filesystem::remove_all(dir);
  config.telemetry_out = dir;
  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();
  const auto loaded = load_events(dir + "/events.jsonl");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, results.watch.events);
  EXPECT_EQ(hash_events(*loaded), hash_events(results.watch.events));
}

}  // namespace
}  // namespace roomnet::watch
