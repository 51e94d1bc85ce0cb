// Streaming-pipeline tests: FlowCache eviction mechanics (memcap / LRU /
// timeouts, prune-reason accounting), the StreamAnalyzer call-once contract,
// the stage scoping of the pipeline's stage-3 consumers (scan traffic feeds
// none of them), the config digest of evicting runs, and the bounded-memory
// regression guard (a memcapped run's peak flow state stays flat as the
// simulation grows longer).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "capture/flow.hpp"
#include "capture/flow_cache.hpp"
#include "core/pipeline.hpp"
#include "core/provenance.hpp"
#include "netcore/packet_view.hpp"
#include "stream/stream.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) {
  return MacAddress::from_u64(0x02a000000000ull | n);
}

Packet udp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, std::string_view payload,
                  MacAddress src_mac = mac_n(1),
                  MacAddress dst_mac = mac_n(2)) {
  Packet p;
  p.eth.src = src_mac;
  p.eth.dst = dst_mac;
  p.eth.payload = Bytes(64);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = 17;
  p.ipv4 = ip;
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(dport);
  u.payload = bytes_of(payload);
  p.udp = u;
  return p;
}

Packet tcp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, std::string_view payload,
                  TcpFlags flags = {}) {
  Packet p;
  p.eth.src = mac_n(1);
  p.eth.dst = mac_n(2);
  p.eth.payload = Bytes(64);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = 6;
  p.ipv4 = ip;
  TcpSegment t;
  t.src_port = port(sport);
  t.dst_port = port(dport);
  t.flags = flags;
  t.payload = bytes_of(payload);
  p.tcp = t;
  return p;
}

/// Collects every emitted record (deep copy — the reference dies with the
/// sink call).
struct RecordLog {
  std::vector<FlowRecord> records;
  std::vector<PruneReason> reasons;
  FlowCache::Sink sink() {
    return [this](const FlowRecord& rec, PruneReason reason) {
      records.push_back(rec);
      reasons.push_back(reason);
    };
  }
};

// ------------------------------------------------------------ StreamFlowCache

TEST(StreamFlowCache, CondensesBidirectionalFlowAndFlushes) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  const Packet req = udp_packet(a, 5000, b, 80, "req");
  const Packet res = udp_packet(b, 80, a, 5000, "resp");
  const Packet req2 = udp_packet(a, 5000, b, 80, "req2");
  cache.add(SimTime::from_ms(0), as_view(req));
  cache.add(SimTime::from_ms(10), as_view(res));
  cache.add(SimTime::from_ms(20), as_view(req2));
  EXPECT_EQ(cache.stats().flows_created, 1u);
  EXPECT_EQ(cache.stats().active_flows, 1u);
  EXPECT_EQ(cache.stats().packets, 3u);
  EXPECT_TRUE(log.records.empty());  // nothing evicts without a knob armed

  cache.flush();
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kFlush);
  const FlowRecord& rec = log.records[0];
  EXPECT_EQ(rec.key.client_ip, a);
  EXPECT_EQ(rec.key.server_port, port(80));
  EXPECT_EQ(rec.packets, 3u);
  EXPECT_EQ(rec.client_packets, 2u);
  EXPECT_EQ(rec.server_packets, 1u);
  EXPECT_EQ(rec.bytes, 3 * (64u + 14u));  // matches Flow::byte_count
  EXPECT_EQ(rec.first_seen, SimTime::from_ms(0));
  EXPECT_EQ(rec.last_seen, SimTime::from_ms(20));
  // First non-empty payload per direction, copied out of the packet.
  EXPECT_EQ(string_of(BytesView{rec.client_payload}), "req");
  EXPECT_EQ(string_of(BytesView{rec.server_payload}), "resp");
  EXPECT_EQ(cache.stats().active_flows, 0u);

  cache.flush();  // idempotent
  EXPECT_EQ(log.records.size(), 1u);
}

TEST(StreamFlowCache, ResetZeroesStatsAndReproducesAFreshCache) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  const auto feed = [&cache, &a, &b] {
    for (int i = 0; i < 20; ++i) {
      const Packet p = udp_packet(a, static_cast<std::uint16_t>(5000 + i), b,
                                  80, "req");
      cache.add(SimTime::from_ms(i), as_view(p));
    }
    cache.flush();
  };
  feed();
  const std::size_t first_records = log.records.size();
  ASSERT_EQ(first_records, 20u);

  cache.reset();
  EXPECT_EQ(cache.stats().flows_created, 0u);
  EXPECT_EQ(cache.stats().packets, 0u);
  EXPECT_EQ(cache.stats().active_flows, 0u);
  EXPECT_EQ(cache.stats().peak_bytes, 0u);

  // A recycled cache behaves exactly like a fresh one: same records, same
  // creation-order emission, same stats (node reuse order is unobservable).
  feed();
  ASSERT_EQ(log.records.size(), 2 * first_records);
  EXPECT_EQ(cache.stats().flows_created, 20u);
  for (std::size_t i = 0; i < first_records; ++i) {
    EXPECT_EQ(log.records[first_records + i].key,
              log.records[i].key) << "record " << i;
    EXPECT_EQ(log.records[first_records + i].packets, log.records[i].packets);
  }
}

TEST(StreamFlowCache, ToFlowMatchesBatchFlowOnClassifierInputs) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const Packet req = udp_packet(a, 5000, b, 80, "question");
  const Packet res = udp_packet(b, 80, a, 5000, "answer");

  // The flow over every packet, the way a per-packet assembly holds it.
  Flow batch;
  batch.key = {a, port(5000), b, port(80),
               static_cast<std::uint8_t>(IpProto::kUdp)};
  batch.packets = {{SimTime::from_ms(0), true, as_view(req).app_payload()},
                   {SimTime::from_ms(5), false, as_view(res).app_payload()}};

  RecordLog log;
  FlowCache cache({}, log.sink());
  cache.add(SimTime::from_ms(0), as_view(req));
  cache.add(SimTime::from_ms(5), as_view(res));
  cache.flush();
  ASSERT_EQ(log.records.size(), 1u);
  const Flow synth = log.records[0].to_flow();

  // Everything classify_flow reads must agree with the materialized flow.
  EXPECT_EQ(synth.key, batch.key);
  EXPECT_FALSE(synth.packets.empty());
  EXPECT_EQ(string_of(synth.first_client_payload()),
            string_of(batch.first_client_payload()));
  EXPECT_EQ(string_of(synth.first_server_payload()),
            string_of(batch.first_server_payload()));
}

TEST(StreamFlowCache, TracksTcpFlagsAndPerProtoCounters) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  TcpFlags syn;
  syn.syn = true;
  TcpFlags finack;
  finack.fin = true;
  finack.ack = true;
  const Packet open = tcp_packet(a, 40000, b, 443, "", syn);
  const Packet close = tcp_packet(a, 40000, b, 443, "", finack);
  const Packet dgram = udp_packet(a, 5000, b, 53, "q");
  cache.add(SimTime::from_ms(0), as_view(open));
  cache.add(SimTime::from_ms(1), as_view(close));
  cache.add(SimTime::from_ms(2), as_view(dgram));
  EXPECT_EQ(cache.stats().tcp_flows, 1u);
  EXPECT_EQ(cache.stats().udp_flows, 1u);

  cache.flush();
  ASSERT_EQ(log.records.size(), 2u);
  const FlowRecord& tcp_rec = log.records[0];  // creation order
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.syn);
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.fin);
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.ack);
  EXPECT_FALSE(tcp_rec.tcp_flags_seen.rst);
}

TEST(StreamFlowCache, MaxFlowsEvictsLeastRecentlyUsed) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.max_flows = 2;
  FlowCache cache(config, log.sink());

  const Packet f1 = udp_packet(a, 5001, b, 80, "one");
  const Packet f2 = udp_packet(a, 5002, b, 80, "two");
  const Packet f1b = udp_packet(a, 5001, b, 80, "one-again");
  const Packet f3 = udp_packet(a, 5003, b, 80, "three");
  cache.add(SimTime::from_ms(0), as_view(f1));
  cache.add(SimTime::from_ms(1), as_view(f2));
  cache.add(SimTime::from_ms(2), as_view(f1b));  // touch: f2 is now LRU
  cache.add(SimTime::from_ms(3), as_view(f3));   // over max_flows: evict f2
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kExcess);
  EXPECT_EQ(log.records[0].key.client_port, port(5002));
  EXPECT_EQ(cache.stats().active_flows, 2u);
  EXPECT_EQ(cache.stats().prunes[static_cast<std::size_t>(
                PruneReason::kExcess)],
            1u);
}

TEST(StreamFlowCache, MemcapEvictsUntilUnderBudget) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  // Room for roughly two flows carrying 200-byte payloads (256 base + 200).
  config.memcap_bytes = 1000;
  FlowCache cache(config, log.sink());

  const std::string big(200, 'x');
  for (std::uint16_t i = 0; i < 6; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(6000 + i), b, 80, big);
    cache.add(SimTime::from_ms(i), as_view(p));
    EXPECT_LE(cache.stats().bytes_used, config.memcap_bytes);
  }
  EXPECT_EQ(cache.stats().flows_created, 6u);
  EXPECT_EQ(log.records.size(), 4u);
  for (const PruneReason reason : log.reasons)
    EXPECT_EQ(reason, PruneReason::kMemcap);
  // Oldest-first: the LRU tail goes first, in arrival order.
  EXPECT_EQ(log.records[0].key.client_port, port(6000));
  EXPECT_EQ(log.records[1].key.client_port, port(6001));
  // Peak never exceeded the budget by more than the in-flight flow's cost.
  EXPECT_LE(cache.stats().peak_bytes, config.memcap_bytes + 256 + big.size());
}

TEST(StreamFlowCache, IdleTimeoutEvictsInEventOrder) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.idle_timeout = SimTime::from_seconds(5);
  FlowCache cache(config, log.sink());

  const Packet f1 = udp_packet(a, 5001, b, 80, "one");
  const Packet f2 = udp_packet(a, 5002, b, 80, "two");
  cache.add(SimTime::from_seconds(0), as_view(f1));
  cache.add(SimTime::from_seconds(2), as_view(f2));
  EXPECT_TRUE(log.records.empty());

  // t=8: f1 idle 8s (out), f2 idle 6s (out); both expire before the new
  // packet folds, oldest last_seen first.
  const Packet f3 = udp_packet(a, 5003, b, 80, "three");
  cache.add(SimTime::from_seconds(8), as_view(f3));
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.reasons[0], PruneReason::kIdle);
  EXPECT_EQ(log.reasons[1], PruneReason::kIdle);
  EXPECT_EQ(log.records[0].key.client_port, port(5001));
  EXPECT_EQ(log.records[1].key.client_port, port(5002));
  EXPECT_EQ(cache.stats().active_flows, 1u);
}

TEST(StreamFlowCache, EstablishedTimeoutSplitsLongLivedFlow) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.established_timeout = SimTime::from_seconds(10);
  FlowCache cache(config, log.sink());

  const Packet chat = udp_packet(a, 5000, b, 80, "tick");
  cache.add(SimTime::from_seconds(0), as_view(chat));
  cache.add(SimTime::from_seconds(5), as_view(chat));
  EXPECT_TRUE(log.records.empty());
  // t=12: lifetime cap hit — the old record is emitted and a fresh one
  // starts with this packet.
  cache.add(SimTime::from_seconds(12), as_view(chat));
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kEstablished);
  EXPECT_EQ(log.records[0].packets, 2u);
  EXPECT_EQ(cache.stats().flows_created, 2u);
  EXPECT_EQ(cache.stats().active_flows, 1u);
}

TEST(StreamFlowCache, FlushEmitsSurvivorsInCreationOrder) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());
  for (std::uint16_t i = 0; i < 5; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(7000 + i), b, 80, "p");
    cache.add(SimTime::from_ms(i), as_view(p));
  }
  // Touch them in reverse so LRU order is the opposite of creation order.
  for (std::uint16_t i = 5; i-- > 0;) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(7000 + i), b, 80, "p");
    cache.add(SimTime::from_ms(100 + (5 - i)), as_view(p));
  }
  cache.flush();
  ASSERT_EQ(log.records.size(), 5u);
  for (std::uint16_t i = 0; i < 5; ++i)
    EXPECT_EQ(log.records[i].key.client_port,
              port(static_cast<std::uint16_t>(7000 + i)))
        << i;
}

TEST(StreamFlowCache, PruneCountersReachTelemetry) {
  auto& registry = telemetry::Registry::global();
  telemetry::Counter& memcap_counter = registry.counter(
      "roomnet_flow_cache_prunes_total", {{"reason", "memcap"}});
  const std::uint64_t before = memcap_counter.value();

  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  FlowCacheConfig config;
  config.memcap_bytes = 600;  // fits one 200-byte-payload flow, not two
  FlowCache cache(config, {});
  const std::string big(200, 'x');
  for (std::uint16_t i = 0; i < 3; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(6100 + i), b, 80, big);
    cache.add(SimTime::from_ms(i), as_view(p));
  }
  EXPECT_GT(memcap_counter.value(), before);
  EXPECT_GT(registry.gauge("roomnet_flow_cache_peak_flows").value(), 0);
}

TEST(StreamFlowCache, EveryPruneReasonSurvivesIntoExportedReport) {
  // The flow-cache accounting is part of the exported observability surface:
  // after driving all five prune reasons, each reason-labeled counter must
  // show up — non-zero — in both the Prometheus text and the JSON mirror.
  auto& registry = telemetry::Registry::global();
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const auto flow_starter = [&](FlowCache& cache, std::uint16_t sport,
                                SimTime at) {
    const Packet p = udp_packet(a, sport, b, 80, "x");
    cache.add(at, as_view(p));
  };
  {
    FlowCacheConfig config;
    config.idle_timeout = SimTime::from_seconds(1);
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7001, SimTime::from_seconds(10));  // 7000 idles out
  }
  {
    FlowCacheConfig config;
    config.established_timeout = SimTime::from_seconds(1);
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7000, SimTime::from_seconds(5));  // lifetime cap
  }
  {
    FlowCacheConfig config;
    config.memcap_bytes = 600;
    FlowCache cache(config, {});
    const std::string big(200, 'x');
    for (std::uint16_t i = 0; i < 3; ++i) {
      const Packet p =
          udp_packet(a, static_cast<std::uint16_t>(7100 + i), b, 80, big);
      cache.add(SimTime::from_ms(i), as_view(p));
    }
  }
  {
    FlowCacheConfig config;
    config.max_flows = 1;
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7001, SimTime::from_ms(1));  // LRU victim for slot
  }
  {
    FlowCache cache({}, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    cache.flush();
  }

  const std::string prom = telemetry::to_prometheus(registry);
  const std::string json = telemetry::to_json(registry);
  for (const char* reason :
       {"idle", "established", "memcap", "excess", "flush"}) {
    EXPECT_GT(registry
                  .counter("roomnet_flow_cache_prunes_total",
                           {{"reason", reason}})
                  .value(),
              0u)
        << reason;
    const std::string prom_line = "roomnet_flow_cache_prunes_total{reason=\"" +
                                  std::string(reason) + "\"}";
    EXPECT_NE(prom.find(prom_line), std::string::npos) << reason;
    // The sample value on that line must be non-zero (" 0\n" would mean the
    // counter made it to the report in name only).
    const std::size_t pos = prom.find(prom_line);
    EXPECT_NE(prom.compare(pos + prom_line.size(), 3, " 0\n"), 0)
        << "zero-valued " << reason << " counter in metrics.prom";
    const std::string json_needle =
        "\"labels\":{\"reason\":\"" + std::string(reason) + "\"}";
    EXPECT_NE(json.find(json_needle), std::string::npos) << reason;
  }
  // Gauges ride along: occupancy/peak accounting is in the same report.
  EXPECT_NE(prom.find("roomnet_flow_cache_peak_flows"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE roomnet_flow_cache_prunes_total counter"),
            std::string::npos);
}

// ------------------------------------------------------------- StreamContract

TEST(StreamContract, OnPacketAfterFinishThrows) {
  // finish() moves the builders' results out: a later fold would land in
  // moved-from builders whose output nobody reads.
  stream::StreamAnalyzer analyzer({}, {mac_n(1), mac_n(2)});
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const Packet p = udp_packet(a, 5000, b, 80, "x");
  analyzer.on_packet(SimTime::from_ms(0), as_view(p));
  const stream::StreamResults results = analyzer.finish();
  EXPECT_EQ(results.flows, 1u);
  EXPECT_THROW(analyzer.on_packet(SimTime::from_ms(1), as_view(p)),
               std::logic_error);
  EXPECT_EQ(analyzer.packets(), 1u);
}

TEST(StreamContract, SecondFinishThrows) {
  stream::StreamAnalyzer analyzer({}, {});
  (void)analyzer.finish();
  EXPECT_THROW((void)analyzer.finish(), std::logic_error);
}

// ---------------------------------------------------------------- StreamScope

TEST(StreamScope, ScanTrafficReachesNoStage3Consumer) {
  // Stage-3 consumers read only the capture up to classify: the active scan
  // must not grow the local-packet count, the flow cache, or the capture
  // arena. Same seed with the scan on and off.
  auto& registry = telemetry::Registry::global();
  const auto flows_total = [&] {
    return registry
               .counter("roomnet_flow_cache_flows_total",
                        {{"transport", "tcp"}})
               .value() +
           registry
               .counter("roomnet_flow_cache_flows_total",
                        {{"transport", "udp"}})
               .value();
  };
  const auto run = [&](bool scan, std::uint64_t& flows_created) {
    PipelineConfig config;
    config.seed = 3;
    config.threads = 1;
    config.idle_duration = SimTime::from_minutes(10);
    config.interactions = 20;
    config.app_sample = 0;
    config.run_crowd = false;
    config.run_scan = scan;
    Pipeline pipeline(config);
    const std::uint64_t flows0 = flows_total();
    PipelineResults results = pipeline.run();
    flows_created = flows_total() - flows0;
    return results;
  };
  std::uint64_t flows_with_scan = 0;
  std::uint64_t flows_without_scan = 0;
  const PipelineResults with_scan = run(true, flows_with_scan);
  const PipelineResults without_scan = run(false, flows_without_scan);

  EXPECT_GT(with_scan.scan_reports.size(), 0u);
  EXPECT_GT(with_scan.local_packets, 0u);
  EXPECT_EQ(with_scan.local_packets, without_scan.local_packets);
  EXPECT_EQ(with_scan.flow_cache.peak_flows,
            without_scan.flow_cache.peak_flows);
  EXPECT_EQ(with_scan.flow_cache.flows_created,
            without_scan.flow_cache.flows_created);
  // The process-wide flow-cache counters see every flow the cache ever
  // created, including any after finish().
  EXPECT_EQ(flows_with_scan, flows_without_scan);
  bool saw_scan_stage = false;
  for (const prof::StageProfile& stage : with_scan.profile.stages) {
    if (stage.name != "scan") continue;
    saw_scan_stage = true;
    EXPECT_EQ(stage.arena_bytes, 0u);
    EXPECT_EQ(stage.arena_allocs, 0u);
  }
  EXPECT_TRUE(saw_scan_stage);
}

// --------------------------------------------------------------- StreamParity

TEST(StreamParity, EvictingConfigChangesDigestHonestly) {
  // A memcap'd run may legitimately differ from a non-evicting one (flows
  // split, payload state dropped), so its config digest must say so.
  const PipelineConfig plain;
  PipelineConfig memcapped = plain;
  memcapped.stream.memcap_bytes = 1 << 20;

  EXPECT_NE(pipeline_config_digest(plain), pipeline_config_digest(memcapped));
  EXPECT_FALSE(plain.stream.evicting());
  EXPECT_TRUE(memcapped.stream.evicting());
}

// --------------------------------------------------------------- StreamMemory

TEST(StreamMemory, CacheStateBoundedByMemcapAsFlowCountGrows) {
  // O(active flows), not O(all flows): drive 500 distinct flows through a
  // 16 KiB cache and watch usage stay under the cap throughout.
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  FlowCacheConfig config;
  config.memcap_bytes = 16 * 1024;
  FlowCache cache(config, {});
  const std::string payload(300, 'y');
  for (std::uint32_t i = 0; i < 500; ++i) {
    const Packet p = udp_packet(
        Ipv4Address(192, 168, static_cast<std::uint8_t>(10 + i / 250),
                    static_cast<std::uint8_t>(i % 250)),
        static_cast<std::uint16_t>(1024 + i), b, 80, payload);
    cache.add(SimTime::from_ms(i), as_view(p));
    EXPECT_LE(cache.stats().bytes_used, config.memcap_bytes);
  }
  EXPECT_EQ(cache.stats().flows_created, 500u);
  EXPECT_LE(cache.stats().peak_bytes,
            config.memcap_bytes + 256 + payload.size());
  EXPECT_GT(cache.stats().prunes[static_cast<std::size_t>(
                PruneReason::kMemcap)],
            0u);
  (void)a;
}

TEST(StreamMemory, MemcappedPeakStaysFlatAsRunGrows) {
  // The regression stage 3's tap-time fold exists to prevent: a memcap'd
  // run's peak flow state is bounded by the memcap, not by simulated time.
  // Run the same scenario at 1x and 3x length.
  const auto run = [](double scale) {
    PipelineConfig c;
    c.idle_duration = SimTime::from_minutes(10 * scale);
    c.interactions = 0;
    c.app_sample = 0;
    c.run_scan = false;
    c.run_crowd = false;
    c.stream.memcap_bytes = 256 * 1024;
    Pipeline pipeline(c);
    return pipeline.run();
  };

  const PipelineResults stream_short = run(1);
  const PipelineResults stream_long = run(3);
  EXPECT_GT(stream_long.local_packets, 2 * stream_short.local_packets);
  EXPECT_GT(stream_long.flow_cache.flows_created,
            stream_short.flow_cache.flows_created);
  EXPECT_GT(stream_short.flow_cache.peak_bytes, 0u);
  EXPECT_LE(stream_long.flow_cache.peak_bytes, 256u * 1024u + 4096u);
  EXPECT_LE(stream_long.flow_cache.peak_bytes,
            stream_short.flow_cache.peak_bytes +
                stream_short.flow_cache.peak_bytes / 2);
}

}  // namespace
}  // namespace roomnet
