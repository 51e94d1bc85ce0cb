// Tests for roomnet::faults: the deterministic fault plan, switch-level
// fault application, device churn, and the pipeline's degradation contract
// (seeded faulty runs byte-identical at every worker count; the all-off
// plan reproducing the fault-free pipeline exactly).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "core/pipeline.hpp"
#include "faults/churn.hpp"
#include "faults/faults.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) {
  return MacAddress::from_u64(0x02fa000000000ull | n);
}

/// Minimal two-host LAN with pre-seeded ARP, so exactly one data frame per
/// send_udp crosses the switch and every fault draw maps to a data frame.
struct FaultLan {
  EventLoop loop;
  Switch net{loop};
  Host sender{net, mac_n(1), "sender"};
  Host receiver{net, mac_n(2), "receiver"};
  int received = 0;

  FaultLan() {
    sender.set_static_ip(Ipv4Address(192, 168, 77, 1));
    receiver.set_static_ip(Ipv4Address(192, 168, 77, 2));
    sender.add_arp_entry(receiver.ip(), receiver.mac());
    receiver.add_arp_entry(sender.ip(), sender.mac());
    receiver.open_udp(
        9000, [this](Host&, const PacketView&, const UdpDatagram&) { ++received; });
  }

  void send_one() {
    sender.send_udp(receiver.ip(), 9001, 9000, bytes_of("fault-probe"));
  }
  void settle() { loop.run_until(loop.now() + SimTime::from_seconds(1)); }
};

bool same_fate(const Switch::FrameFate& a, const Switch::FrameFate& b) {
  return a.drop == b.drop && a.copies == b.copies &&
         a.extra_delay == b.extra_delay && a.truncate_to == b.truncate_to &&
         a.corrupt_at == b.corrupt_at && a.corrupt_mask == b.corrupt_mask;
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultsUnit, DefaultPlanIsDisabledAndDrawsNothing) {
  faults::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(faults::FaultConfig{}.any());
  for (int i = 0; i < 10; ++i) {
    const auto fate = plan.next_frame_fate(128);
    EXPECT_FALSE(fate.drop);
    EXPECT_EQ(fate.copies, 1);
    EXPECT_EQ(fate.extra_delay, SimTime{});
    EXPECT_EQ(fate.truncate_to, 0u);
    EXPECT_EQ(fate.corrupt_at, 0u);
  }
  EXPECT_FALSE(plan.draw_churn());
}

TEST(FaultsUnit, SameSeedSameFateSequence) {
  faults::FaultConfig config;
  config.loss = 0.1;
  config.duplicate = 0.1;
  config.reorder = 0.1;
  config.jitter_max_us = 500;
  config.truncate = 0.1;
  config.corrupt = 0.1;
  faults::FaultPlan a(config, 1234), b(config, 1234), c(config, 999);
  bool any_divergence_from_c = false;
  for (int i = 0; i < 500; ++i) {
    const std::size_t size = 64 + static_cast<std::size_t>(i % 900);
    const auto fa = a.next_frame_fate(size);
    const auto fb = b.next_frame_fate(size);
    const auto fc = c.next_frame_fate(size);
    EXPECT_TRUE(same_fate(fa, fb)) << "frame " << i;
    if (!same_fate(fa, fc)) any_divergence_from_c = true;
  }
  EXPECT_TRUE(any_divergence_from_c);  // the seed actually matters
}

TEST(FaultsUnit, FaultSeedEnvOverride) {
  unsetenv("ROOMNET_FAULT_SEED");
  const std::uint64_t derived = faults::fault_seed(42);
  EXPECT_NE(derived, 42u);  // never aliases the sim stream
  EXPECT_EQ(derived, faults::fault_seed(42));
  setenv("ROOMNET_FAULT_SEED", "0xdead", 1);
  EXPECT_EQ(faults::fault_seed(42), 0xdeadu);
  setenv("ROOMNET_FAULT_SEED", "not-a-number", 1);
  EXPECT_EQ(faults::fault_seed(42), derived);  // bad values fall back
  unsetenv("ROOMNET_FAULT_SEED");
}

// ------------------------------------------------------------ switch faults

TEST(FaultsUnit, TotalLossDeliversNothing) {
  FaultLan lan;
  faults::FaultConfig config;
  config.loss = 1.0;
  faults::FaultPlan plan(config, 7);
  plan.install(lan.net);
  for (int i = 0; i < 5; ++i) lan.send_one();
  lan.settle();
  EXPECT_EQ(lan.received, 0);
}

TEST(FaultsUnit, DuplicationDeliversTwice) {
  FaultLan lan;
  faults::FaultConfig config;
  config.duplicate = 1.0;
  faults::FaultPlan plan(config, 7);
  plan.install(lan.net);
  lan.send_one();
  lan.settle();
  EXPECT_EQ(lan.received, 2);
}

TEST(FaultsUnit, OfflineHostNeitherReceivesNorTransmits) {
  FaultLan lan;
  lan.receiver.set_online(false);
  lan.send_one();
  lan.settle();
  EXPECT_EQ(lan.received, 0);

  lan.receiver.set_online(true);
  lan.send_one();
  lan.settle();
  EXPECT_EQ(lan.received, 1);

  lan.sender.set_online(false);
  lan.send_one();
  lan.settle();
  EXPECT_EQ(lan.received, 1);  // offline sender's frame never left the NIC
}

TEST(FaultsChurn, DriverTogglesHostsAndLogsDeterministically) {
  const auto run_once = [] {
    FaultLan lan;
    faults::FaultConfig config;
    config.churn = 0.5;
    config.churn_period_s = 10;
    config.churn_downtime_s = 5;
    faults::FaultPlan plan(config, 99);
    faults::ChurnDriver driver(plan);
    driver.attach(lan.loop, {&lan.sender, &lan.receiver});
    lan.loop.run_until(SimTime::from_seconds(100));
    // Stop ticking, then drain the recovery scheduled by the last tick.
    driver.detach();
    lan.loop.run_until(SimTime::from_seconds(106));
    std::vector<std::pair<std::string, bool>> log;
    for (const auto& event : driver.log())
      log.emplace_back(event.label, event.online);
    return log;
  };
  const auto log = run_once();
  EXPECT_FALSE(log.empty());
  // Every offline transition recovers (downtime < period keeps them paired).
  int offline = 0, online = 0;
  for (const auto& [label, up] : log) up ? ++online : ++offline;
  EXPECT_EQ(offline, online);
  EXPECT_EQ(log, run_once());  // same seed, same outages
}

// ------------------------------------------------------------ the pipeline

PipelineConfig small_config() {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = true;
  config.run_crowd = false;
  return config;
}

void expect_identical(const PipelineResults& r, const PipelineResults& base) {
  EXPECT_EQ(r.local_packets, base.local_packets);
  EXPECT_EQ(r.flows, base.flows);
  EXPECT_EQ(r.population, base.population);
  EXPECT_EQ(r.usage.by_device, base.usage.by_device);
  ASSERT_EQ(r.graph.edges.size(), base.graph.edges.size());
  for (std::size_t i = 0; i < r.graph.edges.size(); ++i) {
    EXPECT_EQ(r.graph.edges[i].a, base.graph.edges[i].a) << i;
    EXPECT_EQ(r.graph.edges[i].b, base.graph.edges[i].b) << i;
    EXPECT_EQ(r.graph.edges[i].packets, base.graph.edges[i].packets) << i;
  }
  EXPECT_EQ(r.crossval.matrix, base.crossval.matrix);
  EXPECT_EQ(r.crossval.total, base.crossval.total);
  EXPECT_EQ(r.crossval.agreed, base.crossval.agreed);
  EXPECT_EQ(r.crossval.disagreed, base.crossval.disagreed);
  EXPECT_EQ(r.exposure.cells, base.exposure.cells);
  EXPECT_EQ(r.responses.match_count, base.responses.match_count);
  EXPECT_EQ(r.responses.match_hash.hex(), base.responses.match_hash.hex());
  ASSERT_EQ(r.scan_reports.size(), base.scan_reports.size());
  for (std::size_t i = 0; i < r.scan_reports.size(); ++i) {
    EXPECT_EQ(r.scan_reports[i].open_tcp, base.scan_reports[i].open_tcp) << i;
    EXPECT_EQ(r.scan_reports[i].open_udp, base.scan_reports[i].open_udp) << i;
    EXPECT_EQ(r.scan_reports[i].closed_udp, base.scan_reports[i].closed_udp)
        << i;
  }
  EXPECT_EQ(r.audits.size(), base.audits.size());
  ASSERT_EQ(r.vulnerabilities.size(), base.vulnerabilities.size());
  for (std::size_t i = 0; i < r.vulnerabilities.size(); ++i) {
    EXPECT_EQ(r.vulnerabilities[i].mac, base.vulnerabilities[i].mac) << i;
    EXPECT_EQ(r.vulnerabilities[i].id, base.vulnerabilities[i].id) << i;
    EXPECT_EQ(r.vulnerabilities[i].evidence, base.vulnerabilities[i].evidence)
        << i;
  }
  EXPECT_EQ(r.app_stats.total_apps, base.app_stats.total_apps);
  EXPECT_EQ(r.exfiltration.size(), base.exfiltration.size());
  EXPECT_EQ(r.degraded, base.degraded);
}

TEST(FaultsDeterminism, SeededFaultyRunByteIdenticalAcrossThreadCounts) {
  PipelineConfig config = small_config();
  config.faults.loss = 0.05;
  config.faults.duplicate = 0.02;
  config.faults.reorder = 0.02;
  config.faults.jitter_max_us = 2000;
  config.faults.truncate = 0.01;
  config.faults.corrupt = 0.01;
  config.faults.churn = 0.05;
  config.faults.churn_period_s = 120;
  config.faults.churn_downtime_s = 60;

  const auto run_with = [&](int threads) {
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults base = run_with(1);
  EXPECT_FALSE(base.scan_reports.empty());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(run_with(threads), base);
  }
}

TEST(FaultsAllOff, ReproducesFaultFreePipelineExactly) {
  const PipelineConfig config = small_config();

  Pipeline fault_free(config);  // never constructs a fault path
  const PipelineResults base = fault_free.run();
  EXPECT_TRUE(base.degraded.empty());

  PipelineConfig all_off = config;
  all_off.faults = faults::FaultConfig{};  // explicit all-zero plan
  Pipeline zeroed(all_off);
  const PipelineResults r = zeroed.run();
  EXPECT_TRUE(r.degraded.empty());
  expect_identical(r, base);
}

TEST(FaultsChurn, ChurnedPipelineStillProducesResults) {
  PipelineConfig config = small_config();
  config.app_sample = 0;
  config.faults.loss = 0.1;
  config.faults.churn = 0.3;
  config.faults.churn_period_s = 60;
  config.faults.churn_downtime_s = 120;

  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();

  // The run absorbs the outages instead of failing: full population, scan
  // reports for whoever held a lease, and a populated degradation ledger.
  EXPECT_EQ(results.population.size(), 93u);
  EXPECT_FALSE(results.scan_reports.empty());
  ASSERT_FALSE(results.degraded.empty());
  bool churn_entries = false;
  for (const auto& entry : results.degraded) {
    EXPECT_FALSE(entry.stage.empty());
    EXPECT_FALSE(entry.reason.empty());
    if (entry.stage == "churn") churn_entries = true;
  }
  EXPECT_TRUE(churn_entries);
}

// Every ledger entry is caused by a fault: a near-lossless run records
// nothing, in any stage. Devices that answer no scan even without faults
// (no open service, a stack that drops closed-port probes) are silent by
// design and stay out of the scan part of the ledger.
TEST(FaultsLedger, NearLosslessRunRecordsNoDegradation) {
  PipelineConfig config = small_config();
  config.faults.loss = 1e-6;
  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();
  EXPECT_FALSE(results.scan_reports.empty());
  for (const auto& entry : results.degraded)
    ADD_FAILURE() << entry.stage << " " << entry.subject << ": "
                  << entry.reason;
}

// With every frame dropped only the statically addressed devices hold an
// IPv4 address at scan time. The ones whose profile answers a scan (an
// open service, or a stack that answers closed ports) are recorded silent;
// the ones silent by design are not.
TEST(FaultsLedger, AnsweringDeviceWithAllProbesDroppedIsRecorded) {
  PipelineConfig config = small_config();  // idle long enough for every boot
  config.interactions = 0;
  config.app_sample = 0;
  config.faults.loss = 1.0;
  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();

  std::set<std::string> silent;
  for (const auto& entry : results.degraded)
    if (entry.reason == "silent under scan despite retries")
      silent.insert(entry.subject);
  EXPECT_EQ(silent.count("Arlo Base Station"), 1u);     // HTTP on TCP 80
  EXPECT_EQ(silent.count("IKEA Tradfri Gateway"), 1u);  // DNS on UDP 53
  EXPECT_EQ(silent.count("Keyco Air Sensor"), 0u);      // answers no scan
  EXPECT_EQ(silent.count("Xiaomi Rice Cooker"), 0u);    // answers no scan
}

}  // namespace
}  // namespace roomnet
