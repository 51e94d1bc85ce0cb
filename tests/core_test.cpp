// End-to-end pipeline test: one (reduced-scale) run of the full study.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "core/roomnet.hpp"
#include "obs/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineConfig config;
    config.seed = 42;
    config.idle_duration = SimTime::from_minutes(40);
    config.interactions = 120;
    config.app_sample = 40;
    pipeline_ = new Pipeline(config);
    results_ = new PipelineResults(pipeline_->run());
  }
  static void TearDownTestSuite() {
    delete results_;
    delete pipeline_;
    results_ = nullptr;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
  static PipelineResults* results_;
};
Pipeline* PipelineFixture::pipeline_ = nullptr;
PipelineResults* PipelineFixture::results_ = nullptr;

TEST_F(PipelineFixture, CapturesSubstantialLocalTraffic) {
  EXPECT_GT(results_->local_packets, 5000u);
  EXPECT_GT(results_->flows, 100u);
  EXPECT_EQ(results_->population.size(), 93u);
}

TEST_F(PipelineFixture, Rq1ProtocolDiversity) {
  // The paper's Figure 2 shows >20 protocols in passive traffic.
  const auto labels = results_->usage.all_labels();
  EXPECT_GE(labels.size(), 12u);
  // The headline ordering: ARP/DHCP near-universal, mDNS ~44%, SSDP ~1/3.
  const auto pct = [&](ProtocolLabel label) {
    return 100.0 *
           static_cast<double>(
               results_->usage.devices_using(label, results_->population)) /
           93.0;
  };
  EXPECT_GT(pct(ProtocolLabel::kArp), 80);
  EXPECT_GT(pct(ProtocolLabel::kDhcp), 85);
  EXPECT_GT(pct(ProtocolLabel::kArp), pct(ProtocolLabel::kMdns));
  EXPECT_GT(pct(ProtocolLabel::kMdns), pct(ProtocolLabel::kTuyaLp));
}

TEST_F(PipelineFixture, Rq1CommunicationGraphHasVendorClusters) {
  EXPECT_GT(results_->graph.connected_nodes().size(), 10u);
  EXPECT_FALSE(results_->graph.edges.empty());
}

TEST_F(PipelineFixture, Rq2ExposureMatrixPopulated) {
  EXPECT_TRUE(results_->exposure.exposed(ProtocolLabel::kArp, ExposedData::kMac));
  EXPECT_TRUE(
      results_->exposure.exposed(ProtocolLabel::kDhcp, ExposedData::kOsVersion));
  EXPECT_TRUE(
      results_->exposure.exposed(ProtocolLabel::kTuyaLp, ExposedData::kGwId));
}

TEST_F(PipelineFixture, Rq2VulnerabilitiesFound) {
  EXPECT_FALSE(results_->vulnerabilities.empty());
  bool weak_key = false;
  for (const auto& finding : results_->vulnerabilities)
    weak_key |= finding.id == "CVE-2016-2183";
  EXPECT_TRUE(weak_key);
}

TEST_F(PipelineFixture, Rq3AppCampaignAndEntropy) {
  EXPECT_EQ(results_->app_stats.total_apps, 40u);
  EXPECT_FALSE(results_->exfiltration.empty());
  EXPECT_FALSE(results_->fingerprints.rows.empty());
}

TEST_F(PipelineFixture, ClassifierDisagreementIsRealistic) {
  // Appendix C.2: the tools disagree on a noticeable but minor fraction.
  EXPECT_GT(results_->crossval.total, 100u);
  EXPECT_GT(results_->crossval.agreement_rate(), 0.3);
  EXPECT_GT(results_->crossval.disagreement_rate(), 0.0);
  EXPECT_LT(results_->crossval.disagreement_rate(), 0.6);
}

TEST(PipelineDeterminism, SameSeedSameHeadlineNumbers) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = false;
  config.run_crowd = false;
  Pipeline p1(config), p2(config);
  const auto r1 = p1.run();
  const auto r2 = p2.run();
  EXPECT_EQ(r1.local_packets, r2.local_packets);
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_EQ(r1.graph.edges.size(), r2.graph.edges.size());
}

TEST(PipelineDeterminism, ByteIdenticalAcrossThreadCounts) {
  // The exec runtime's contract: partial results always merge in index
  // order, so the full result tables — including the parallelized
  // vulnerability audit and fingerprint analysis — are identical for every
  // worker count, and threads=1 is the historical sequential path.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  config.run_scan = true;
  config.run_crowd = true;

  const auto run_with = [&](int threads) {
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults base = run_with(1);
  EXPECT_FALSE(base.vulnerabilities.empty());
  EXPECT_FALSE(base.fingerprints.rows.empty());
  EXPECT_GT(base.crossval.total, 100u);
  EXPECT_FALSE(base.manifest.stages.empty());
  EXPECT_FALSE(base.manifest.result_digest.empty());

  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PipelineResults r = run_with(threads);

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
    EXPECT_EQ(r.crossval.neither_labeled, base.crossval.neither_labeled);
    EXPECT_EQ(r.crossval.spec_labeled, base.crossval.spec_labeled);
    EXPECT_EQ(r.crossval.deep_labeled, base.crossval.deep_labeled);

    EXPECT_EQ(r.exposure.cells, base.exposure.cells);
    EXPECT_EQ(r.exposure.identifiers, base.exposure.identifiers);
    EXPECT_EQ(r.responses.discovery_protocols,
              base.responses.discovery_protocols);
    EXPECT_EQ(r.responses.answered_protocols, base.responses.answered_protocols);
    EXPECT_EQ(r.responses.match_count, base.responses.match_count);
    EXPECT_EQ(r.responses.match_hash.hex(), base.responses.match_hash.hex());

    EXPECT_EQ(r.scan_reports.size(), base.scan_reports.size());
    EXPECT_EQ(r.audits.size(), base.audits.size());
    ASSERT_EQ(r.vulnerabilities.size(), base.vulnerabilities.size());
    for (std::size_t i = 0; i < r.vulnerabilities.size(); ++i) {
      EXPECT_EQ(r.vulnerabilities[i].mac, base.vulnerabilities[i].mac) << i;
      EXPECT_EQ(r.vulnerabilities[i].device, base.vulnerabilities[i].device) << i;
      EXPECT_EQ(r.vulnerabilities[i].severity, base.vulnerabilities[i].severity)
          << i;
      EXPECT_EQ(r.vulnerabilities[i].id, base.vulnerabilities[i].id) << i;
      EXPECT_EQ(r.vulnerabilities[i].title, base.vulnerabilities[i].title) << i;
      EXPECT_EQ(r.vulnerabilities[i].evidence, base.vulnerabilities[i].evidence)
          << i;
    }

    ASSERT_EQ(r.fingerprints.rows.size(), base.fingerprints.rows.size());
    for (std::size_t i = 0; i < r.fingerprints.rows.size(); ++i) {
      const auto& a = r.fingerprints.rows[i];
      const auto& b = base.fingerprints.rows[i];
      EXPECT_EQ(a.types, b.types) << i;
      EXPECT_EQ(a.products, b.products) << i;
      EXPECT_EQ(a.vendors, b.vendors) << i;
      EXPECT_EQ(a.devices, b.devices) << i;
      EXPECT_EQ(a.households, b.households) << i;
      EXPECT_EQ(a.uniquely_identified, b.uniquely_identified) << i;
      // Bit-exact: entropy is computed in the sequential aggregation stage
      // from inputs that are themselves worker-count invariant.
      EXPECT_EQ(a.entropy_bits, b.entropy_bits) << i;
    }

    // The flight-recorder manifest is the machine-checkable form of all the
    // assertions above: byte-identical manifest.json across thread counts.
    EXPECT_EQ(obs::to_json(r.manifest), obs::to_json(base.manifest));
    const obs::ManifestDiff diff = obs::diff_manifests(base.manifest, r.manifest);
    EXPECT_TRUE(diff.equal) << diff.detail;
  }
}

TEST(PipelineGolden, AuditDefaultsReproducePinnedStageHashes) {
  // The `roomnet run` defaults, pinned to the historical bytes so a
  // refactor of the tap, stage 3 or the watch layer cannot move them
  // unnoticed. Stage hashes rather than the result digest: the crowd
  // stage's floating-point math is not pinned here. The sim-stage hashes
  // moved once, when encode_dns stopped writing an empty label as a zero
  // byte: the TiVo Stream 4K's mDNS answers (hostname ".local") used to end
  // that name early and now decode; the watch timeline did not move. The
  // classify hash moved once more when the discovery-response matches
  // became a count and a running hash (8e2d09d3... before).
  PipelineConfig config;
  config.seed = 42;
  config.threads = 1;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  config.run_scan = true;
  config.run_crowd = true;
  Pipeline pipeline(config);
  const PipelineResults results = pipeline.run();

  EXPECT_EQ(results.manifest.config_digest,
            "00c27bac6a965034bbc2ed14ee0d42dae81d8a54aa73c2346602d4bace7e7722");
  const std::map<std::string, std::string> pinned = {
      {"idle",
       "472c013426a6eb7bcf4e6025972bb43fffec4e7ec24887386764fa14b6dafb42"},
      {"interactions",
       "74c56c4ab27a577a5cb80576d3a744bfe39da012e1ec1bf9a3f7193d6d5d8910"},
      {"classify",
       "39d3e26d6113546cfbed4f0a24da070582c83ac3268ac0999bce90d0e81965c6"},
      {"watch",
       "e3d2ca0f1dd22832f9a336c84bf2f9d91831a1afab26a6062df8ee16c8d3966d"},
  };
  std::size_t checked = 0;
  for (const obs::StageRecord& stage : results.manifest.stages) {
    const auto it = pinned.find(stage.name);
    if (it == pinned.end()) continue;
    EXPECT_EQ(stage.sha256, it->second) << stage.name;
    ++checked;
  }
  EXPECT_EQ(checked, pinned.size());
}

TEST(PipelineDeterminism, ByteIdenticalAcrossThreadCountsWithFaults) {
  // The zero-copy capture path (arena + shared delivery buffers) must not
  // introduce thread-count-dependent behavior even when fault injection
  // perturbs the frame stream: same seed + same fault plan ⇒ byte-identical
  // manifest at every worker count.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 10;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.03;
  config.faults.duplicate = 0.02;
  config.faults.truncate = 0.02;
  config.faults.corrupt = 0.01;

  const auto run_with = [&](int threads) {
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults base = run_with(1);
  EXPECT_FALSE(base.manifest.stages.empty());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PipelineResults r = run_with(threads);
    EXPECT_EQ(r.local_packets, base.local_packets);
    EXPECT_EQ(obs::to_json(r.manifest), obs::to_json(base.manifest));
    const obs::ManifestDiff diff = obs::diff_manifests(base.manifest, r.manifest);
    EXPECT_TRUE(diff.equal) << diff.detail;
  }
}

TEST(PipelineDeterminism, AuditNamesFirstDivergentStageAcrossFaultSeeds) {
  // Two runs that differ only in the injected fault stream: the manifests
  // must disagree, and diff_manifests() must attribute the divergence to a
  // named stage rather than a generic "results differ".
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 0;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.05;

  const auto run_with_fault_seed = [&](const char* seed) {
    EXPECT_EQ(setenv("ROOMNET_FAULT_SEED", seed, /*overwrite=*/1), 0);
    Pipeline pipeline(config);
    const PipelineResults r = pipeline.run();
    unsetenv("ROOMNET_FAULT_SEED");
    return r.manifest;
  };
  const obs::RunManifest a = run_with_fault_seed("0x1111");
  const obs::RunManifest b = run_with_fault_seed("0x2222");
  EXPECT_EQ(a.sim_seed, b.sim_seed);
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_NE(a.fault_seed, b.fault_seed);

  const obs::ManifestDiff diff = obs::diff_manifests(a, b);
  EXPECT_FALSE(diff.equal);
  // The fault-seed mismatch is noted but does not stop the audit: the walk
  // continues to name the first stage the diverging fault stream touched.
  EXPECT_EQ(diff.component, "stage") << diff.detail;
  EXPECT_FALSE(diff.stage.empty());
}

TEST(PipelineTelemetry, PopulatesStageMetricsWithoutChangingResults) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = false;
  config.run_crowd = true;

  // Baseline run with telemetry off, then the same config with telemetry on.
  Pipeline plain(config);
  const auto r1 = plain.run();

  const std::filesystem::path out_dir = "telemetry_core_test_out";
  std::filesystem::remove_all(out_dir);
  PipelineConfig instrumented = config;
  instrumented.telemetry_out = out_dir.string();
  Pipeline traced(instrumented);
  const auto r2 = traced.run();

  // Determinism guard: telemetry must not perturb the study's result tables.
  EXPECT_EQ(r1.local_packets, r2.local_packets);
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_EQ(r1.population, r2.population);
  EXPECT_EQ(r1.graph.edges.size(), r2.graph.edges.size());
  EXPECT_EQ(r1.usage.all_labels(), r2.usage.all_labels());
  EXPECT_EQ(r1.crossval.total, r2.crossval.total);
  EXPECT_EQ(r1.app_stats.total_apps, r2.app_stats.total_apps);
  EXPECT_EQ(r1.exfiltration.size(), r2.exfiltration.size());
  EXPECT_EQ(r1.fingerprints.rows.size(), r2.fingerprints.rows.size());

  // Layer counters are populated, and perf.json times every stage that ran.
  auto& registry = telemetry::Registry::global();
  EXPECT_GT(registry.counter("roomnet_sim_events_fired").value(), 0u);
  EXPECT_GT(registry.counter("roomnet_switch_frames_total").value(), 0u);
  EXPECT_GT(registry.counter("roomnet_switch_bytes_total").value(), 0u);
  EXPECT_GE(registry.counter("roomnet_pipeline_runs_total").value(), 2u);
  std::vector<std::string> profiled;
  for (const prof::StageProfile& stage : r2.profile.stages)
    profiled.push_back(stage.name);
  EXPECT_EQ(profiled,
            (std::vector<std::string>{"lab_boot", "idle", "interactions",
                                      "classify", "apps", "crowd", "degraded",
                                      "watch"}));

  // The run record landed on disk: the registry, perf.json (the run's one
  // cost record), and the deterministic manifest.
  EXPECT_TRUE(std::filesystem::exists(out_dir / "metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(out_dir / "perf.json"));
  const std::optional<obs::RunManifest> manifest =
      obs::load_manifest((out_dir / "manifest.json").string());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(obs::diff_manifests(r2.manifest, *manifest).equal);
  // Each stage's sim window is the manifest's: idle spans exactly the
  // configured 10 virtual minutes.
  EXPECT_EQ(manifest->stages[1].name, "idle");
  EXPECT_EQ(manifest->stages[1].sim_us - manifest->stages[0].sim_us,
            SimTime::from_minutes(10).us());
  std::filesystem::remove_all(out_dir);
}

TEST(PipelineTelemetry, UnwritableRunDirectoryThrowsNamingThePath) {
  // A regular file where the run directory's parent should be: nothing
  // below it can be created, and the run must say so instead of returning.
  const std::filesystem::path blocker = "core_test_not_a_directory";
  std::ofstream(blocker) << "x";
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(1);
  config.interactions = 1;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.telemetry_out = (blocker / "run").string();
  Pipeline pipeline(config);
  try {
    (void)pipeline.run();
    ADD_FAILURE() << "run() returned despite an unwritable run directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(config.telemetry_out),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace roomnet
