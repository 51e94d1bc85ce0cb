#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "netcore/text_file.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"

namespace roomnet::obs {
namespace {

// ---------------------------------------------------------------------------
// Ledger: leveled, ring-buffered structured logging.
// ---------------------------------------------------------------------------

TEST(Ledger, OffByDefaultAndRecordsNothing) {
  Ledger ledger;
  EXPECT_EQ(ledger.level(), LogLevel::kOff);
  EXPECT_FALSE(ledger.should_log(LogLevel::kError));
  ledger.log(LogLevel::kError, "pipeline", "boom");
  EXPECT_EQ(ledger.recorded(), 0u);
  EXPECT_TRUE(ledger.records().empty());
}

TEST(Ledger, LevelGatesBySeverity) {
  Ledger ledger;
  ledger.set_level(LogLevel::kWarn);
  EXPECT_TRUE(ledger.should_log(LogLevel::kError));
  EXPECT_TRUE(ledger.should_log(LogLevel::kWarn));
  EXPECT_FALSE(ledger.should_log(LogLevel::kInfo));
  EXPECT_FALSE(ledger.should_log(LogLevel::kDebug));
  // kOff is never loggable, even at the most permissive level.
  ledger.set_level(LogLevel::kDebug);
  EXPECT_FALSE(ledger.should_log(LogLevel::kOff));

  ledger.set_level(LogLevel::kWarn);
  ledger.log(LogLevel::kError, "scan", "kept-error");
  ledger.log(LogLevel::kInfo, "scan", "dropped-info");
  ledger.log(LogLevel::kWarn, "scan", "kept-warn");
  const auto records = ledger.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, "kept-error");
  EXPECT_EQ(records[1].event, "kept-warn");
}

TEST(Ledger, RingKeepsNewestInEmissionOrder) {
  Ledger ledger;
  ledger.set_level(LogLevel::kDebug);
  ledger.reset(/*capacity=*/3);
  for (int i = 0; i < 8; ++i)
    ledger.log(LogLevel::kInfo, "t", "ev" + std::to_string(i));
  EXPECT_EQ(ledger.recorded(), 8u);
  const auto records = ledger.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].event, "ev5");
  EXPECT_EQ(records[1].event, "ev6");
  EXPECT_EQ(records[2].event, "ev7");
  EXPECT_EQ(records[0].seq, 5u);
  EXPECT_EQ(records[2].seq, 7u);
}

TEST(Ledger, SimClockStampsRecords) {
  Ledger ledger;
  ledger.set_level(LogLevel::kInfo);
  ledger.set_sim_clock([] { return SimTime::from_us(1234); });
  ledger.log(LogLevel::kInfo, "pipeline", "stamped");
  ledger.set_sim_clock(nullptr);
  ledger.log(LogLevel::kInfo, "pipeline", "unstamped");
  const auto records = ledger.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sim_us, 1234);
  EXPECT_EQ(records[1].sim_us, 0);
}

TEST(Ledger, KvOverloadsRenderDeterministically) {
  EXPECT_EQ(kv("s", "text").value, "text");
  EXPECT_EQ(kv("i", std::int64_t{-7}).value, "-7");
  EXPECT_EQ(kv("u", std::uint64_t{18446744073709551615ull}).value,
            "18446744073709551615");
  EXPECT_EQ(kv("n", 42).value, "42");
  EXPECT_EQ(kv("b", true).value, "true");
  EXPECT_EQ(kv("b", false).value, "false");
  EXPECT_EQ(kv("d", 0.5).value, "0.5");
}

TEST(Ledger, ParseLogLevelAcceptsNamesAndNumbers) {
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level(""), LogLevel::kOff);
}

TEST(Ledger, JsonlOneObjectPerLineWithEscaping) {
  Ledger ledger;
  ledger.set_level(LogLevel::kInfo);
  ledger.log(LogLevel::kInfo, "scan", "probe",
             {kv("target", "cam\"1\""), kv("note", "line1\nline2")});
  const std::string jsonl = to_jsonl(ledger.records());
  EXPECT_NE(jsonl.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\":\"scan\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"probe\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"target\":\"cam\\\"1\\\"\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"note\":\"line1\\nline2\""), std::string::npos);
  // Exactly one line, terminated: a raw newline from the field value must
  // not split the record.
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
}

TEST(Ledger, WriteJsonlRoundTripsThroughDisk) {
  Ledger ledger;
  ledger.set_level(LogLevel::kInfo);
  ledger.log(LogLevel::kInfo, "pipeline", "run_start", {kv("seed", 42)});
  const std::string path = "obs_test_logs.jsonl";
  ASSERT_TRUE(write_text_file(path, to_jsonl(ledger.records())));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_jsonl(ledger.records()));
  std::filesystem::remove(path);
}

TEST(Ledger, MacroEvaluatesFieldsLazily) {
  // ROOMNET_LOG targets the global ledger; force it off so the field
  // expression must not run.
  Ledger& global = Ledger::global();
  const LogLevel saved = global.level();
  global.set_level(LogLevel::kOff);
  int evaluations = 0;
  const auto count = [&evaluations] {
    ++evaluations;
    return std::int64_t{1};
  };
  ROOMNET_LOG(kInfo, "test", "gated", kv("n", count()));
  EXPECT_EQ(evaluations, 0);
  global.set_level(LogLevel::kInfo);
  const std::uint64_t before = global.recorded();
  ROOMNET_LOG(kInfo, "test", "emitted", kv("n", count()));
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(global.recorded(), before + 1);
  global.set_level(saved);
}

// ---------------------------------------------------------------------------
// CanonicalHasher: order-sensitive, length-prefixed canonical serialization.
// ---------------------------------------------------------------------------

TEST(CanonicalHasher, SameInputsSameDigest) {
  CanonicalHasher a;
  a.u64(7);
  a.str("idle");
  a.f64(0.25);
  a.boolean(true);
  CanonicalHasher b;
  b.u64(7);
  b.str("idle");
  b.f64(0.25);
  b.boolean(true);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 64u);
}

TEST(CanonicalHasher, OrderAndTypeMatter) {
  CanonicalHasher ab;
  ab.str("a");
  ab.str("b");
  CanonicalHasher ba;
  ba.str("b");
  ba.str("a");
  EXPECT_NE(ab.hex(), ba.hex());

  // Length prefixes keep adjacent strings from sliding into each other:
  // ("ab","c") must not collide with ("a","bc").
  CanonicalHasher split1;
  split1.str("ab");
  split1.str("c");
  CanonicalHasher split2;
  split2.str("a");
  split2.str("bc");
  EXPECT_NE(split1.hex(), split2.hex());
}

TEST(CanonicalHasher, DigestIsSnapshotNotFinalization) {
  // digest()/hex() copy-finalize: the hasher keeps streaming afterwards,
  // which is how the pipeline snapshots its running capture hash at each
  // sim-stage boundary.
  CanonicalHasher h;
  h.str("lab_boot");
  const std::string at_boot = h.hex();
  h.str("idle");
  const std::string at_idle = h.hex();
  EXPECT_NE(at_boot, at_idle);
  CanonicalHasher replay;
  replay.str("lab_boot");
  EXPECT_EQ(replay.hex(), at_boot);
  replay.str("idle");
  EXPECT_EQ(replay.hex(), at_idle);
}

// ---------------------------------------------------------------------------
// RunManifest: serialization, parsing, and first-divergence diffing.
// ---------------------------------------------------------------------------

RunManifest sample_manifest() {
  ManifestBuilder builder;
  builder.begin(/*sim_seed=*/42,
                /*fault_seed=*/0xfa175eed0c0de5ull ^ 42ull,
                /*config_digest=*/"cfgdigest");
  builder.add_stage("lab_boot", std::string(64, 'a'), 1000);
  builder.add_stage("idle", std::string(64, 'b'), 600000000);
  builder.add_stage("classify", std::string(64, 'c'), 600000000);
  return builder.finish();
}

TEST(Manifest, JsonRoundTripPreservesDeterministicFields) {
  const RunManifest m = sample_manifest();
  const std::string json = to_json(m);
  const std::optional<RunManifest> parsed = parse_manifest(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema, m.schema);
  EXPECT_EQ(parsed->tool, m.tool);
  EXPECT_EQ(parsed->compiler, m.compiler);
  EXPECT_EQ(parsed->cxx_standard, m.cxx_standard);
  EXPECT_EQ(parsed->sim_seed, m.sim_seed);
  EXPECT_EQ(parsed->fault_seed, m.fault_seed);
  EXPECT_EQ(parsed->config_digest, m.config_digest);
  EXPECT_EQ(parsed->result_digest, m.result_digest);
  ASSERT_EQ(parsed->stages.size(), m.stages.size());
  for (std::size_t i = 0; i < m.stages.size(); ++i)
    EXPECT_EQ(parsed->stages[i], m.stages[i]);
  // Round-tripping the parsed manifest reproduces the exact bytes.
  EXPECT_EQ(to_json(*parsed), json);
}

TEST(Manifest, SeedsSurviveAsFullWidthU64) {
  ManifestBuilder builder;
  // Past 2^53: a JSON double would silently round this.
  builder.begin(0xdeadbeefcafef00dull, 0xffffffffffffffffull, "cfg");
  const RunManifest m = builder.finish();
  const std::string json = to_json(m);
  EXPECT_NE(json.find("\"sim_seed\": \"0xdeadbeefcafef00d\""),
            std::string::npos);
  const std::optional<RunManifest> parsed = parse_manifest(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sim_seed, 0xdeadbeefcafef00dull);
  EXPECT_EQ(parsed->fault_seed, 0xffffffffffffffffull);
}

TEST(Manifest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_manifest("").has_value());
  EXPECT_FALSE(parse_manifest("not json").has_value());
  EXPECT_FALSE(parse_manifest("{}").has_value());
  EXPECT_FALSE(parse_manifest("[1,2,3]").has_value());
}

TEST(Manifest, ResultDigestCoversStageOrder) {
  ManifestBuilder forward;
  forward.begin(1, 2, "cfg");
  forward.add_stage("a", std::string(64, '1'), 0);
  forward.add_stage("b", std::string(64, '2'), 0);
  ManifestBuilder reversed;
  reversed.begin(1, 2, "cfg");
  reversed.add_stage("b", std::string(64, '2'), 0);
  reversed.add_stage("a", std::string(64, '1'), 0);
  EXPECT_NE(forward.finish().result_digest, reversed.finish().result_digest);
}

TEST(ManifestDiffing, EqualManifestsReportEqual) {
  const RunManifest a = sample_manifest();
  const RunManifest b = sample_manifest();
  const ManifestDiff diff = diff_manifests(a, b);
  EXPECT_TRUE(diff.equal);
  EXPECT_EQ(diff.component, "");
  EXPECT_EQ(diff.stage, "");
}

TEST(ManifestDiffing, NamesFirstDivergentStage) {
  const RunManifest a = sample_manifest();
  RunManifest b = sample_manifest();
  // Corrupt the middle and last stages: the diff must name the middle one.
  b.stages[1].sha256 = std::string(64, 'x');
  b.stages[2].sha256 = std::string(64, 'y');
  const ManifestDiff diff = diff_manifests(a, b);
  EXPECT_FALSE(diff.equal);
  EXPECT_EQ(diff.component, "stage");
  EXPECT_EQ(diff.stage, "idle");
}

TEST(ManifestDiffing, SimTimeDivergenceCountsAsStageDivergence) {
  const RunManifest a = sample_manifest();
  RunManifest b = sample_manifest();
  b.stages[0].sim_us += 1;
  const ManifestDiff diff = diff_manifests(a, b);
  EXPECT_EQ(diff.component, "stage");
  EXPECT_EQ(diff.stage, "lab_boot");
}

TEST(ManifestDiffing, FaultSeedMismatchStillNamesFirstDivergentStage) {
  // Different fault seeds are an *expected* divergence source; the audit
  // must keep walking so the caller learns which stage the fault stream
  // first touched.
  const RunManifest a = sample_manifest();
  RunManifest b = sample_manifest();
  b.fault_seed ^= 0x1111;
  b.stages[2].sha256 = std::string(64, 'z');
  const ManifestDiff diff = diff_manifests(a, b);
  EXPECT_FALSE(diff.equal);
  EXPECT_EQ(diff.component, "stage");
  EXPECT_EQ(diff.stage, "classify");

  // With identical stages, the fault-seed difference alone is reported.
  RunManifest c = sample_manifest();
  c.fault_seed ^= 0x1111;
  const ManifestDiff seed_only = diff_manifests(a, c);
  EXPECT_FALSE(seed_only.equal);
  EXPECT_EQ(seed_only.component, "fault_seed");
}

TEST(ManifestDiffing, SimSeedAndConfigShortCircuit) {
  const RunManifest a = sample_manifest();
  RunManifest b = sample_manifest();
  b.sim_seed = 43;
  EXPECT_EQ(diff_manifests(a, b).component, "sim_seed");
  RunManifest c = sample_manifest();
  c.config_digest = "other";
  EXPECT_EQ(diff_manifests(a, c).component, "config");
}

TEST(ManifestDiffing, StageListMismatchIsItsOwnComponent) {
  const RunManifest a = sample_manifest();
  RunManifest fewer = sample_manifest();
  fewer.stages.pop_back();
  EXPECT_EQ(diff_manifests(a, fewer).component, "stage_list");
  RunManifest renamed = sample_manifest();
  renamed.stages[0].name = "other_stage";
  EXPECT_EQ(diff_manifests(a, renamed).component, "stage_list");
}

TEST(Manifest, LoadManifestReadsWhatToJsonWrote) {
  const RunManifest m = sample_manifest();
  const std::string path = "obs_test_manifest.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << to_json(m);
  }
  const std::optional<RunManifest> loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(diff_manifests(m, *loaded).equal);
  std::filesystem::remove(path);
  EXPECT_FALSE(load_manifest(path).has_value());
}

TEST(Manifest, ToJsonCarriesNoVolatileAccounting) {
  // Thread count, wall time and RSS live in perf.json; none of it may leak
  // into the deterministic manifest.
  const std::string deterministic = to_json(sample_manifest());
  EXPECT_EQ(deterministic.find("wall_ms"), std::string::npos);
  EXPECT_EQ(deterministic.find("peak_rss_kb"), std::string::npos);
  EXPECT_EQ(deterministic.find("threads"), std::string::npos);
}

TEST(Manifest, PeakRssIsPositiveOnLinux) {
  EXPECT_GT(peak_rss_kb(), 0);
}

}  // namespace
}  // namespace roomnet::obs
