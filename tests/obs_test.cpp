#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/manifest.hpp"

namespace roomnet::obs {
namespace {

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

TEST(CanonicalHasher, RawPiecesAfterTheirTotalSizeHashLikeStr) {
  CanonicalHasher whole;
  whole.str("line one\nline two\n");
  CanonicalHasher pieces;
  pieces.u64(18);
  pieces.raw("line one\n");
  pieces.raw("");
  pieces.raw("line two\n");
  EXPECT_EQ(pieces.hex(), whole.hex());
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

  // A well-formed manifest of another format version, or of none, is
  // rejected rather than misread.
  const std::string text = to_json(sample_manifest());
  ASSERT_TRUE(parse_manifest(text).has_value());
  const std::string schema_line = "  \"schema\": 1,\n";
  const std::size_t at = text.find(schema_line);
  ASSERT_NE(at, std::string::npos) << text;
  std::string other = text;
  other.replace(at, schema_line.size(), "  \"schema\": 2,\n");
  EXPECT_FALSE(parse_manifest(other).has_value());
  std::string missing = text;
  missing.erase(at, schema_line.size());
  EXPECT_FALSE(parse_manifest(missing).has_value());
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
